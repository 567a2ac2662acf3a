"""The nilpotent-orbit law on adjoint representations.

On the adjoint representation the stratification is the classification of
nilpotent orbits: each stratum is one nonzero orbit, with that orbit's
dimension.  The expected dimensions come from the partition formulas of
Collingwood and McGovern, *Nilpotent Orbits in Semisimple Lie Algebras*
(1993), ch. 5-6, and G2's from their table, so this checks the engine past
the naive oracle's 16-weight bound.
"""

from fractions import Fraction

import pytest

from nullcone import parse_catalog_spec, validate
from nullcone.cli import main
from nullcone.rootdata import root_system


def partitions(n, largest=None):
    """The partitions of n into parts of at most `largest`, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate_square_sum(lam):
    """sum_i (lambda*_i)^2 for the conjugate partition lambda*."""
    return sum(sum(1 for part in lam if part > i) ** 2 for i in range(lam[0]))


def sl_partitions(n):
    """The partitions labelling the nonzero nilpotent orbits of sl(n)."""
    return [lam for lam in partitions(n) if lam != (1,) * n]


def so_partitions(size, type_d=False):
    """The partitions labelling the nonzero nilpotent orbits of so(size):
    even parts need even multiplicity, and in type D each very even
    partition (every part even) labels two orbits."""
    out = []
    for lam in partitions(size):
        if lam == (1,) * size or any(lam.count(p) % 2 for p in set(lam) if p % 2 == 0):
            continue
        out += [lam] * (2 if type_d and not any(p % 2 for p in lam) else 1)
    return out


def sp_partitions(n):
    """The partitions labelling the nonzero nilpotent orbits of sp(2n): odd
    parts need even multiplicity."""
    return [lam for lam in partitions(2 * n)
            if lam != (1,) * (2 * n) and not any(lam.count(p) % 2 for p in set(lam) if p % 2)]


def sl_orbits(n):
    """Nonzero nilpotent orbit dimensions of sl(n)."""
    return sorted(n * n - conjugate_square_sum(lam) for lam in sl_partitions(n))


def so_orbits(size, type_d=False):
    """Nonzero nilpotent orbit dimensions of so(size)."""
    return sorted(Fraction(size * (size - 1) - conjugate_square_sum(lam)
                           + sum(p % 2 for p in lam), 2)
                  for lam in so_partitions(size, type_d))


def sp_orbits(n):
    """Nonzero nilpotent orbit dimensions of sp(2n)."""
    return sorted(Fraction(4 * n * n + 2 * n - conjugate_square_sum(lam)
                           - sum(p % 2 for p in lam), 2)
                  for lam in sp_partitions(n))


ORBITS = {
    "a1": sl_orbits(2),
    "a2": sl_orbits(3),
    "a3": sl_orbits(4),
    "a4": sl_orbits(5),
    "a5": sl_orbits(6),
    "a6": sl_orbits(7),
    "b2": so_orbits(5),
    "b3": so_orbits(7),
    "b4": so_orbits(9),
    "b5": so_orbits(11),
    "c3": sp_orbits(3),
    "c4": sp_orbits(4),
    "c5": sp_orbits(5),
    "d4": so_orbits(8, type_d=True),
    "d5": so_orbits(10, type_d=True),
    "g2": [6, 8, 10, 12],
}

PARTITIONS = {
    "a1": sl_partitions(2),
    "a2": sl_partitions(3),
    "a3": sl_partitions(4),
    "a4": sl_partitions(5),
    "a5": sl_partitions(6),
    "a6": sl_partitions(7),
    "b2": so_partitions(5),
    "b3": so_partitions(7),
    "b4": so_partitions(9),
    "b5": so_partitions(11),
    "c3": sp_partitions(3),
    "c4": sp_partitions(4),
    "c5": sp_partitions(5),
    "d4": so_partitions(8, type_d=True),
    "d5": so_partitions(10, type_d=True),
}

# the nonzero even orbits: in the classical types the partitions whose parts
# all have one parity (Collingwood and McGovern, ch. 3 and 5); G2 has two
EVEN_ORBITS = {name: sum(len({p % 2 for p in lam}) == 1 for lam in parts)
               for name, parts in PARTITIONS.items()}
EVEN_ORBITS["g2"] = 2


def test_partition_formulas_known_values():
    assert sl_orbits(3) == [4, 6]
    assert sl_orbits(5) == [8, 12, 14, 16, 18, 20]
    assert so_orbits(5) == [4, 6, 8]
    assert len(so_orbits(7)) == 6 and len(sp_orbits(3)) == 7
    assert len(so_orbits(8, type_d=True)) == 11
    assert len(sl_orbits(7)) == 14
    assert EVEN_ORBITS == {"a1": 1, "a2": 1, "a3": 3, "a4": 2, "a5": 6, "a6": 4, "b2": 2,
                           "b3": 4, "b4": 7, "b5": 11, "c3": 4, "c4": 6, "c5": 9, "d4": 9,
                           "d5": 9, "g2": 2}


@pytest.mark.parametrize("type_name", sorted(ORBITS))
def test_strata_are_nilpotent_orbits(type_name, summary_of):
    summary = summary_of(f"adjoint:{type_name}")
    assert sorted(s.dim for s in summary.strata) == ORBITS[type_name]
    assert summary.dim_nullcone == len(summary.problem.roots)
    assert not summary.equals_V
    assert len(summary.max_component_indices) == 1


def kostant_labels(summary):
    """The labels -2<l, alpha_i> of each stratum's l on the simple roots,
    the unit vectors of `root_system`'s basis."""
    space = summary.problem.space
    simple = [tuple(Fraction(int(i == j)) for j in range(space.rank))
              for i in range(space.rank)]
    assert set(simple) <= set(summary.problem.roots)
    return [tuple(-2 * space.inner(s.l, alpha) for alpha in simple)
            for s in summary.strata]


@pytest.mark.parametrize("type_name", sorted(ORBITS))
def test_kostant_labels(type_name, summary_of):
    """Kostant's label law: the labels of a stratum's l form the weighted
    Dynkin diagram of its orbit, so each lies in {0, 1, 2} and no two strata
    share them (Collingwood and McGovern, ch. 3)."""
    labels = kostant_labels(summary_of(f"adjoint:{type_name}"))
    assert {x for row in labels for x in row} <= {0, 1, 2}
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("type_name", sorted(ORBITS))
def test_even_orbit_count(type_name, summary_of):
    """A stratum with no label 1 is an even orbit."""
    labels = kostant_labels(summary_of(f"adjoint:{type_name}"))
    assert sum(1 not in row for row in labels) == EVEN_ORBITS[type_name]


def test_direct_sum_strata_pair_the_orbits(summary_of):
    a2, b2 = [0] + ORBITS["a2"], [0] + ORBITS["b2"]
    expected = sorted(x + y for x in a2 for y in b2 if x or y)
    summary = summary_of("direct-sum:adjoint:a2+adjoint:b2")
    assert len(summary.strata) == 11
    assert sorted(s.dim for s in summary.strata) == expected


@pytest.mark.parametrize("type_name, roots, norms", [
    ("a1", 2, [2]),
    ("a4", 20, [2, 2, 2, 2]),
    ("b2", 8, [2, 1]),
    ("b5", 50, [2, 2, 2, 2, 1]),
    ("c3", 18, [2, 2, 4]),
    ("d4", 24, [2, 2, 2, 2]),
    ("d8", 112, [2] * 8),
    ("f4", 48, [4, 4, 2, 2]),
    ("g2", 12, [2, 6]),
])
def test_root_system_counts_and_norms(type_name, roots, norms):
    space, found = root_system(type_name)
    assert len(found) == roots
    assert [space.gram[i][i] for i in range(space.rank)] == norms
    assert all(q.denominator == 1 for row in space.gram for q in row)


def test_root_system_keeps_the_rank_two_forms():
    forms = {"a1": [[2]], "a2": [[2, -1], [-1, 2]], "b2": [[2, -1], [-1, 1]],
             "g2": [[2, -3], [-3, 6]]}
    for type_name, gram in forms.items():
        assert [list(row) for row in root_system(type_name)[0].gram] == gram


@pytest.mark.parametrize("type_name", ["b3", "c3", "d4", "f4"])
def test_new_adjoint_types_validate(type_name):
    space, roots = root_system(type_name)
    problem = validate(parse_catalog_spec(f"adjoint:{type_name}"))
    assert problem.roots == roots
    assert problem.total_dim == len(roots) + space.rank


@pytest.mark.parametrize("spec", ["adjoint:e6", "adjoint:d3", "adjoint:x",
                                  "adjoint:a9", "adjoint:a01", "adjoint:c2"])
def test_unknown_adjoint_type_exits_1(spec, capsys):
    assert main(["candidates", spec]) == 1
    assert "unknown adjoint type" in capsys.readouterr().err
