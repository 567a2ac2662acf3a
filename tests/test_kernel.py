"""The integer lattice kernel against the Fraction reference.

`IntegerLattice.levels` must sort weights and roots exactly as
`GramSpace.inner` compared with 1 and 0 does, and `IntegerLattice.foot`
must equal `ratgeom.perp` on every subset, affinely dependent ones and
projected (restricted) weights included.  The memo by l in
`enumerate_candidates` must run the hull LP at most once per distinct l
without changing the candidates, and the naive oracle must stay independent
of the kernel.
"""

import ast
import inspect
from fractions import Fraction as Q
from pathlib import Path

from hypothesis import given, settings, strategies as st

import nullcone.candidates as candidates_module
import nullcone.rootdata as rootdata
from nullcone.candidates import (
    candidate_from_subset,
    enumerate_candidates,
    verify_candidate,
)
from nullcone.oracle import naive_candidates
from nullcone.ratgeom import (
    GramSpace,
    affinely_independent_subsets,
    is_zero_vec,
    perp,
    project_hyperplane,
    vscale,
)
from nullcone.rootdata import integer_lattice, parse_catalog_spec, validate

KERNEL_NAMES = {"IntegerLattice", "Levels", "integer_lattice", "lattice",
                "levels", "foot"}

rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def lattice_inputs(draw):
    """A rational positive definite form LᵀL·scale, weights, roots and a
    nonzero l; with `projected`, the weights are moved onto {l0 = 0}."""
    rank = draw(st.integers(1, 3))
    lower = [[Q(draw(st.integers(1, 3))) if i == j else
              Q(draw(st.integers(-1, 1))) if j < i else Q(0)
              for j in range(rank)] for i in range(rank)]
    scale = draw(st.sampled_from([Q(1), Q(2), Q(1, 2), Q(3, 7)]))
    gram = tuple(tuple(scale * sum(lower[k][i] * lower[k][j] for k in range(rank))
                       for j in range(rank)) for i in range(rank))
    space = GramSpace(rank, gram)
    vectors = st.tuples(*[rationals] * rank)
    points = draw(st.lists(vectors, min_size=1, max_size=6))
    if len(points) >= 2:
        # an affine combination of two weights makes dependent subsets common
        points.append(tuple((a + 2 * b) / 3 for a, b in zip(points[0], points[1])))
    if draw(st.booleans()):
        l0 = draw(vectors.filter(lambda v: not is_zero_vec(v)))
        points = [project_hyperplane(space, l0, v) for v in points]
    weights = [(v, draw(st.integers(1, 3))) for v in points]
    roots = draw(st.lists(vectors, max_size=6))
    l = draw(vectors.filter(lambda v: not is_zero_vec(v)))
    return space, roots, weights, l


@settings(max_examples=150, deadline=None)
@given(lattice_inputs())
def test_levels_match_inner(data):
    space, roots, weights, l = data
    levels = integer_lattice(space, roots, weights).levels(l)
    by_inner = [space.inner(l, v) for v, _ in weights]
    assert levels.below == tuple(i for i, x in enumerate(by_inner) if x < 1)
    assert levels.on == tuple(i for i, x in enumerate(by_inner) if x == 1)
    assert levels.above == tuple(i for i, x in enumerate(by_inner) if x > 1)
    root_sides = [space.inner(l, alpha) for alpha in roots]
    assert levels.roots_negative == tuple(j for j, x in enumerate(root_sides) if x < 0)
    assert levels.roots_zero == tuple(j for j, x in enumerate(root_sides) if x == 0)
    assert levels.roots_positive == tuple(j for j, x in enumerate(root_sides) if x > 0)
    assert levels.mult_below == sum(m for (_, m), x in zip(weights, by_inner) if x < 1)
    assert levels.mult_at_least == sum(m for (_, m), x in zip(weights, by_inner) if x >= 1)


@settings(max_examples=150, deadline=None)
@given(lattice_inputs(), st.data())
def test_foot_matches_perp(data, draw):
    space, roots, weights, _ = data
    lattice = integer_lattice(space, roots, weights)
    n = len(weights)
    for _ in range(4):
        # repeats and more than rank + 1 points give dependent subsets
        subset = draw.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 2))
        assert lattice.foot(subset) == perp(space, [weights[i][0] for i in subset])


def _distinct_nonzero_l(problem):
    """Distinct l over the enumerated subsets, from `ratgeom.perp` alone."""
    space = problem.space
    points = [v for v, _ in problem.weights]
    out = set()
    for subset in affinely_independent_subsets(points, problem.effective_rank):
        foot = perp(space, [points[i] for i in subset])
        if not is_zero_vec(foot):
            out.add(vscale(1 / space.norm_sq(foot), foot))
    return out


def test_memo_runs_hull_once_per_l(monkeypatch):
    for spec in ("sl3-forms:4", "g2-adjoint"):
        problem = validate(parse_catalog_spec(spec))
        points = [v for v, _ in problem.weights]
        unmemoized: dict = {}
        for subset in affinely_independent_subsets(points, problem.effective_rank):
            cand = candidate_from_subset(problem, subset)
            if cand is not None:
                unmemoized.setdefault(cand.l, cand)
        calls = []
        original = candidates_module.in_convex_hull

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(candidates_module, "in_convex_hull", counting)
        raw = enumerate_candidates(problem, dedup=False)
        monkeypatch.undo()
        assert 0 < len(calls) <= len(_distinct_nonzero_l(problem))
        assert raw == tuple(unmemoized[l] for l in sorted(unmemoized))


def test_oracle_imports_no_kernel_name():
    source = Path(inspect.getsourcefile(naive_candidates)).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_NAMES:
            imported.add(node.attr)
    assert not imported & KERNEL_NAMES


def test_references_run_without_kernel(monkeypatch):
    problem = validate(parse_catalog_spec("adjoint:a2"))
    found = enumerate_candidates(problem, dedup=False)

    def unavailable(*args, **kwargs):
        raise AssertionError("the reference path reached the integer kernel")

    monkeypatch.setattr(rootdata.IntegerLattice, "levels", unavailable)
    monkeypatch.setattr(rootdata.IntegerLattice, "foot", unavailable)
    assert all(verify_candidate(problem, cand) == [] for cand in found)
    assert set(naive_candidates(problem, dedup=False)) == {c.l for c in found}
