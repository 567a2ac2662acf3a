"""The integer lattice kernel against the Fraction reference.

`IntegerLattice.levels` must sort weights and roots exactly as
`GramSpace.inner` compared with 1 and 0 does, `IntegerLattice.subset_feet`
must yield, in lexicographic order, affinely independent subsets that span
every flat a brute-force rank test finds on Fractions, each with
`ratgeom.perp` of it as its foot, projected (restricted) weights included;
with `dedup` its prune must keep every nonzero chamber foot, and
`IntegerLattice.in_positive_cone`, the test it prunes by, must agree with
coefficients on the simple roots solved in Fractions.
`IntegerLattice.hull_contains` must agree with `ratgeom.in_convex_hull`: both
run `ratgeom.phase1_feasible`, so this checks the kernel's rows and its
centroid shortcut, and `tests/test_ratgeom.py` checks the LP itself.
The integer `orbit_closure` must equal a Fraction BFS under `reflect`.
Testing each distinct foot once in `enumerate_candidates` must run the hull
LP at most once per distinct l without changing the candidates, and the
naive oracle must stay independent of the kernel.
"""

import ast
import inspect
import itertools
import math
import random
from fractions import Fraction as Q
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nullcone.candidates import (
    candidate_from_subset,
    enumerate_candidates,
    verify_candidate,
)
from nullcone.engine import equality_set, restrict
from nullcone.oracle import naive_candidates, random_problem, random_torus_problem
from nullcone.ratgeom import (
    GramSpace,
    InputError,
    InvariantError,
    ResourceError,
    in_convex_hull,
    integer_point,
    is_zero_vec,
    perp,
    vscale,
    vsub,
    zero_vec,
)
from nullcone.rootdata import (
    IntegerLattice,
    Problem,
    direct_sum,
    integer_lattice,
    orbit_closure,
    parse_catalog_spec,
    reflect,
    root_system,
    validate,
)

from conftest import CATALOG_SPECS

KERNEL_NAMES = {"IntegerLattice", "Levels", "integer_lattice", "lattice",
                "levels", "subset_feet", "direction", "hull_contains"}

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
        norm = space.norm_sq(l0)
        points = [vsub(v, vscale(space.inner(l0, v) / norm, l0)) for v in points]
    weights = [(v, draw(st.integers(1, 3))) for v in points]
    roots = draw(st.lists(vectors, max_size=6))
    l = draw(vectors.filter(lambda v: not is_zero_vec(v)))
    return space, roots, weights, l


@settings(max_examples=150, deadline=None)
@given(lattice_inputs())
def test_levels_match_inner(data):
    space, roots, weights, l = data
    lattice = integer_lattice(space, roots, weights)
    levels = lattice.levels(*integer_point(l))
    by_inner = [space.inner(l, v) for v, _ in weights]
    assert levels.on == tuple(i for i, x in enumerate(by_inner) if x == 1)
    assert levels.above == tuple(i for i, x in enumerate(by_inner) if x > 1)
    root_sides = [space.inner(l, alpha) for alpha in roots]
    assert levels.roots_negative == tuple(j for j, x in enumerate(root_sides) if x < 0)
    assert levels.roots_zero == tuple(j for j, x in enumerate(root_sides) if x == 0)
    assert levels.roots_positive == tuple(j for j, x in enumerate(root_sides) if x > 0)
    assert levels.mult_below == sum(m for (_, m), x in zip(weights, by_inner) if x < 1)
    assert levels.mult_at_least == sum(m for (_, m), x in zip(weights, by_inner) if x >= 1)
    # the equality mode stops exactly when the bound cannot be an equality
    stopped = lattice.levels(*integer_point(l), equality=True)
    assert stopped == (None if levels.mult_below > len(levels.roots_negative) else levels)


@settings(max_examples=150, deadline=None)
@given(lattice_inputs())
def test_foot_matches_perp(data):
    space, roots, weights, _ = data
    lattice = integer_lattice(space, roots, weights)
    for subset, (point, den) in lattice.subset_feet(space.rank + 1):
        assert den > 0 and math.gcd(den, *point) == 1
        assert tuple(Q(a, den) for a in point) \
            == perp(space, [weights[i][0] for i in subset])


def _as_ints(v):
    """v as (integer point, den) with v = point / den."""
    den = math.lcm(*(q.denominator for q in v))
    return tuple(int(q * den) for q in v), den


@settings(max_examples=200, deadline=None)
@given(lattice_inputs(), st.data())
def test_hull_matches_in_convex_hull(data, draw):
    space, roots, weights, _ = data
    lattice = integer_lattice(space, roots, weights)
    points = [v for v, _ in weights]
    n = len(points)
    members = sorted(draw.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    member_points = [points[i] for i in members]
    kinds = ["foot", "convex", "free", "centroid", "moved", "scaled", "weighted"]
    kind = draw.draw(st.sampled_from(kinds))
    centroid = tuple(sum(v[i] for v in member_points) / len(members) for i in range(space.rank))
    if kind == "centroid":
        # inside with no LP, each member counted once whatever its multiplicity
        p = centroid
    elif kind == "moved":
        # off the centroid in one coordinate: the LP decides
        i = draw.draw(st.integers(0, space.rank - 1))
        p = centroid[:i] + (centroid[i] + Q(1, 11),) + centroid[i + 1:]
    elif kind == "scaled":
        # what a centroid test that lost the weights' denominator accepts
        p = vscale(Q(lattice.weight_den), centroid)
    elif kind == "weighted":
        # what a centroid test that summed by multiplicity accepts
        p = tuple(sum(weights[j][1] * points[j][i] for j in members) / len(members)
                  for i in range(space.rank))
    elif kind == "foot":
        # the foot of some weights: inside, on the boundary or outside
        p = perp(space, [points[i] for i in draw.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4))])
    elif kind == "convex":
        # zero coefficients put the point on a face of the hull
        coeffs = draw.draw(st.lists(st.integers(0, 3), min_size=len(members),
                                    max_size=len(members)).filter(any))
        total = sum(coeffs)
        p = tuple(sum(Q(c, total) * v[i] for c, v in zip(coeffs, member_points))
                  for i in range(space.rank))
    else:
        p = draw.draw(st.tuples(*[rationals] * space.rank))
    point, den = _as_ints(p)
    assert lattice.hull_contains(point, den, members) \
        == in_convex_hull(space, p, member_points)


def _affinely_independent(points):
    """Brute force: the differences to the first point have full row rank."""
    rows = [[a - b for a, b in zip(q, points[0])] for q in points[1:]]
    for k, row in enumerate(rows):
        piv = next((i for i, a in enumerate(row) if a), None)
        if piv is None:
            return False
        for other in rows[k + 1:]:
            f = other[piv] / row[piv]
            other[:] = [a - f * b for a, b in zip(other, row)]
    return True


def _independent_subsets(points, max_size):
    """Brute force: every affinely independent subset of at most
    `max_size` points, in lexicographic order."""
    return sorted(subset for k in range(1, max_size + 1)
                  for subset in itertools.combinations(range(len(points)), k)
                  if _affinely_independent([points[i] for i in subset]))


def _flat(points, subset):
    """The indices of the points in the affine hull of an independent subset."""
    return frozenset(i for i, q in enumerate(points)
                     if i in subset or not _affinely_independent(
                         [points[j] for j in subset] + [q]))


@settings(max_examples=150, deadline=None)
@given(lattice_inputs())
def test_subsets_same_on_ints_and_fractions(data):
    space, roots, weights, _ = data
    lattice = integer_lattice(space, roots, weights)
    points = [v for v, _ in weights]
    for size in range(1, space.rank + 2):
        found = [subset for subset, _ in lattice.subset_feet(size)]
        independent = _independent_subsets(points, size)
        # depth-first with increasing indices is lexicographic order
        assert found == sorted(set(found)) and set(found) <= set(independent)
        # every flat of weights is spanned by a subset found, so every foot
        assert {_flat(points, s) for s in found} == {_flat(points, s) for s in independent}
        assert {perp(space, [points[i] for i in s]) for s in found} \
            == {perp(space, [points[i] for i in s]) for s in independent}


def _with_restrictions(problem, cands):
    """`problem` and the restriction at every signed-tree node below
    `cands`: a node's children are the equality set of its restriction."""
    yield problem
    for cand in cands:
        sub = restrict(problem, cand)
        yield from _with_restrictions(sub, equality_set(sub))


def _rank(vectors):
    """The rank of a list of vectors, by Fraction elimination."""
    rows = [list(map(Q, v)) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def _has_centre(problem):
    """Whether the roots span less than the whole space."""
    return _rank(problem.roots) < problem.rank


def _check_prune(problem):
    """`subset_feet` with `dedup` keeps every nonzero chamber foot, and
    without it yields every foot the brute force gives."""
    lattice, size = problem.lattice, problem.effective_rank
    if size < 1:
        return None  # not enumerated
    points = [v for v, _ in problem.weights]
    feet = {dedup: {foot for _, foot in lattice.subset_feet(size, dedup)}
            for dedup in (False, True)}
    chamber = [{f for f in feet[dedup] if any(f[0]) and lattice.in_chamber(f[0])}
               for dedup in (False, True)]
    assert chamber[0] == chamber[1]
    assert {tuple(Q(a, den) for a in point) for point, den in feet[False]} \
        == {perp(problem.space, [points[i] for i in s])
            for s in _independent_subsets(points, size)}
    return _has_centre(problem)


def _random_problems(seed, centre):
    """`random_problem(seed)`, plus a torus summand when `centre` is given:
    the summand gives the roots a centre that the weights reach."""
    problem = random_problem(random.Random(seed), max_distinct=8)
    if centre is not None:
        problem = direct_sum(problem, random_torus_problem(random.Random(centre), 1))
    return validate(problem)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.one_of(st.none(), st.integers(0, 10 ** 6)))
def test_prune_keeps_the_chamber_feet_random(seed, centre):
    problem = _random_problems(seed, centre)
    met = [_check_prune(sub)
           for sub in _with_restrictions(problem, enumerate_candidates(problem))]
    # the roots have a centre exactly when a torus is summed in or they are
    # absent; a tree lattice's roots are orthogonal to its l, so it has one
    assert met[0] == (centre is not None or not problem.roots)
    assert set(met[1:]) <= {None, True}


def test_prune_keeps_the_chamber_feet_catalog():
    met = set()
    for spec in CATALOG_SPECS:
        problem = validate(parse_catalog_spec(spec))
        for sub in _with_restrictions(problem, enumerate_candidates(problem)):
            met.add(_check_prune(sub))
    assert {False, True} <= met


def _positive(v):
    return next((a > 0 for a in v if a), False)


def _simple_roots(lattice):
    """The lexicographically positive roots that are not a sum of two."""
    positive = [alpha for alpha in lattice.roots if _positive(alpha)]
    sums = {tuple(map(add, a, b)) for a, b in itertools.combinations(positive, 2)}
    return [alpha for alpha in positive if alpha not in sums]


def _coefficients(simple, point):
    """The x with sum_j x_j simple_j = point, in Fractions, or None."""
    k = len(simple)
    rows = [[Q(alpha[i]) for alpha in simple] + [Q(x)] for i, x in enumerate(point)]
    x, used = [Q(0)] * k, set()
    for col in range(k):
        p = next((i for i, r in enumerate(rows) if r[col] and i not in used), None)
        if p is not None:
            used.add(p)
            for i, r in enumerate(rows):
                if i != p and r[col]:
                    f = r[col] / rows[p][col]
                    r[:] = [a - f * b for a, b in zip(r, rows[p])]
    if any(r[-1] for r in rows if not any(r[:-1])):
        return None  # outside the span of the roots
    for p in used:
        col = next(c for c in range(k) if rows[p][c])
        x[col] = rows[p][-1] / rows[p][col]
    return x


def _check_cone(lattice, draw):
    """`in_positive_cone` against Fraction coefficients on the simple roots,
    on the positive roots, nonnegative and mixed combinations of the simple
    roots, the zero vector and points off the span of the roots."""
    rank = len(lattice.gram)
    simple = _simple_roots(lattice)
    assert _rank(simple) == len(simple) == _rank(lattice.roots)
    zero = (0,) * rank
    assert lattice.in_positive_cone(zero)
    for alpha in lattice.roots:
        if _positive(alpha):
            assert lattice.in_positive_cone(alpha)
            assert sum(map(mul, lattice.height, alpha)) > 0
    # a unit vector off the span of the roots, if the roots have a centre
    off = next((v for v in (tuple(int(i == j) for j in range(rank)) for i in range(rank))
                if _rank(simple + [v]) > len(simple)), None)
    for _ in range(6):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=len(simple),
                               max_size=len(simple)))
        if simple and draw(st.booleans()):
            coeffs[draw(st.integers(0, len(simple) - 1))] = -draw(st.integers(1, 3))
        point = [sum(c * alpha[i] for c, alpha in zip(coeffs, simple)) for i in range(rank)]
        if off is not None and draw(st.booleans()):
            point = [a + draw(st.sampled_from([-2, -1, 1, 2])) * b for a, b in zip(point, off)]
        expected = _coefficients(simple, point)
        assert (expected is not None and min(expected, default=0) >= 0) \
            == lattice.in_positive_cone(tuple(point))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.one_of(st.none(), st.integers(0, 10 ** 6)), st.data())
def test_positive_cone_random(seed, centre, data):
    problem = _random_problems(seed, centre)
    for sub in _with_restrictions(problem, enumerate_candidates(problem)):
        _check_cone(sub.lattice, data.draw)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_positive_cone_catalog(data):
    for spec in CATALOG_SPECS + ("adjoint:a4", "adjoint:d4", "adjoint:f4"):
        _check_cone(validate(parse_catalog_spec(spec)).lattice, data.draw)


def test_positive_cone_on_the_simple_root_basis():
    """In the catalog's adjoint types the basis is the simple roots, so the
    cone is the nonnegative orthant; so it is for b2 with its long roots
    tripled, where the short root a1 + a2 is no longer a sum of two roots."""
    box = list(itertools.product(range(-1, 2), repeat=2))
    space, roots = root_system("b2")
    long_tripled = [vscale(Q(3 if space.norm_sq(a) == 2 else 1), a) for a in roots]
    for found in (roots, long_tripled):
        problem = validate(Problem(space, tuple(found), tuple((a, 1) for a in found)))
        assert [problem.lattice.in_positive_cone(p) for p in box] \
            == [min(p) >= 0 for p in box]
    for type_name in ("a3", "c3", "f4"):
        lattice = validate(parse_catalog_spec(f"adjoint:{type_name}")).lattice
        for p in itertools.product(range(-1, 2), repeat=len(lattice.gram)):
            assert lattice.in_positive_cone(p) == (min(p) >= 0)


def test_nonpositive_cone_pivot_raises():
    """A form that is not positive definite makes a pivot nonpositive."""
    lattice = IntegerLattice(gram=((-1,),), gram_den=1, weights=((1,),), weight_den=1,
                             mults=(1,), roots=((-1,), (1,)), root_den=1)
    with pytest.raises(InvariantError, match="singular Gram matrix of the simple roots"):
        lattice.in_positive_cone((-1,))


def _fraction_orbit(space, roots, v, cap):
    """The orbit BFS on Fractions, with `reflect` in every root."""
    seen = {v}
    frontier = [v]
    while frontier:
        new = []
        for x in frontier:
            for alpha in roots:
                y = reflect(space, alpha, x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ResourceError(f"orbit size exceeds orbit_cap={cap}")
                    new.append(y)
        frontier = new
    return tuple(sorted(seen))


def _same_orbit(space, roots, v, cap):
    try:
        expected = _fraction_orbit(space, roots, v, cap)
    except ResourceError:
        with pytest.raises(ResourceError):
            orbit_closure(space, roots, v, cap)
        return None
    assert orbit_closure(space, roots, v, cap) == expected
    return expected


@st.composite
def scaled_catalog_roots(draw):
    """Some roots of a Cartan type, each times a nonzero rational, and a
    point: a finite reflection group from roots with repeated lines that are
    not closed under negation."""
    space, roots = root_system(draw(st.sampled_from(["a2", "b2", "g2", "a3"])))
    chosen = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=4))
    scaled = [vscale(draw(rationals.filter(bool)), alpha) for alpha in chosen]
    return space, scaled, tuple(draw(rationals) for _ in range(space.rank))


@settings(max_examples=100, deadline=None)
@given(scaled_catalog_roots())
def test_orbit_matches_fraction_bfs_finite_reflection_groups(data):
    space, roots, v = data
    orbit = _same_orbit(space, roots, v, 100)
    assert orbit is not None and v in orbit
    # the cap binds exactly when the orbit is larger than it
    _same_orbit(space, roots, v, len(orbit))
    if len(orbit) > 1:
        _same_orbit(space, roots, v, len(orbit) - 1)


@settings(max_examples=100, deadline=None)
@given(lattice_inputs())
def test_orbit_matches_fraction_bfs_reflections(data):
    # reflections in arbitrary vectors often generate an infinite group,
    # so the cap is reached on both sides
    space, roots, weights, l = data
    roots = [r for r in roots if not is_zero_vec(r)]
    _same_orbit(space, roots, l, 40)
    _same_orbit(space, roots, weights[0][0], 40)
    with pytest.raises(InputError):
        orbit_closure(space, roots + [zero_vec(space.rank)], l, 40)


def _distinct_nonzero_l(problem):
    """Distinct l over the enumerated subsets, from `ratgeom.perp` alone."""
    space = problem.space
    points = [v for v, _ in problem.weights]
    out = set()
    for subset, _ in problem.lattice.subset_feet(problem.effective_rank):
        foot = perp(space, [points[i] for i in subset])
        if not is_zero_vec(foot):
            out.add(vscale(1 / space.norm_sq(foot), foot))
    return out


def test_memo_runs_hull_once_per_l(monkeypatch):
    for spec in ("sl3-forms:4", "g2-adjoint"):
        problem = validate(parse_catalog_spec(spec))
        unmemoized: dict = {}
        for _, foot in problem.lattice.subset_feet(problem.effective_rank):
            cand = candidate_from_subset(problem, foot)
            if cand is not None:
                unmemoized.setdefault(cand.l, cand)
        calls = []
        original = IntegerLattice.hull_contains

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(IntegerLattice, "hull_contains", counting)
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

    monkeypatch.setattr(IntegerLattice, "levels", unavailable)
    monkeypatch.setattr(IntegerLattice, "subset_feet", unavailable)
    monkeypatch.setattr(IntegerLattice, "direction", unavailable)
    monkeypatch.setattr(IntegerLattice, "hull_contains", unavailable)
    assert all(verify_candidate(problem, cand) == [] for cand in found)
    assert set(naive_candidates(problem, dedup=False)) == {c.l for c in found}
