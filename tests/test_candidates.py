import dataclasses
import math
import random
import pytest
from fractions import Fraction as Q
from pathlib import Path

from nullcone import candidates, engine, rootdata
from nullcone.candidates import (
    candidate_from_subset,
    check_foot,
    enumerate_candidates,
    verify_candidate,
)
from nullcone.cli import load_problem
from nullcone.engine import stratify
from nullcone.oracle import random_problem
from nullcone.ratgeom import (
    GramSpace,
    InputError,
    InvariantError,
    integer_point,
    is_zero_vec,
    make_space,
    parse_vector,
    perp,
    vscale,
)
from nullcone.rootdata import (
    IntegerLattice,
    Problem,
    ValidatedProblem,
    catalog,
    integer_lattice,
    parse_catalog_spec,
    validate,
)

from conftest import CATALOG_SPECS

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"


def _torus(gram, weights):
    return validate(Problem.of(make_space(gram), [], [(v, 1) for v in weights]))


def _levels(problem, l):
    return problem.lattice.levels(*integer_point(parse_vector(l)))


def _from_subset(problem, subset):
    """`candidate_from_subset` on the foot of `subset` by `perp`, which
    `subset_feet` yields for some subset of the same size limit."""
    foot = integer_point(perp(problem.space, [problem.weights[i][0] for i in subset]))
    assert foot in {f for _, f in problem.lattice.subset_feet(len(subset))}
    return candidate_from_subset(problem, foot)


class TestCountBound:
    def test_no_roots(self):
        problem = _torus([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        levels = _levels(problem, [1, 0])
        assert levels.roots_negative == ()
        assert levels.holds

    def test_adjoint_a1_half_alpha(self):
        problem = validate(catalog("adjoint", ["a1"]))
        levels = _levels(problem, ["1/2"])
        assert levels.roots_negative == (0,)  # just -alpha
        assert levels.mult_below == 2  # 0 and -alpha
        assert levels.holds and not levels.is_equality


def test_levels_length_checked():
    problem = _torus([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(InputError, match=r"vector \[3\] has length 1, expected 2$"):
        problem.lattice.levels((3,), 2)


def test_saturate_picks_whole_hyperplane():
    problem = validate(catalog("gl2-ex3", [2, 1]))
    # weights sorted: (0,1), (1,0), (1,1); the first two lie on {l = 1}
    assert _levels(problem, ["1/3", "1/3"]).on == (0, 1)
    assert _levels(problem, ["1/6", "1/6"]).on == (2,)


class TestCandidateFromSubset:
    def test_adjoint_a1(self):
        problem = validate(catalog("adjoint", ["a1"]))
        # weights sorted: (-1,), (0,), (1,)
        cand = _from_subset(problem, (2,))
        assert cand is not None
        assert cand.l == parse_vector(["1/2"])
        assert cand.levels.on == (2,)
        assert cand.foot == ((1,), 1)
        assert cand.levels.mult_at_least == 1

    def test_zero_perp_rejected(self):
        problem = validate(catalog("adjoint", ["a1"]))
        assert _from_subset(problem, (1,)) is None  # the zero weight
        assert _from_subset(problem, (0, 2)) is None  # spans the line

    def test_subset_grows_to_saturation(self):
        problem = _torus([[1, 0], [0, 1]], [[1, 0], [1, 1]])
        cand = _from_subset(problem, (0,))
        assert cand is not None
        assert cand.l == parse_vector([1, 0])
        assert cand.levels.on == (0, 1)  # (1,1) joins on {l = 1}
        assert cand.levels.on == _levels(problem, cand.l).on
        # the saturated pair gives the same candidate, deduped downstream
        again = _from_subset(problem, (0, 1))
        assert again == cand

    def test_hull_rejected(self):
        problem = _torus([[1, 0], [0, 1]], [[1, 1], [1, 2]])
        # both weights sit on {x = 1} so saturation holds, but the foot
        # (1, 0) misses the segment between them
        assert _from_subset(problem, (0, 1)) is None

    def test_count_bound_rejected(self):
        # reflection symmetry makes the bound hold on any problem `validate` accepts,
        # so the rejection branch only ever fires inside restrictions; build
        # one of those by hand
        space = make_space([[1]])
        sub = ValidatedProblem(space, integer_lattice(
            space, [parse_vector([-2]), parse_vector([2])], [(parse_vector([1]), 1)]))
        levels = _levels(sub, [1])
        assert levels.roots_negative == (0,) and levels.mult_below == 0
        assert not levels.holds
        assert _from_subset(sub, (0,)) is None


class TestEnumerate:
    def test_adjoint_a1_dedup(self):
        problem = validate(catalog("adjoint", ["a1"]))
        kept = enumerate_candidates(problem)
        assert [c.l for c in kept] == [parse_vector(["-1/2"])]
        raw = enumerate_candidates(problem, dedup=False)
        assert sorted(c.l for c in raw) == [parse_vector(["-1/2"]),
                                            parse_vector(["1/2"])]

    def test_representatives_are_orbit_minima(self):
        problem = validate(catalog("adjoint", ["a2"]))
        kept = enumerate_candidates(problem)
        raw = enumerate_candidates(problem, dedup=False)
        assert len(kept) == 4
        kept_set = {c.l for c in kept}
        for cand in raw:
            orbit = problem.orbit(cand.l)
            assert min(orbit) in kept_set

    def test_torus_never_deduped(self):
        problem = _torus([[1, 0], [0, 1]], [[1, 0], [0, 1], [1, 1]])
        assert len(enumerate_candidates(problem)) == 4
        assert len(enumerate_candidates(problem, dedup=False)) == 4

    def test_deterministic(self):
        problem = validate(parse_catalog_spec("sl3-forms:3"))
        first = enumerate_candidates(problem)
        second = enumerate_candidates(problem)
        assert [c.l for c in first] == [c.l for c in second]
        assert [c.levels.on for c in first] == [c.levels.on for c in second]


class TestVerifyCandidate:
    def test_all_enumerated_pass(self):
        for spec in ("adjoint:a2", "gl2-ex3:2,-1", "sl2-forms:2,3",
                     "torus:1,0|0,1|1,1"):
            problem = validate(parse_catalog_spec(spec))
            for cand in enumerate_candidates(problem):
                assert verify_candidate(problem, cand) == []

    def test_tampered_candidate_caught(self):
        problem = validate(catalog("adjoint", ["a2"]))
        cand = enumerate_candidates(problem)[0]
        wrong = dataclasses.replace(cand, l=tuple(2 * x for x in cand.l))
        assert verify_candidate(problem, wrong)


class TestCheckFoot:
    def test_enumerated_feet_pass(self):
        # every candidate, and every equality candidate of each tree node,
        # carries its foot in lowest terms with den > 0: `check_foot`
        # compares it with `perp` as integers
        def check(problem, found):
            for cand in found:
                point, den = cand.foot
                assert den > 0 and math.gcd(den, *point) == 1
                check_foot(problem, cand)
                depths.append(len(problem.constraints))
                sub = engine.restrict(problem, cand)
                check(sub, engine.equality_set(sub))

        depths = []
        for spec in ("adjoint:a2", "gl2-ex3:2,-1", "sl2-forms:2,3",
                     "torus:1,0|0,1|1,1"):
            problem = validate(parse_catalog_spec(spec))
            check(problem, enumerate_candidates(problem, dedup=False))
        assert any(depths)  # some tree node has equality candidates

    def test_moved_foot_raises(self):
        problem = validate(catalog("adjoint", ["a2"]))
        cand = enumerate_candidates(problem)[0]
        wrong = dataclasses.replace(
            cand, foot=(tuple(2 * x for x in cand.foot[0]), cand.foot[1]))
        with pytest.raises(InvariantError, match="not perp of the members"):
            check_foot(problem, wrong)


def test_equality_exit_is_exact(monkeypatch):
    """At every tree node, the level pass that stops at the first weight
    taking the multiplicity below level 1 past the count of negative roots
    accepts a foot exactly when the full pass of its l finds an equality and
    the hull LP holds, with the same levels."""
    original = candidates.candidate_from_subset
    decided = []

    def recording(problem, foot, equality=False):
        cand = original(problem, foot, equality)
        if equality:
            decided.append((problem.lattice, foot, cand))
        return cand

    monkeypatch.setattr(candidates, "candidate_from_subset", recording)
    problems = [load_problem(str(BENCH_PROBLEMS / name))
                for name in ("qubits3.json", "qubits4.json")]
    problems += [parse_catalog_spec("adjoint:d4")]
    problems += [random_problem(random.Random(i)) for i in range(40)]
    for problem in problems:
        stratify(problem)
    accepted = 0
    for lattice, (point, den), cand in decided:
        levels = any(point) and lattice.levels(*lattice.direction(point, den))
        if levels and levels.is_equality and lattice.hull_contains(point, den, levels.on):
            assert cand is not None and cand.levels == levels
            accepted += 1
        else:
            assert cand is None
    assert accepted >= 100 and len(decided) - accepted >= 200


def test_subset_foot_is_member_foot():
    """The lemma in the module docstring, on the Fraction reference path:
    wherever the counting bound holds, the foot of the saturated set is the
    foot of the subset that generated l, so enumeration need not check it."""
    problems = [validate(parse_catalog_spec(spec)) for spec in CATALOG_SPECS]
    problems += [validate(random_problem(random.Random(i))) for i in range(20)]
    checked = 0
    for problem in problems:
        space = problem.space
        points = [v for v, _ in problem.weights]
        seen = set()
        for subset, _ in problem.lattice.subset_feet(problem.effective_rank):
            foot = perp(space, [points[i] for i in subset])
            if is_zero_vec(foot) or foot in seen:
                continue
            seen.add(foot)
            l = vscale(1 / space.norm_sq(foot), foot)
            heights = [space.inner(l, v) for v in points]
            negative = sum(1 for alpha in problem.roots if space.inner(l, alpha) < 0)
            below = sum(m for (_, m), h in zip(problem.weights, heights) if h < 1)
            if negative > below:
                continue
            members = [v for v, h in zip(points, heights) if h == 1]
            assert perp(space, members) == foot
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("source, counts", [
    ("qubits3.json", (35, 9, 8, 8)),
    ("qubits4.json", (464, 35, 34, 34)),
    ("sl3-forms:6", (100, 33, 32, 32)),
    ("adjoint:a4", (283, 28, 27, 27)),
    ("adjoint:f4", (5163, 43, 42, 42)),
])
def test_root_level_work_counts(monkeypatch, source, counts):
    """The root-level enumeration's work, as (subsets tried, distinct feet
    in the chamber, accepted distinct l, kept after dedup).  The counts are
    exact, so they gate a change to the subset scan without timing noise: a
    scan that visits fewer subsets may move the first column only."""
    path = BENCH_PROBLEMS / source
    problem = validate(load_problem(str(path) if path.exists() else source))
    subsets, feet, accepted = [], [], []
    subset_feet = IntegerLattice.subset_feet
    original = candidates.candidate_from_subset

    def listing(lattice, max_size, dedup=False):
        for item in subset_feet(lattice, max_size, dedup):
            subsets.append(item)
            yield item

    def counting(problem, foot, *args):
        feet.append(foot)
        cand = original(problem, foot, *args)
        if cand is not None:
            accepted.append(cand.l)
        return cand

    monkeypatch.setattr(IntegerLattice, "subset_feet", listing)
    monkeypatch.setattr(candidates, "candidate_from_subset", counting)
    kept = candidates.enumerate_candidates(problem)
    assert len(set(feet)) == len(feet) and len(set(accepted)) == len(accepted)
    # only the chamber feet reach the level pass and the hull LP
    assert set(feet) == {foot for _, foot in subsets
                         if problem.lattice.in_chamber(foot[0])}
    assert (len(subsets), len(feet), len(accepted), len(kept)) == counts


@pytest.mark.parametrize("source, counts", [
    ("qubits3.json", (11, 11, 0, 11, 9, 0, 0, 6, 21)),
    ("qubits4.json", (38, 28, 0, 38, 82, 0, 0, 14, 186)),
    ("sl3-forms:6", (33, 11, 0, 33, 0, 0, 0, 2, 3)),
    ("adjoint:d4", (61, 42, 0, 73, 124, 0, 0, 43, 367)),
])
def test_tree_level_work_counts(monkeypatch, source, counts):
    """One `stratify`'s (hull tests, hull tests whose foot is the members'
    centroid, Weyl orbits, full level passes, level passes stopped early,
    lattices built by `integer_lattice`, `GramSpace.inner` calls outside
    `check_foot`, restrictions built, `subset_feet` nodes at tree nodes).
    The hull LP runs only on feet in the anti-dominant chamber, at the root
    and at every tree node, so dedup needs no orbit: these stay far below
    the (40, 11), (360, 38) and (176, 33) of grouping each node's equality
    candidates into orbits.  A restriction reuses its candidate's levels and
    integer foot, so the next three stay below the (31, 6, 14),
    (190, 18, 42) and (75, 6, 34) of restricting along l in Fractions and
    clearing the denominators again.  The centroid settles a hull test
    without the simplex, so only the rest run it (0, 10, 22 and 19).
    `build_tree` builds no restriction whose floor on the multiplicity below
    level 1 rules an equality out, so of the (11, 38, 33, 61) tree nodes only
    the restrictions counted here are built and enumerated: the level passes
    and the tree-level nodes stay below the (152, 422) and (42, 23) of
    enumerating every rooted node on qubits4 and sl3-forms:6.
    At a tree node the level pass of a foot stops at the first weight that
    takes the multiplicity below level 1 past the count of negative roots,
    so only a foot that can be an equality gets a full pass: the full and
    stopped passes add up to the (20, 120, 33, 197) full passes made when
    every foot was sorted to the end.
    Tree nodes keep no state between branches: on adjoint:d4 several nodes
    restrict to the same lattice, and each of them is enumerated afresh."""
    path = BENCH_PROBLEMS / source
    problem = validate(load_problem(str(path) if path.exists() else source))
    calls = dict.fromkeys(["hull", "centroid", "orbit", "full", "stopped", "lattice", "inner",
                           "restrict", "nodes"], 0)
    checking = []
    subset_feet = IntegerLattice.subset_feet

    def tree_nodes(lattice, max_size, dedup=False):
        for item in subset_feet(lattice, max_size, dedup):
            calls["nodes"] += lattice is not problem.lattice
            yield item

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += not checking
            return fn(*args)
        return wrapper

    hull = IntegerLattice.hull_contains

    def hull_tests(lattice, point, den, members):
        # the members' centroid in Fractions, each member once
        centroid = [Q(sum(col), lattice.weight_den * len(members))
                    for col in zip(*(lattice.weights[j] for j in members))]
        calls["hull"] += 1
        calls["centroid"] += centroid == [Q(a, den) for a in point]
        return hull(lattice, point, den, members)

    level_pass = IntegerLattice.levels

    def passes(*args):
        levels = level_pass(*args)
        calls["full" if levels is not None else "stopped"] += 1
        return levels

    check = engine.check_foot

    def check_foot(*args):
        # its Fraction `perp` is the kernel's independent check
        checking.append(True)
        try:
            return check(*args)
        finally:
            checking.pop()

    monkeypatch.setattr(IntegerLattice, "hull_contains", hull_tests)
    monkeypatch.setattr(IntegerLattice, "restrict",
                        counted("restrict", IntegerLattice.restrict))
    monkeypatch.setattr(rootdata, "orbit_closure",
                        counted("orbit", rootdata.orbit_closure))
    monkeypatch.setattr(IntegerLattice, "levels", passes)
    monkeypatch.setattr(rootdata, "integer_lattice",
                        counted("lattice", rootdata.integer_lattice))
    monkeypatch.setattr(GramSpace, "inner", counted("inner", GramSpace.inner))
    monkeypatch.setattr(IntegerLattice, "subset_feet", tree_nodes)
    monkeypatch.setattr(engine, "check_foot", check_foot)
    stratify(problem)
    assert tuple(calls.values()) == counts
