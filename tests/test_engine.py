import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from fractions import Fraction as Q
from hypothesis import given, settings, strategies as st

from nullcone import engine
from nullcone.candidates import Candidate, enumerate_candidates
from nullcone.cli import load_problem
from nullcone.engine import (
    SignedTree,
    build_tree,
    equality_set,
    restrict,
    stratify,
    stratum_report,
)
from nullcone.oracle import compare_with_naive, random_problem, random_torus_problem
from nullcone.ratgeom import (
    InputError,
    InvariantError,
    integer_point,
    make_space,
    parse_vector,
    vscale,
    vsub,
)
from nullcone.rootdata import (
    IntegerLattice,
    Problem,
    catalog,
    direct_sum,
    integer_lattice,
    parse_catalog_spec,
    validate,
)

from conftest import CATALOG_SPECS


def _candidate(problem, l):
    """The candidate of `problem` with direction l, orbit mates included."""
    (cand,) = [c for c in enumerate_candidates(problem, dedup=False)
               if c.l == parse_vector(l)]
    return cand


def _levels(problem, l):
    """The levels of `problem` against a direction l, given as a list."""
    return problem.lattice.levels(*integer_point(parse_vector(list(l))))


def _sub(spec, l):
    problem = validate(parse_catalog_spec(spec))
    return restrict(problem, _candidate(problem, l))


class TestRestrict:
    def test_gl2_along_diagonal(self):
        sub = _sub("gl2-ex3:2,1", ["1/3", "1/3"])
        assert sub.roots == (parse_vector([-1, 1]), parse_vector([1, -1]))
        assert sub.weights == (
            (parse_vector(["-1/2", "1/2"]), 1),
            (parse_vector(["1/2", "-1/2"]), 1),
        )
        assert sub.constraints == ((1, 1),)
        assert sub.effective_rank == 1

    def test_g2_fourth_line(self):
        sub = _sub("g2-adjoint", [1, "2/3"])
        assert sub.roots == (parse_vector([-1, 0]), parse_vector([1, 0]))
        assert [v for v, _ in sub.weights] == [
            parse_vector(["-3/2", 0]),
            parse_vector(["-1/2", 0]),
            parse_vector(["1/2", 0]),
            parse_vector(["3/2", 0]),
        ]
        assert all(m == 1 for _, m in sub.weights)

    def test_projection_is_translation_on_slice(self):
        # on the level-1 slice the projection onto {l = 0} subtracts the foot
        # l/|l|^2, so the restricted weights stay distinct and sorted; checked
        # against the projection formula at every tree node
        nodes = 0
        for problem, cand, sub in _tree_nodes():
            space, l = problem.space, cand.l
            projected = [
                (tuple(a - space.inner(l, v) / space.norm_sq(l) * b
                       for a, b in zip(v, l)), mult)
                for v, mult in problem.weights if space.inner(l, v) == 1]
            assert list(sub.weights) == projected
            points = [v for v, _ in sub.weights]
            assert points == sorted(set(points))
            nodes += 1
        assert nodes > len(CATALOG_SPECS) + 20

    def test_lattice_is_the_fraction_restriction(self):
        # the reference is the Fraction definition of a restriction: the
        # roots orthogonal to l, and the level-1 weights minus the foot
        # l/|l|^2, with the denominators cleared afterwards
        nodes = dropped = 0
        for problem, cand, sub in _tree_nodes():
            space, l = problem.space, cand.l
            dropped += sub.lattice.root_den < problem.lattice.root_den
            foot = vscale(1 / space.norm_sq(l), l)
            roots = tuple(a for a in problem.roots if space.inner(l, a) == 0)
            weights = tuple((vsub(v, foot), m) for v, m in problem.weights
                            if space.inner(l, v) == 1)
            assert sub.lattice == integer_lattice(space, roots, weights)
            assert (sub.roots, sub.weights) == (roots, weights)
            assert tuple(Q(a, cand.foot[1]) for a in cand.foot[0]) == foot
            assert sub.constraints == problem.constraints + (cand.foot[0],)
            nodes += 1
        assert nodes > len(CATALOG_SPECS) + 20 and dropped

    def test_zero_vector_rejected(self):
        problem = validate(catalog("adjoint", ["a1"]))
        zero = parse_vector([0])
        with pytest.raises(InputError):
            restrict(problem, Candidate(zero, ((0,), 1), _levels(problem, zero)))

    def test_non_orthogonal_vector_raises(self):
        problem = validate(parse_catalog_spec("gl2-ex3:2,1"))
        sub = restrict(problem, _candidate(problem, ["1/3", "1/3"]))
        with pytest.raises(InvariantError, match="not orthogonal"):
            restrict(sub, _candidate(problem, [0, "1/2"]))

    def test_effective_rank_zero_raises(self):
        # two constraints in rank 2 leave nothing to restrict
        problem = validate(parse_catalog_spec("gl2-ex3:2,1"))
        c = parse_vector([1, -1])
        sub = dataclasses.replace(problem, constraints=(c, c))
        assert sub.effective_rank == 0
        with pytest.raises(InvariantError, match="effective rank 0"):
            restrict(sub, _candidate(problem, ["1/3", "1/3"]))

    def test_childless_nodes_keep_the_checks(self):
        # a node the floor proves childless builds no restriction, but
        # `build_tree` still makes every check of `restrict` there
        torus = validate(parse_catalog_spec("torus:1,0|0,1|1,1"))
        leaf = _candidate(torus, ["1/2", "1/2"])
        assert not torus.lattice.may_have_children(leaf.foot, leaf.levels)
        zero = parse_vector([0, 0])
        with pytest.raises(InputError, match="zero vector"):
            build_tree(torus, Candidate(zero, ((0, 0), 1), _levels(torus, zero)))
        c, d = parse_vector([1, 0]), parse_vector([1, -1])
        with pytest.raises(InvariantError, match="not orthogonal"):
            build_tree(dataclasses.replace(torus, constraints=(c,)), leaf)
        with pytest.raises(InvariantError, match="effective rank 0"):
            build_tree(dataclasses.replace(torus, constraints=(d, d)), leaf)

    def test_invariants_hold_under_optimize(self):
        # `python -O` strips asserts; the restriction and tree checks must
        # survive it.  Listing each equality candidate twice gives a node two
        # plus children.
        script = textwrap.dedent("""
            from nullcone import engine
            from nullcone.candidates import enumerate_candidates
            from nullcone.ratgeom import InvariantError, parse_vector
            from nullcone.rootdata import parse_catalog_spec, validate
            assert False, "asserts are live"
            problem = validate(parse_catalog_spec("gl2-ex3:2,1"))
            found = {c.l: c for c in enumerate_candidates(problem, dedup=False)}
            cand = found[parse_vector(["1/3", "1/3"])]
            sub = engine.restrict(problem, cand)
            try:
                engine.restrict(sub, found[parse_vector([0, "1/2"])])
            except InvariantError:
                print("raised")
            equality_set = engine.equality_set
            engine.equality_set = lambda sub: equality_set(sub) * 2
            try:
                engine.build_tree(problem, cand)
            except InvariantError as exc:
                print("raised:", "plus children" in str(exc))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == ["raised", "raised: True", ""]

    def test_orthogonality_to_constraints(self):
        sub = _sub("gl2-ex3:2,1", ["1/3", "1/3"])
        space = sub.space
        l = sub.constraints[0]
        for alpha in sub.roots:
            assert space.inner(l, alpha) == 0
        for v, _ in sub.weights:
            assert space.inner(l, v) == 0


class TestEqualitySet:
    def test_gl2_sub(self):
        sub = _sub("gl2-ex3:2,1", ["1/3", "1/3"])
        assert [c.l for c in equality_set(sub)] == [parse_vector([-1, 1])]

    def test_rootless_restriction_not_enumerated(self, monkeypatch):
        # `build_tree` decides a rootless node from the parent's data: it
        # builds no restriction and enumerates nothing
        problem = validate(parse_catalog_spec("torus:1,0|0,1|1,1"))
        cand = _candidate(problem, ["1/2", "1/2"])
        assert restrict(problem, cand).roots == ()

        def unreachable(*args, **kwargs):
            raise AssertionError("a rootless restriction was built or enumerated")

        for name in ("restrict", "equality_set", "enumerate_candidates"):
            monkeypatch.setattr(engine, name, unreachable)
        assert build_tree(problem, cand) == SignedTree(cand.l, (), True)


def _floor(sub):
    """The floor on the multiplicity below level 1, on the Fraction weights
    of a restriction: the zero weight and one weight of each pair {w, -w}
    lie below level 1 against every direction, and at least one weight does."""
    mults = dict(sub.weights)
    zero = (Q(0),) * sub.rank
    pairs = sum(min(m, mults.get(vscale(Q(-1), w), 0)) for w, m in mults.items() if w > zero)
    return max(1, mults.get(zero, 0) + pairs)


def _builds(problem, cand):
    """Whether `build_tree(problem, cand)` builds the restriction along
    `cand` and enumerates its equality set; the recursion is cut there."""
    calls = []
    restricting, enumerating = engine.restrict, engine.equality_set

    def built(*args):
        calls.append("restrict")
        return restricting(*args)

    def childless(sub):
        calls.append("equality_set")
        return ()

    engine.restrict, engine.equality_set = built, childless
    try:
        build_tree(problem, cand)
    finally:
        engine.restrict, engine.equality_set = restricting, enumerating
    assert calls in ([], ["restrict", "equality_set"])
    return bool(calls)


def _floor_nodes(problem):
    """Each tree node below `problem` with its children and whether its
    floor exceeds |R'|/2, once `build_tree` is checked to build the node's
    restriction exactly where the floor does not exceed |R'|/2, and the
    unpruned equality enumeration to be empty where it does.  The floor is
    counted on a restriction built here, not on the parent's data."""
    todo = [(problem, enumerate_candidates(problem))]
    while todo:
        node, cands = todo.pop()
        for cand in cands:
            sub = restrict(node, cand)
            children = equality_set(sub)
            floor = 2 * _floor(sub) > len(sub.roots)
            assert _builds(node, cand) != floor
            if floor:
                assert enumerate_candidates(sub, dedup=False, equality=True) == ()
            yield sub, children, floor
            todo.append((sub, children))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.one_of(st.none(), st.integers(0, 10 ** 6)))
def test_floor_rules_out_equality_random(seed, centre):
    # a torus summand gives the roots a centre that the weights reach
    problem = random_problem(random.Random(seed))
    if centre is not None:
        problem = direct_sum(problem, random_torus_problem(random.Random(centre), 1))
    list(_floor_nodes(validate(problem)))


def test_floor_rules_out_equality_catalog():
    fired = {floor for spec in CATALOG_SPECS
             for _, _, floor in _floor_nodes(validate(parse_catalog_spec(spec)))}
    assert fired == {False, True}


def test_floor_boundary_on_qubits4():
    # 8 weights in 4 pairs against 6 roots: the floor 4 exceeds 3, and none
    # has a child; 2 weights against 2 roots: the floor 1 does not exceed
    # 1, and each has one
    path = Path(__file__).resolve().parents[1] / "bench" / "problems" / "qubits4.json"
    nodes = {}
    for sub, children, floor in _floor_nodes(validate(load_problem(str(path)))):
        key = len(sub.weights), len(sub.roots), _floor(sub), floor
        nodes.setdefault(key, []).append(len(children))
    assert nodes[8, 6, 4, True] == [0] * 4
    assert nodes[2, 2, 1, False] == [1] * 4
    assert sum(len(v) for k, v in nodes.items() if k[-1]) == 24
    assert sum(len(v) for v in nodes.values()) == 38


def _half_root_a1_a1():
    """A1 x A1 with roots ±(1/2, 0) and ±(0, 1): restricting along (±2, 0)
    keeps ±(0, 1) alone, so the roots' common denominator drops to 1."""
    return Problem.of(make_space([[1, 0], [0, 1]]),
                      [["1/2", 0], ["-1/2", 0], [0, 1], [0, -1]],
                      [(["1/2", 0], 1), (["-1/2", 0], 1), ([0, 1], 1), ([0, -1], 1),
                       ([0, 0], 2)])


def _tree_nodes():
    """(problem, candidate, restriction along it) at every signed-tree node
    of the catalog specs, of 20 random problems and of `_half_root_a1_a1`.
    A node's children are the equality set of its restriction, in order."""
    problems = [parse_catalog_spec(spec) for spec in CATALOG_SPECS]
    problems += [random_problem(random.Random(seed)) for seed in range(20)]
    problems.append(_half_root_a1_a1())

    def walk(problem, cand, node):
        sub = restrict(problem, cand)
        yield problem, cand, sub
        children = equality_set(sub)
        assert [c.l for c in children] == [child.l for child in node.children]
        for child_cand, child in zip(children, node.children):
            yield from walk(sub, child_cand, child)

    for problem in problems:
        summary = stratify(problem)
        for decision in summary.decisions:
            yield from walk(summary.problem, decision.candidate, decision.tree)


def _depth(node: SignedTree) -> int:
    return 1 + max((_depth(child) for child in node.children), default=0)


def _tree_node_restrictions():
    """The restriction at every node of `_tree_nodes`."""
    return (sub for _, _, sub in _tree_nodes())


class TestTrees:
    def test_gl2_tree_shape(self):
        problem = validate(parse_catalog_spec("gl2-ex3:2,1"))
        tree = build_tree(problem, _candidate(problem, ["1/3", "1/3"]))
        assert tree.sign == "-"
        assert len(tree.children) == 1
        child = tree.children[0]
        assert child.l == parse_vector([-1, 1])
        assert child.sign == "+"
        assert child.children == ()
        assert _depth(tree) == 2

    def test_stratifying_matches_summary(self):
        for spec in ("g2-adjoint", "sl3-forms:4", "gl2-ex3:2,0"):
            summary = stratify(parse_catalog_spec(spec))
            for decision in summary.decisions:
                assert build_tree(summary.problem, decision.candidate).plus \
                    == decision.stratifying

    def test_rootless_restrictions_have_no_equality_candidates(self):
        # the lemma behind the prune in `equality_set`, checked against the
        # unpruned enumeration at every tree node
        rootless = [sub for sub in _tree_node_restrictions() if not sub.roots]
        assert rootless
        for sub in rootless:
            assert not any(c.levels.is_equality
                           for c in enumerate_candidates(sub, dedup=False))

    def test_equality_enumeration_is_the_filtered_enumeration(self):
        # the equality candidates are a union of Weyl orbits, so testing and
        # grouping only them keeps the same representatives and levels
        nodes = [sub for sub in _tree_node_restrictions() if sub.roots]
        assert len(nodes) > 100
        for sub in nodes:
            for dedup in (True, False):
                every = enumerate_candidates(sub, dedup=dedup)
                assert enumerate_candidates(sub, dedup=dedup, equality=True) \
                    == tuple(c for c in every if c.levels.is_equality)

    def test_chamber_representatives_are_the_orbit_minima(self):
        # the chamber test stands in for grouping into BFS orbits: at the
        # root and at every tree node it keeps exactly each orbit's minimum,
        # and that minimum is always enumerated
        roots = [validate(parse_catalog_spec(spec)) for spec in CATALOG_SPECS]
        roots += [validate(random_problem(random.Random(seed))) for seed in range(20)]
        for problem in roots + list(_tree_node_restrictions()):
            for equality in (False, True):
                every = enumerate_candidates(problem, dedup=False, equality=equality)
                minima = {min(problem.orbit(c.l)) for c in every}
                assert minima <= {c.l for c in every}
                assert enumerate_candidates(problem, equality=equality) \
                    == tuple(c for c in every if c.l in minima)

    def test_invariants_walk(self):
        def walk(node: SignedTree):
            plus_children = sum(1 for c in node.children if c.plus)
            assert plus_children <= 1
            assert node.plus == (plus_children == 0)
            for child in node.children:
                walk(child)

        for spec in ("g2-adjoint", "sl3-forms:4", "adjoint:b2"):
            summary = stratify(parse_catalog_spec(spec))
            for decision in summary.decisions:
                walk(decision.tree)
                assert _depth(decision.tree) <= summary.problem.rank


class TestDimensions:
    def test_g2_frozen_values(self):
        problem = validate(parse_catalog_spec("g2-adjoint"))
        expected = {
            ("1/2", "1/3"): 6,
            ("1", "1/2"): 8,
            ("1", "2/3"): 10,
            ("3", "5/3"): 12,
        }
        for l, dim in expected.items():
            assert _levels(problem, l).dimension == dim

    def test_orbit_independent(self):
        summary = stratify(parse_catalog_spec("adjoint:b2"))
        problem = summary.problem
        for stratum in summary.strata:
            for l in problem.orbit(stratum.l):
                assert _levels(problem, l).dimension == stratum.dim

    def test_openness(self):
        problem = validate(parse_catalog_spec("gl2-ex3:2,1"))
        assert _levels(problem, [0, "1/2"]).is_equality
        assert not _levels(problem, ["1/6", "1/6"]).is_equality


def _strata_by_l(summary):
    return {s.l: s for s in summary.strata}


class TestGenericRepresentative:
    def test_g2_term_counts(self, summary_of):
        strata = _strata_by_l(summary_of("g2-adjoint"))
        single = strata[parse_vector(["-1/2", "-1/3"])].generic_rep
        assert len(single) == 1
        four = strata[parse_vector([-1, "-2/3"])].generic_rep
        assert len(four) == 4
        symbols = [s for _, s in four]
        assert len(set(symbols)) == 4

    def test_multiplicity_expands(self, summary_of):
        strata = _strata_by_l(summary_of("sl2-forms:2,3,3,4,5"))
        # l = (-1,): level-1 slice is the weight (-1,) with multiplicity 3
        rep = strata[parse_vector([-1])].generic_rep
        assert len(rep) == 3
        assert len({i for i, _ in rep}) == 1

    def test_indices_point_at_level_one(self):
        summary = stratify(parse_catalog_spec("adjoint:b2"))
        problem = summary.problem
        for stratum in summary.strata:
            for index, _ in stratum.generic_rep:
                v, _ = problem.weights[index]
                assert problem.space.inner(stratum.l, v) == 1


class TestStratify:
    def test_strata_sorted_by_descending_dimension(self):
        summary = stratify(parse_catalog_spec("sl3-forms:4"))
        dims = [s.dim for s in summary.strata]
        assert dims == sorted(dims, reverse=True)

    def test_direct_sum_top_stratum(self):
        summary = stratify(parse_catalog_spec("direct-sum:sl2-forms:2+sl2-forms:3"))
        assert summary.strata[0].dim == 5
        assert summary.strata[0].l == parse_vector(["-1/2", -1])
        assert summary.dim_nullcone == 5
        assert not summary.equals_V

    def test_max_components(self):
        summary = stratify(parse_catalog_spec("sl3-forms:4"))
        assert summary.max_component_indices == (0,)
        torus = stratify(parse_catalog_spec("torus:1,0|0,1|1,1"))
        assert torus.equals_V
        top = [i for i, s in enumerate(torus.strata) if s.dim == torus.dim_nullcone]
        assert list(torus.max_component_indices) == top

    def test_decided_feet_checked_against_perp(self, monkeypatch):
        def moved_feet(problem, dedup=True):
            return tuple(dataclasses.replace(c, foot=(tuple(2 * x for x in c.foot[0]), c.foot[1]))
                         for c in enumerate_candidates(problem, dedup))

        monkeypatch.setattr(engine, "enumerate_candidates", moved_feet)
        with pytest.raises(InvariantError, match="not perp of the members"):
            stratify(parse_catalog_spec("adjoint:a2"))

    def test_reports_reuse_the_candidates_levels(self, monkeypatch):
        problem = validate(parse_catalog_spec("adjoint:b2"))
        found = enumerate_candidates(problem)
        expected = [stratum_report(problem, cand) for cand in found]

        def unavailable(*args, **kwargs):
            raise AssertionError("stratum_report ran a level pass of its own")

        monkeypatch.setattr(IntegerLattice, "levels", unavailable)
        assert [stratum_report(problem, cand) for cand in found] == expected

    def test_single_zero_weight_torus(self):
        summary = stratify(parse_catalog_spec("torus:0,0"))
        assert summary.decisions == ()
        assert summary.strata == ()
        assert summary.dim_nullcone == 0
        assert summary.max_component_indices == ()
        assert not summary.equals_V

    def test_no_dedup_keeps_orbit_mates(self):
        summary = stratify(parse_catalog_spec("adjoint:a1"), dedup=False)
        assert len(summary.decisions) == 2
        assert sorted(s.dim for s in summary.strata) == [2, 2]
        assert summary.dim_nullcone == 2

    def test_at_most_one_open_stratum(self):
        for spec in ("gl2-ex3:2,1", "gl2-ex3:2,-1", "gl2-ex3:2,0",
                     "torus:1,0|0,1|1,1"):
            summary = stratify(parse_catalog_spec(spec))
            assert sum(1 for s in summary.strata if s.open_in_V) <= 1

    def test_supports_and_root_sets(self):
        summary = stratify(parse_catalog_spec("adjoint:b2"))
        problem = summary.problem
        space = problem.space
        for stratum in summary.strata:
            l = stratum.l
            assert stratum.support_v_l == tuple(
                i for i, (v, _) in enumerate(problem.weights)
                if space.inner(l, v) == 1)
            assert stratum.support_v_l_plus == tuple(
                i for i, (v, _) in enumerate(problem.weights)
                if space.inner(l, v) >= 1)
            assert stratum.levi_root_indices == tuple(
                i for i, a in enumerate(problem.roots) if space.inner(l, a) == 0)
            assert stratum.parabolic_root_indices == tuple(
                i for i, a in enumerate(problem.roots) if space.inner(l, a) >= 0)
            assert set(stratum.levi_root_indices) <= set(stratum.parabolic_root_indices)


def _check_dedup_law(problem):
    """Dedup keeps one stratum per Weyl orbit and loses none: each stratum
    spread over the orbit of its l gives the strata of the run without dedup,
    dimensions included."""
    summary = stratify(problem)
    spread = sorted((l, s.dim) for s in summary.strata for l in summary.problem.orbit(s.l))
    assert spread == sorted((s.l, s.dim) for s in stratify(problem, dedup=False).strata)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_dedup_law_catalog(spec):
    _check_dedup_law(parse_catalog_spec(spec))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dedup_law_random(seed):
    _check_dedup_law(random_problem(random.Random(seed)))


@pytest.mark.parametrize("b", ["-19/10", "-1", "-1/2", "-1/1000",
                               "0", "1/1000", "1", "19/10"])
def test_gl2_ex3_gram_sweep(b):
    # the foot of (0,1)-(1,1) under gram [[2,b],[b,2]] is f = (-b/2, 1):
    # interior for b < 0 (three strata, the open one at f/(f,f) with
    # (f,f) = 2 - b^2/2), the endpoint (0,1) for b >= 0 (two strata, the
    # open one at (0,1/2), the singleton's direction)
    problem = parse_catalog_spec(f"gl2-ex3:2,{b}")
    summary = stratify(problem)
    qb = Q(b)
    if qb < 0:
        norm = 2 - qb * qb / 2
        l_open, dims = (-qb / 2 / norm, 1 / norm), [3, 2, 1]
    else:
        l_open, dims = (Q(0), Q(1, 2)), [3, 1]
    assert [s.dim for s in summary.strata] == dims
    (top,) = [s for s in summary.strata if s.open_in_V]
    assert top.l in (l_open, l_open[::-1])
    assert compare_with_naive(problem).candidate_set_match
