"""The acceptance gate.

One test per numbered criterion; the conftest reporter prints a one-line
PASS/FAIL verdict for each at the end of the run.  Budgets are wall clock
and count as part of the criterion.  All computations here are fresh (no
session cache) so the timings are honest.
"""

import random

from conftest import CATALOG_SPECS, RANK2_CATALOG_SPECS

from nullcone import (
    catalog,
    check_rank2_law,
    compare_with_naive,
    invariance_harness,
    parse_catalog_spec,
    stratify,
    validate,
)
from nullcone.oracle import (
    random_problem,
    random_torus_problem,
    rank2_non_stratifying,
    standard_transforms,
)


def _dims(summary):
    return sorted(s.dim for s in summary.strata)


def test_criterion_1_binary_forms(criterion):
    with criterion(1, "sl2-forms:2,3,3,4,5 strata and dimensions", budget=1.0):
        summary = stratify(parse_catalog_spec("sl2-forms:2,3,3,4,5"))
        assert len(summary.strata) == 5
        assert _dims(summary) == [2, 3, 6, 8, 11]
        assert summary.dim_nullcone == 11


def test_criterion_2_binary_forms_count_formula(criterion):
    def expected(degrees):
        d_odd = max((d for d in degrees if d % 2 == 1), default=0)
        d_even = max((d for d in degrees if d % 2 == 0), default=0)
        return (d_odd + 1) // 2 + d_even // 2

    with criterion(2, "stratum count formula on 20 random degree tuples",
                   budget=5.0):
        rng = random.Random(4242)
        for _ in range(20):
            degrees = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            summary = stratify(catalog("sl2-forms", degrees))
            assert len(summary.strata) == expected(degrees), degrees


def test_criterion_3_ternary_quartics(criterion):
    with criterion(3, "sl3-forms:4 candidates, strata and dimensions",
                   budget=10.0):
        summary = stratify(parse_catalog_spec("sl3-forms:4"))
        assert len(summary.decisions) == 12
        excluded = [d for d in summary.decisions if not d.stratifying]
        assert len(excluded) == 1
        assert _dims(summary) == sorted([3, 8, 11, 7, 9, 5, 9, 10, 10, 7, 8])
        assert summary.dim_nullcone == 11
        assert len(summary.max_component_indices) == 1


def test_criterion_4_g2_adjoint(criterion):
    with criterion(4, "g2-adjoint strata and the root-parallel exclusions",
                   budget=5.0):
        summary = stratify(parse_catalog_spec("g2-adjoint"))
        assert len(summary.decisions) == 6
        assert len(summary.strata) == 4
        assert _dims(summary) == [6, 8, 10, 12]
        problem = summary.problem
        for decision in summary.decisions:
            assert rank2_non_stratifying(problem, decision.candidate.l) \
                == (not decision.stratifying)


def test_criterion_5_gram_dependence(criterion):
    # V = C^2 + det: u on the weights (1,0), (0,1), t on (1,1); gram
    # [[2,b],[b,2]].  The foot of the segment (0,1)-(1,1) is at x = -b/2,
    # strictly inside only for b < 0, where it adds a third stratum.  At
    # b = 0 it is the endpoint (0,1), and (1,1) has level exactly 1 against
    # l = (0,1/2).  The candidate orbits are then (0,1/2), (1/4,1/4) and
    # (1/2,1/2) (the full set's foot is 0); (1/2,1/2) is not stratifying,
    # as its Levi GL2 acts on V_{=1} = C^2, where SL2 has no semistable
    # vectors.  Two strata remain: {u != 0} (open, dim 3) and
    # {u = 0, t != 0} (dim 1).  tests/test_engine.py sweeps b across 0.
    with criterion(5, "gl2-ex3 stratum counts across b = 1, -1, 0", budget=3.0):
        for b, expected in (("1", 2), ("-1", 3), ("0", 2)):
            summary = stratify(parse_catalog_spec(f"gl2-ex3:2,{b}"))
            assert len(summary.strata) == expected, \
                f"gl2-ex3:2,{b} produced {len(summary.strata)} strata, " \
                f"expected {expected}"


def test_criterion_6_oracle_equivalence(criterion):
    with criterion(6, "naive-subset oracle agreement, catalog + 100 random",
                   budget=120.0):
        for spec in CATALOG_SPECS:
            report = compare_with_naive(parse_catalog_spec(spec))
            assert report.candidate_set_match, (spec, report.mismatches)
        rng = random.Random(20260823)
        for i in range(100):
            problem = random_problem(rng)
            report = compare_with_naive(problem)
            assert report.candidate_set_match, (i, report.mismatches)


def test_criterion_7_rank2_law(criterion):
    with criterion(7, "rank-2 exclusion law, catalog + 50 random"):
        for spec in RANK2_CATALOG_SPECS:
            assert check_rank2_law(parse_catalog_spec(spec)) == [], spec
        rng = random.Random(77)
        for i in range(50):
            problem = random_problem(rng, rank2_only=True)
            assert check_rank2_law(problem) == [], i


def test_criterion_8_tree_invariants(criterion):
    def walk(node, depth=1):
        plus_children = sum(1 for child in node.children if child.plus)
        assert plus_children <= 1
        assert node.plus == (plus_children == 0)
        return max([depth] + [walk(child, depth + 1) for child in node.children])

    with criterion(8, "signed-tree invariants on catalog + 20 random"):
        problems = [parse_catalog_spec(spec) for spec in CATALOG_SPECS]
        rng = random.Random(31)
        problems += [random_problem(rng) for _ in range(20)]
        for problem in problems:
            summary = stratify(problem)
            for decision in summary.decisions:
                assert walk(decision.tree) <= summary.problem.rank


def test_criterion_9_invariance(criterion):
    with criterion(9, "Weyl and Gram-scale invariance on the catalog"):
        for spec in CATALOG_SPECS:
            problem = parse_catalog_spec(spec)
            report = invariance_harness(problem, standard_transforms(problem))
            assert report.candidate_set_match, (spec, report.law_violations)


def test_criterion_10_torus(criterion):
    with criterion(10, "20 random torus instances, all stratifying"):
        rng = random.Random(99)
        for i in range(20):
            summary = stratify(random_torus_problem(rng))
            assert all(d.stratifying for d in summary.decisions), i
            problem = summary.problem
            for stratum in summary.strata:
                expected = tuple(
                    j for j, (v, _) in enumerate(problem.weights)
                    if problem.space.inner(stratum.l, v) >= 1)
                assert stratum.support_v_l_plus == expected, (i, stratum.l)
