import random
from pathlib import Path

import pytest
from fractions import Fraction as Q

from nullcone import oracle, ratgeom, rootdata
from nullcone.candidates import enumerate_candidates
from nullcone.cli import load_problem
from nullcone.oracle import (
    apply_transform,
    check_rank2_law,
    compare_with_naive,
    invariance_harness,
    naive_candidates,
    random_gram,
    random_problem,
    random_torus_problem,
    rank2_non_stratifying,
    standard_transforms,
)
from nullcone.ratgeom import (
    GramSpace,
    InputError,
    ResourceError,
    gram_violations,
    is_zero_vec,
    parse_vector,
)
from nullcone.rootdata import Problem, parse_catalog_spec, validate

from conftest import CATALOG_SPECS

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"


class TestNaive:
    def test_matches_engine_on_small_instances(self):
        for spec in ("adjoint:a1", "adjoint:a2", "gl2-ex3:2,1", "gl2-ex3:2,-1",
                     "gl2-ex3:2,0", "torus:1,0|0,1|1,1", "sl2-forms:2,3"):
            report = compare_with_naive(parse_catalog_spec(spec))
            assert report.candidate_set_match, (spec, report.mismatches)

    def test_matches_without_dedup(self):
        problem = validate(parse_catalog_spec("adjoint:a2"))
        engine = {c.l for c in enumerate_candidates(problem, dedup=False)}
        naive = set(naive_candidates(problem, dedup=False))
        assert engine == naive
        assert len(naive) > 4  # more vectors than orbits

    def test_weight_bound(self):
        problem = validate(parse_catalog_spec("sl2-forms:16"))
        assert len(problem.weights) == 17
        with pytest.raises(ResourceError):
            naive_candidates(problem)

    def test_bound_decided_before_the_engine_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("the engine ran past the naive-subset bound")

        monkeypatch.setattr(oracle, "enumerate_candidates", refuse)
        with pytest.raises(ResourceError, match="19 distinct weights exceed"):
            compare_with_naive(parse_catalog_spec("adjoint:b3"))

    def test_medium_binary_forms(self):
        problem = validate(parse_catalog_spec("sl2-forms:12"))
        naive = naive_candidates(problem)
        engine = tuple(sorted(c.l for c in enumerate_candidates(problem)))
        assert naive == engine
        assert len(naive) == 6  # orbits of 1/k for k = 2, 4, ..., 12


@pytest.mark.parametrize("source, inner_calls, covector_calls, perp_calls", [
    ("qubits3.json", 376, 70, 112),
    ("g2-adjoint", 294, 102, 275),
    ("sl3-forms:4", 519, 177, 523),
], ids=["qubits3.json", "g2-adjoint", "sl3-forms:4"])
def test_naive_work_counts(monkeypatch, source, inner_calls, covector_calls, perp_calls):
    """The oracle's `GramSpace.inner`, `GramSpace.covector` and `perp` calls,
    exact: one `perp` per nonempty subset whose foot is not inherited as the
    origin from a submask, and per nonzero foot one `norm_sq` and one
    covector, whose integer level pass over the weights and roots calls
    `inner` no more (the calls inside `perp` count too)."""
    path = BENCH_PROBLEMS / source
    problem = validate(load_problem(str(path) if path.exists() else source))
    calls = {"inner": 0, "covector": 0, "perp": 0}
    inner, covector, perp = GramSpace.inner, GramSpace.covector, oracle.perp

    def counting_inner(space, u, v):
        calls["inner"] += 1
        return inner(space, u, v)

    def counting_covector(space, u):
        calls["covector"] += 1
        return covector(space, u)

    def counting_perp(space, points):
        calls["perp"] += 1
        return perp(space, points)

    monkeypatch.setattr(GramSpace, "inner", counting_inner)
    monkeypatch.setattr(GramSpace, "covector", counting_covector)
    monkeypatch.setattr(oracle, "perp", counting_perp)
    oracle.naive_candidates(problem)
    assert (calls["inner"], calls["covector"], calls["perp"]) == (
        inner_calls, covector_calls, perp_calls)


def _soundness_problems(randoms=30):
    for spec in CATALOG_SPECS:
        problem = validate(parse_catalog_spec(spec))
        if len(problem.weights) <= 12:
            yield spec, problem
    yield "qubits3", validate(load_problem(str(BENCH_PROBLEMS / "qubits3.json")))
    rng = random.Random(30)
    for i in range(randoms):
        yield f"random:{i}", validate(random_problem(rng))


def test_naive_skips_only_zero_feet(monkeypatch):
    """Every nonempty subset that `naive_candidates` hands no `perp` call
    has the origin as its foot, so skipping it cannot change the result."""
    solved = []

    def recording_perp(space, points):
        solved.append(tuple(points))
        return ratgeom.perp(space, points)

    monkeypatch.setattr(oracle, "perp", recording_perp)
    checked = 0
    for name, problem in _soundness_problems():
        solved.clear()
        naive_candidates(problem)
        points = [v for v, _ in problem.weights]
        n = len(points)
        asked = set(solved)
        assert len(asked) == len(solved), name  # each subset solved at most once
        for mask in range(1, 1 << n):
            subset = tuple(points[i] for i in range(n) if mask >> i & 1)
            if subset not in asked:
                assert is_zero_vec(ratgeom.perp(problem.space, subset)), (name, subset)
                checked += 1
    assert checked > 0


def test_naive_reads_no_integer_kernel(monkeypatch):
    """The oracle stays independent of the enumeration's integer kernel: with
    the `IntegerLattice` methods the engine decides candidates by raising,
    it finds the same vectors."""
    problems = list(_soundness_problems(randoms=8))
    expected = [naive_candidates(problem, dedup=False) for _, problem in problems]

    def refuse(*args, **kwargs):
        raise RuntimeError("the naive oracle called the integer kernel")

    for name in ("levels", "subset_feet", "hull_contains", "direction", "in_chamber",
                 "in_positive_cone"):
        monkeypatch.setattr(rootdata.IntegerLattice, name, refuse)
    for (name, problem), found in zip(problems, expected):
        assert naive_candidates(problem, dedup=False) == found, name


def _rescaled(problem, c):
    """The problem in coordinates scaled by c: weights and roots times c and
    the form over c^2, so every inner product is the same and each candidate
    l becomes c l.  For c = 1/2 or 2/3 most weights are not integral."""
    space = problem.space
    gram = tuple(tuple(x / c ** 2 for x in row) for row in space.gram)
    return validate(Problem(GramSpace(space.rank, gram),
                            tuple(tuple(c * x for x in alpha) for alpha in problem.roots),
                            tuple((tuple(c * x for x in v), m) for v, m in problem.weights)))


@pytest.mark.parametrize("c", [Q(1, 2), Q(2, 3)])
def test_naive_on_non_integral_weights(c):
    """Every weight scaled by c is cleared with its own denominator t; the
    oracle finds c l for each l of the integral problem, as the engine does."""
    for name, problem in _soundness_problems(randoms=8):
        scaled = _rescaled(problem, c)
        expected = tuple(sorted(tuple(c * x for x in l)
                                for l in naive_candidates(problem, dedup=False)))
        assert naive_candidates(scaled, dedup=False) == expected, name
        assert compare_with_naive(scaled).candidate_set_match, name


class TestRank2Law:
    def test_g2_frozen(self):
        problem = validate(parse_catalog_spec("g2-adjoint"))
        says_no = [("2", "1"), ("2/3", "1/3")]
        says_yes = [("1/2", "1/3"), ("1", "1/2"), ("1", "2/3"), ("3", "5/3")]
        for l in says_no:
            assert rank2_non_stratifying(problem, parse_vector(list(l)))
        for l in says_yes:
            assert not rank2_non_stratifying(problem, parse_vector(list(l)))

    def test_gl2_negative_b(self):
        problem = validate(parse_catalog_spec("gl2-ex3:2,-1"))
        assert rank2_non_stratifying(problem, parse_vector([1, 1]))
        assert not rank2_non_stratifying(problem, parse_vector([0, "1/2"]))

    def test_wrong_rank(self):
        for spec in ("adjoint:a1", "torus:1,0,0|0,1,0"):
            problem = validate(parse_catalog_spec(spec))
            with pytest.raises(InputError):
                rank2_non_stratifying(problem, problem.weights[0][0])

    def test_catalog_consistent(self):
        for spec in ("adjoint:a2", "adjoint:b2", "g2-adjoint", "sl3-forms:4",
                     "gl2-ex3:2,0", "torus:1,0|0,1|1,1"):
            assert check_rank2_law(parse_catalog_spec(spec)) == []


class TestTransforms:
    def test_gram_scale(self):
        problem = parse_catalog_spec("adjoint:a2")
        scaled = apply_transform(problem, ("gram-scale", Q(1, 3)))
        assert scaled.space.gram[0][0] == Q(2, 3)
        assert scaled.roots == problem.roots
        assert scaled.weights == problem.weights
        validate(scaled)

    def test_gram_scale_guards(self):
        problem = parse_catalog_spec("adjoint:a2")
        for bad in (Q(0), Q(-2), "0"):
            with pytest.raises(InputError):
                apply_transform(problem, ("gram-scale", bad))

    def test_weyl_generator(self):
        problem = parse_catalog_spec("adjoint:b2")
        moved = apply_transform(problem, ("weyl-generator", 0))
        validate(moved)
        assert set(moved.roots) == set(problem.roots)
        assert dict(moved.weights) == dict(problem.weights)

    def test_generator_index_range(self):
        problem = parse_catalog_spec("adjoint:a1")
        with pytest.raises(InputError):
            apply_transform(problem, ("weyl-generator", 5))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            apply_transform(parse_catalog_spec("adjoint:a1"), ("rotate", 1))

    def test_standard_transforms_shape(self):
        problem = parse_catalog_spec("adjoint:b2")
        transforms = standard_transforms(problem)
        kinds = [k for k, _ in transforms]
        assert kinds.count("gram-scale") == 3
        assert kinds.count("weyl-generator") == 4  # one per reflection of B2

    def test_harness_flags_nothing_on_catalog_samples(self):
        for spec in ("adjoint:a2", "gl2-ex3:2,-1"):
            problem = parse_catalog_spec(spec)
            report = invariance_harness(problem, standard_transforms(problem))
            assert report.candidate_set_match, report.law_violations


class TestRandomInstances:
    def test_deterministic(self):
        a = random_problem(random.Random(5))
        b = random_problem(random.Random(5))
        assert a == b

    def test_generated_problems_validate(self):
        rng = random.Random(11)
        for _ in range(30):
            problem = random_problem(rng)
            validated = validate(problem)
            assert len(validated.weights) <= 12

    def test_rank2_only(self):
        rng = random.Random(13)
        for _ in range(15):
            problem = random_problem(rng, rank2_only=True)
            assert validate(problem).rank == 2

    def test_torus_instances(self):
        rng = random.Random(17)
        for _ in range(10):
            problem = random_torus_problem(rng)
            validated = validate(problem)
            assert validated.roots == ()
            assert 1 <= validated.rank <= 3

    def test_random_gram_positive_definite(self):
        rng = random.Random(19)
        for rank in (1, 2, 3):
            for _ in range(5):
                assert gram_violations(random_gram(rng, rank)) == []
