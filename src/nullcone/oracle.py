"""Independent verifiers for the enumeration and the engine.

The naive enumeration here deliberately ignores the subset strategy of
`candidates`: it decides every nonempty subset of the distinct weights and
applies the defining conditions literally, with its own counting code.
Agreement between the two is the main correctness check of the package.
A subset whose foot is the origin is dropped, and a superset may inherit
that zero foot with no `perp` call: perp(S) = 0 exactly when 0 is in
aff(S), and aff(S) grows with S.  One level pass per subset with a
nonzero foot serves both its saturation test and its count of the weights
below the hyperplane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, reduce
from typing import Sequence, Union

from .candidates import enumerate_candidates
from .engine import NullconeSummary, stratify
from .ratgeom import (
    GramSpace,
    InputError,
    Q,
    ResourceError,
    Vec,
    in_convex_hull,
    is_zero_vec,
    parse_rational,
    perp,
    vscale,
    zero_vec,
)
from .rootdata import (
    Problem,
    ValidatedProblem,
    catalog,
    direct_sum,
    orbit_closure,
    reflect,
    validate,
)

MAX_WEIGHTS = 16


@dataclass
class OracleReport:
    candidate_set_match: bool
    mismatches: list[tuple[Vec, str]]
    law_violations: list[str]


def naive_candidates(problem: ValidatedProblem, dedup: bool = True) -> tuple[Vec, ...]:
    """Candidate vectors from an exhaustive scan of all weight subsets.

    Bit i of `mask` is weight i; the weights are distinct, so a subset is
    saturated exactly when the bits of the weights at height 1 are `mask`.
    A mask inherits a zero foot from its submask without its lowest or its
    highest bit, by the module docstring's proof; a zero foot this misses
    is found by `perp`."""
    entries = problem.weights
    n = len(entries)
    if n > MAX_WEIGHTS:
        raise ResourceError(
            f"{n} distinct weights exceed the naive-subset bound {MAX_WEIGHTS}")
    space = problem.space
    points = [v for v, _ in entries]
    found: set[Vec] = set()
    zero = bytearray(1 << n)  # zero[mask]: the subset's foot is the origin
    for mask in range(1, 1 << n):
        if zero[mask & (mask - 1)] or zero[mask ^ (1 << (mask.bit_length() - 1))]:
            zero[mask] = 1
            continue
        subset = [points[i] for i in range(n) if mask >> i & 1]
        foot = perp(space, subset)
        if is_zero_vec(foot):
            zero[mask] = 1
            continue
        l = vscale(1 / space.norm_sq(foot), foot)
        heights = [space.inner(l, v) for v in points]
        if sum(1 << i for i, h in enumerate(heights) if h == 1) != mask:
            continue
        if not in_convex_hull(space, foot, subset):
            continue
        negative_roots = sum(1 for alpha in problem.roots
                             if space.inner(l, alpha) < 0)
        below = sum(m for (_, m), h in zip(entries, heights) if h < 1)
        if negative_roots > below:
            continue
        found.add(l)
    if not dedup:
        return tuple(sorted(found))
    representatives: set[Vec] = set()
    seen: set[Vec] = set()
    for l in sorted(found):
        if l in seen:
            continue
        orbit = problem.orbit(l)
        seen.update(orbit)
        representatives.add(min(orbit))
    return tuple(sorted(representatives))


def compare_with_naive(problem: Union[Problem, ValidatedProblem],
                       dedup: bool = True) -> OracleReport:
    if isinstance(problem, Problem):
        problem = validate(problem)
    engine_set = {c.l for c in enumerate_candidates(problem, dedup=dedup)}
    oracle_set = set(naive_candidates(problem, dedup=dedup))
    mismatches = [(l, "engine") for l in sorted(engine_set - oracle_set)]
    mismatches += [(l, "oracle") for l in sorted(oracle_set - engine_set)]
    return OracleReport(not mismatches, mismatches, [])


def rank2_non_stratifying(problem: ValidatedProblem, l: Vec) -> bool:
    """The rank-2 exclusion law for a candidate l.

    A candidate of a rank-2 problem fails to stratify exactly when its
    hyperplane {l = 1} is parallel to a root and carries exactly two distinct
    weights, each of multiplicity 1.
    """
    if problem.rank != 2:
        raise InputError(f"rank-2 law asked on a rank-{problem.rank} problem")
    space = problem.space
    parallel = any(space.inner(l, alpha) == 0 for alpha in problem.roots)
    if not parallel:
        return False
    carried = [m for v, m in problem.weights if space.inner(l, v) == 1]
    return len(carried) == 2 and all(m == 1 for m in carried)


def check_rank2_law(solved: Union[NullconeSummary, Problem, ValidatedProblem]) -> list[str]:
    """Engine decisions versus the rank-2 law; returns disagreement lines.
    A summary is read as it is; a problem is stratified first."""
    summary = solved if isinstance(solved, NullconeSummary) else stratify(solved)
    validated = summary.problem
    out = []
    for decision in summary.decisions:
        law = rank2_non_stratifying(validated, decision.candidate.l)
        if law == decision.stratifying:
            out.append(
                f"l={decision.candidate.l}: engine stratifying={decision.stratifying} "
                f"but the rank-2 law says non-stratifying={law}")
    return out


Transform = tuple[str, object]


def _positive_roots(problem: Problem) -> list[Vec]:
    """The lexicographically positive roots: one per reflection."""
    zero = zero_vec(problem.space.rank)
    return [alpha for alpha in problem.roots if alpha > zero]


def standard_transforms(problem: Problem) -> list[Transform]:
    """Gram rescalings by 2, 1/3 and 7 plus every root reflection, indexed
    into the lexicographically positive roots."""
    transforms: list[Transform] = [("gram-scale", Q(2)), ("gram-scale", Q(1, 3)),
                                   ("gram-scale", Q(7))]
    transforms += [("weyl-generator", i) for i in range(len(_positive_roots(problem)))]
    return transforms


def apply_transform(problem: Problem, transform: Transform) -> Problem:
    kind, arg = transform
    if kind == "gram-scale":
        c = parse_rational(arg)
        if c <= 0:
            raise InputError(f"gram scale must be positive, got {c}")
        gram = tuple(tuple(c * x for x in row) for row in problem.space.gram)
        space = GramSpace(problem.space.rank, gram)
        return Problem(space, problem.roots, problem.weights)
    if kind == "weyl-generator":
        positive = _positive_roots(problem)
        index = int(arg)
        if not 0 <= index < len(positive):
            raise InputError(
                f"generator index {index} out of range for {len(positive)} generators")
        space, alpha = problem.space, positive[index]
        return Problem(space, tuple(reflect(space, alpha, beta) for beta in problem.roots),
                       tuple((reflect(space, alpha, v), m) for v, m in problem.weights))
    raise InputError(f"unknown transform kind {kind!r}")


def invariance_harness(problem: Problem,
                       transforms: Sequence[Transform]) -> OracleReport:
    """Stratify the problem and each transformed copy; compare the outputs
    that must not move: stratum dimension multiset, null-cone dimension, and
    whether the null-cone fills V."""
    base = stratify(problem)
    base_dims = sorted(s.dim for s in base.strata)
    violations = []
    for transform in transforms:
        other = stratify(apply_transform(problem, transform))
        dims = sorted(s.dim for s in other.strata)
        if dims != base_dims:
            violations.append(
                f"{transform}: stratum dimensions {dims} != {base_dims}")
        if other.dim_nullcone != base.dim_nullcone:
            violations.append(
                f"{transform}: null-cone dimension {other.dim_nullcone} "
                f"!= {base.dim_nullcone}")
        if other.equals_V != base.equals_V:
            violations.append(
                f"{transform}: equals_V {other.equals_V} != {base.equals_V}")
    return OracleReport(not violations, [], violations)


# ---------------------------------------------------------------------------
# seeded random instances

# the sums of adjoint types random instances are drawn from, sorted
_TEMPLATES = ("a1", "a1+a1", "a1+a1+a1", "a2", "a2+a1", "a3", "b2", "g2")

_RANK2_TEMPLATES = ("a1+a1", "a2", "b2", "g2")


@cache
def _template(name: str) -> tuple[GramSpace, tuple[Vec, ...]]:
    """The form and roots of a "+"-joined sum of adjoint types."""
    problem = reduce(direct_sum, (catalog("adjoint", [t]) for t in name.split("+")))
    return problem.space, problem.roots


def random_gram(rng: random.Random, rank: int) -> tuple[Vec, ...]:
    """A random positive definite integer matrix, built as L^T L."""
    lower = [[Q(0)] * rank for _ in range(rank)]
    for i in range(rank):
        lower[i][i] = Q(rng.randint(1, 3))
        for j in range(i):
            lower[i][j] = Q(rng.randint(-1, 1))
    return tuple(
        tuple(sum(lower[k][i] * lower[k][j] for k in range(rank)) for j in range(rank))
        for i in range(rank))


def random_torus_problem(rng: random.Random, max_rank: int = 3) -> Problem:
    rank = rng.randint(1, max_rank)
    space = GramSpace(rank, random_gram(rng, rank))
    count = rng.randint(1, 4)
    pairs = []
    for _ in range(count):
        v = tuple(Q(rng.randint(-3, 3)) for _ in range(rank))
        pairs.append((v, rng.randint(1, 2)))
    return Problem.of(space, [], pairs)


def random_problem(rng: random.Random, max_distinct: int = 12,
                   rank2_only: bool = False) -> Problem:
    """A seeded random instance, valid by construction.

    Weights start from a few random seed vectors and are closed under the
    Weyl group of the chosen template, so invariance holds exactly.  Each
    orbit gets its own multiplicity.  If every seed orbit is too large the
    instance degrades to the single zero weight, which is still valid.
    """
    if rank2_only and rng.random() < 0.25:
        return _force_rank(random_torus_problem(rng, max_rank=2), 2, rng)
    if not rank2_only and rng.random() < 0.2:
        return random_torus_problem(rng)
    space, roots = _template(
        rng.choice(_RANK2_TEMPLATES if rank2_only else _TEMPLATES))
    scale = rng.choice([Q(1), Q(2), Q(1, 2), Q(3)])
    if scale != 1:
        space = GramSpace(space.rank,
                          tuple(tuple(scale * x for x in row) for row in space.gram))
    pairs: list[tuple[Vec, int]] = []
    covered: set[Vec] = set()
    for _ in range(rng.randint(1, 3)):
        seed = tuple(Q(rng.randint(-2, 2)) for _ in range(space.rank))
        orbit = orbit_closure(space, roots, seed, 10 ** 4)
        if any(v in covered for v in orbit):
            continue
        if len(covered) + len(orbit) > max_distinct:
            continue
        covered.update(orbit)
        mult = rng.randint(1, 2)
        pairs.extend((v, mult) for v in orbit)
    if not pairs:
        pairs = [(zero_vec(space.rank), 1)]
    return Problem(space, roots, tuple(pairs))


def _force_rank(problem: Problem, rank: int, rng: random.Random) -> Problem:
    if problem.space.rank == rank:
        return problem
    space = GramSpace(rank, random_gram(rng, rank))
    pairs = [(tuple(v[i] if i < len(v) else Q(0) for i in range(rank)), m)
             for v, m in problem.weights]
    return Problem(space, (), tuple(pairs))
