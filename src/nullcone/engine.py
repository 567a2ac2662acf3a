"""Recursive decision procedure for the stratification.

For a candidate l the problem is restricted to the hyperplane data along l:
roots orthogonal to l survive, weights on the level-1 hyperplane are
translated by the foot l/|l|^2 onto {l = 0}, and the process repeats with
the equality candidates of the restriction as children.  The resulting
signed tree decides whether l labels a stratum: a node is plus exactly when
no child is plus, and l is stratifying exactly when its root is plus.

Everything stays in ambient coordinates; a restriction just remembers the
chain of constraint vectors it is orthogonal to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .candidates import Candidate, check_foot, enumerate_candidates
from .ratgeom import (
    InputError,
    InvariantError,
    Vec,
    is_zero_vec,
    vscale,
    vsub,
)
from .rootdata import (
    Problem,
    ValidatedProblem,
    orbit_closure,  # noqa: F401 (bench/tracer.py wraps it under this name)
    validate,
)

Cache = dict[tuple[tuple[Vec, ...], tuple[tuple[Vec, int], ...]], tuple[Vec, ...]]


def restrict(problem: ValidatedProblem, l: Vec) -> ValidatedProblem:
    """Restriction along a candidate l of the given problem.

    On the level-1 hyperplane the projection onto {l = 0} is the translation
    by the foot l/|l|^2.  A translation is injective and keeps lexicographic
    order, so the restricted weights stay distinct and sorted.  The Weyl
    group is the reflections in the surviving roots, built on demand.
    """
    space = problem.space
    if is_zero_vec(l):
        raise InputError("cannot restrict along the zero vector")
    if any(space.inner(l, c) != 0 for c in problem.constraints):
        raise InvariantError(
            f"restriction vector {l} is not orthogonal to the existing constraints")
    if problem.effective_rank < 1:
        raise InvariantError(f"cannot restrict a problem of effective rank "
                             f"{problem.effective_rank} along {l}")
    levels = problem.lattice.levels(l)
    roots = tuple(problem.roots[j] for j in levels.roots_zero)
    foot = vscale(1 / space.norm_sq(l), l)
    on = (problem.weights[i] for i in levels.on)
    return replace(
        problem,
        roots=roots,
        weights=tuple((vsub(v, foot), mult) for v, mult in on),
        constraints=problem.constraints + (l,),
    )


def equality_set(sub: ValidatedProblem,
                 cache: Optional[Cache] = None) -> tuple[Vec, ...]:
    """Candidates of `sub` whose counting bound is an equality, one per
    Weyl orbit; the enumeration tests no others.

    A restriction without roots has none, so it is not enumerated.  There
    the origin lies in the convex hull of the weights (it is the projected
    foot of the parent candidate), so every direction has a weight strictly
    below level 1 and the equality count 0 is unreachable.

    The memo key omits the constraint chain: enumeration only reads roots,
    weights and the subset-size limit, and the limit never binds because a
    saturated weight set spans at most its own affine hull.
    """
    if sub.constraints and not sub.roots:
        return ()
    key = (sub.roots, sub.weights)
    if cache is not None and key in cache:
        return cache[key]
    result = tuple(c.l for c in enumerate_candidates(sub, equality=True))
    if cache is not None:
        cache[key] = result
    return result


@dataclass(frozen=True)
class SignedTree:
    l: Vec
    children: tuple["SignedTree", ...]
    plus: bool

    @property
    def sign(self) -> str:
        return "+" if self.plus else "-"

    def depth(self) -> int:
        return 1 + max((child.depth() for child in self.children), default=0)


def build_tree(problem: ValidatedProblem, l: Vec,
               cache: Optional[Cache] = None) -> SignedTree:
    """The signed tree of a candidate l of `problem`."""
    sub = restrict(problem, l)
    children = tuple(build_tree(sub, a, cache) for a in equality_set(sub, cache))
    plus_children = sum(1 for child in children if child.plus)
    if plus_children > 1:
        raise InvariantError(
            f"node {l} has {plus_children} plus children; at most one is possible")
    return SignedTree(l, children, plus_children == 0)


@dataclass(frozen=True)
class StratumReport:
    l: Vec
    dim: int
    open_in_V: bool
    support_v_l: tuple[int, ...]
    support_v_l_plus: tuple[int, ...]
    levi_root_indices: tuple[int, ...]
    parabolic_root_indices: tuple[int, ...]
    generic_rep: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class CandidateDecision:
    candidate: Candidate
    tree: SignedTree

    @property
    def stratifying(self) -> bool:
        """A candidate stratifies exactly when its tree's root is plus."""
        return self.tree.plus


@dataclass(frozen=True)
class NullconeSummary:
    problem: ValidatedProblem
    decisions: tuple[CandidateDecision, ...]
    strata: tuple[StratumReport, ...]
    dim_nullcone: int
    equals_V: bool
    max_component_indices: tuple[int, ...]


def stratum_report(problem: ValidatedProblem, cand: Candidate) -> StratumReport:
    """The stratum of a stratifying candidate, read from its levels.

    The generic representative has one fresh symbol per multiplicity unit
    over the level-1 weights.  A sum of the corresponding weight vectors
    with these coefficients lies in the stratum of l whenever the
    coefficients are algebraically independent over the rationals; reports
    carry that caveat, it is not checkable here.
    """
    levels = cand.levels
    units = [i for i in levels.on for _ in range(problem.weights[i][1])]
    return StratumReport(
        l=cand.l,
        dim=levels.dimension,
        open_in_V=levels.is_equality,
        support_v_l=levels.on,
        support_v_l_plus=tuple(sorted(levels.on + levels.above)),
        levi_root_indices=levels.roots_zero,
        parabolic_root_indices=tuple(sorted(levels.roots_zero + levels.roots_positive)),
        generic_rep=tuple((i, f"c_{k}") for k, i in enumerate(units, 1)),
    )


def stratify(problem: Union[Problem, ValidatedProblem],
             dedup: bool = True) -> NullconeSummary:
    """Full run: candidates, signed trees, strata, null-cone summary."""
    if isinstance(problem, Problem):
        problem = validate(problem)
    cache: Cache = {}
    decisions = []
    for cand in enumerate_candidates(problem, dedup=dedup):
        check_foot(problem, cand)
        tree = build_tree(problem, cand.l, cache)
        decisions.append(CandidateDecision(cand, tree))
    reports = [stratum_report(problem, d.candidate)
               for d in decisions if d.stratifying]
    strata = tuple(sorted(reports, key=lambda s: (-s.dim, s.l)))
    open_count = sum(1 for s in strata if s.open_in_V)
    if dedup and open_count > 1:
        raise InvariantError(f"{open_count} open strata; at most one is possible")
    dim_nullcone = max((s.dim for s in strata), default=0)
    max_indices = tuple(i for i, s in enumerate(strata) if s.dim == dim_nullcone) \
        if strata else ()
    return NullconeSummary(
        problem=problem,
        decisions=tuple(decisions),
        strata=strata,
        dim_nullcone=dim_nullcone,
        equals_V=any(s.open_in_V for s in strata),
        max_component_indices=max_indices,
    )
