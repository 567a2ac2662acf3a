"""Recursive decision procedure for the stratification.

For a candidate l the problem is restricted to the hyperplane data along l:
roots orthogonal to l survive, weights on the level-1 hyperplane are
translated by the foot l/|l|^2 onto {l = 0}, and the process repeats with
the equality candidates of the restriction as children.  The resulting
signed tree decides whether l labels a stratum: a node is plus exactly when
no child is plus, and l is stratifying exactly when its root is plus.

Everything stays in ambient coordinates; a restriction just remembers the
integer foot points it is orthogonal to.  `IntegerLattice` builds it from
the candidate's levels and integer foot, only where its floor allows
children; every tree node checks that the restriction exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .candidates import Candidate, check_foot, enumerate_candidates
from .ratgeom import InputError, InvariantError, Vec
from .rootdata import Problem, ValidatedProblem, validate
from .rootdata import orbit_closure  # noqa: F401 (bench/tracer.py wraps it under this name)


def _check_restrictable(problem: ValidatedProblem, cand: Candidate) -> None:
    """Raise unless a restriction along `cand` exists: a nonzero foot,
    orthogonal to the constraints, rank left >= 1."""
    point = cand.foot[0]
    if not any(point):
        raise InputError("cannot restrict along the zero vector")
    if not all(problem.lattice.orthogonal(point, c) for c in problem.constraints):
        raise InvariantError(
            f"restriction vector {cand.l} is not orthogonal to the existing constraints")
    if problem.effective_rank < 1:
        raise InvariantError(f"cannot restrict a problem of effective rank "
                             f"{problem.effective_rank} along {cand.l}")


def restrict(problem: ValidatedProblem, cand: Candidate) -> ValidatedProblem:
    """Restriction of the given problem along its candidate `cand`, built by
    `IntegerLattice.restrict` from its integer foot; the foot's point, a
    positive multiple of `cand.l`, joins the constraints.  The Weyl group is
    the one the surviving roots generate."""
    _check_restrictable(problem, cand)
    return ValidatedProblem(problem.space, problem.lattice.restrict(cand.foot, cand.levels),
                            problem.constraints + (cand.foot[0],))


def equality_set(sub: ValidatedProblem) -> tuple[Candidate, ...]:
    """Candidates of `sub` whose counting bound is an equality, one per
    Weyl orbit; the enumeration tests no others."""
    return enumerate_candidates(sub, equality=True)


@dataclass(frozen=True)
class SignedTree:
    l: Vec
    children: tuple["SignedTree", ...]
    plus: bool

    @property
    def sign(self) -> str:
        return "+" if self.plus else "-"


def build_tree(problem: ValidatedProblem, cand: Candidate) -> SignedTree:
    """The signed tree of a candidate of `problem`; a childless node makes
    the checks of `restrict` without building the restriction."""
    children: tuple[SignedTree, ...] = ()
    if problem.lattice.may_have_children(cand.foot, cand.levels):
        sub = restrict(problem, cand)
        children = tuple(build_tree(sub, c) for c in equality_set(sub))
    else:
        _check_restrictable(problem, cand)
    plus_children = sum(1 for child in children if child.plus)
    if plus_children > 1:
        raise InvariantError(f"node {cand.l} has {plus_children} plus children; "
                             f"at most one is possible")
    return SignedTree(cand.l, children, plus_children == 0)


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
    decisions = []
    for cand in enumerate_candidates(problem, dedup=dedup):
        check_foot(problem, cand)
        decisions.append(CandidateDecision(cand, build_tree(problem, cand)))
    reports = [stratum_report(problem, d.candidate)
               for d in decisions if d.stratifying]
    strata = tuple(sorted(reports, key=lambda s: (-s.dim, s.l)))
    open_count = sum(1 for s in strata if s.open_in_V)
    if dedup and open_count > 1:
        raise InvariantError(f"{open_count} open strata; at most one is possible")
    dim_nullcone = max((s.dim for s in strata), default=0)
    max_indices = tuple(i for i, s in enumerate(strata) if s.dim == dim_nullcone)
    return NullconeSummary(
        problem=problem,
        decisions=tuple(decisions),
        strata=strata,
        dim_nullcone=dim_nullcone,
        equals_V=any(s.open_in_V for s in strata),
        max_component_indices=max_indices,
    )
