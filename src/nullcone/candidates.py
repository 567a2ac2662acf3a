"""Enumeration of candidate directions for null-cone strata.

A candidate is a nonzero vector l whose affine hyperplane {inner(l, .) = 1}
carries weights, such that the perpendicular foot from the origin lies in the
convex hull of those weights, the weight set on the hyperplane is saturated,
and the root-versus-weight counting bound holds.

Enumeration scans the flats (affine hulls) of weight subsets of size up to
the effective rank.  Any saturated weight set lives in an affine hyperplane,
so its flat is spanned by an affinely independent subset within that size
bound and the scan cannot miss it; the brute-force oracle in `oracle`
double-checks this on every tested instance.  `IntegerLattice.subset_feet`
yields a spanning subset of each flat with its foot, updated from its
prefix's foot by one fraction-free projection; with dedup it visits weights
by descending height and cuts the subtrees of feet in the positive cone,
the chamber's polar.  `candidate_from_subset` tests each distinct foot once,
in integers; at a tree node its level pass stops at the first weight that
rules an equality out, and a foot at its members' centroid is in their hull
with no LP.  A kept candidate keeps its integer foot and gets a Fraction l.

A subset's foot f is also the foot of the saturated set M of l = f/|f|^2.
The subset lies on the hyperplane H = {inner(l, .) = 1} and in M, so
aff(subset) lies in aff(M), which lies in H.  f is in aff(subset), and f is
the point of H nearest the origin, so it is the point of aff(M) nearest the
origin too.  Hence enumeration never needs `perp` of the members.  The
Fraction `perp` recomputes it only for the candidates a caller keeps:
`check_foot` once per candidate `engine.stratify` decides, and the
independent check `verify_candidate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ratgeom import (
    InvariantError,
    Q,
    Vec,
    in_convex_hull,
    integer_point,
    is_zero_vec,
    perp,
    vscale,
)
from .rootdata import Foot, Levels, ValidatedProblem


@dataclass(frozen=True)
class Candidate:
    """A direction l, its foot l/|l|^2 as (point, den) in lowest terms with
    den > 0, and the levels it was accepted with; the saturated weight set M
    is `levels.on`."""

    l: Vec
    foot: Foot
    levels: Levels


def candidate_from_subset(problem: ValidatedProblem, foot: Foot,
                          equality: bool = False) -> Optional[Candidate]:
    """Build the candidate generated by a weight subset from its foot, or None.

    `foot` is the subset's foot as `IntegerLattice.subset_feet` yields it,
    in lowest terms with den > 0; the candidate keeps it.
    Rejections: the affine hull passes through the origin; the counting
    bound fails (with `equality`, is not an equality: the level pass stops
    once it cannot be); the foot leaves the convex hull of the saturated
    set.  The foot is the foot of the saturated set too (see the module
    docstring), so it is not recomputed.
    """
    lattice = problem.lattice
    point, den = foot
    if not any(point):
        return None
    nums, d = lattice.direction(point, den)
    levels = lattice.levels(nums, d, equality)
    if levels is None or not (levels.is_equality if equality else levels.holds):
        return None
    if lattice.hull_contains(point, den, levels.on):
        return Candidate(tuple(Q(a, d) for a in nums), foot, levels)
    return None


def enumerate_candidates(problem: ValidatedProblem, dedup: bool = True,
                         equality: bool = False) -> tuple[Candidate, ...]:
    """All candidates, sorted by l; with `equality`, only those whose
    counting bound is an equality, the children of a signed-tree node.

    W permutes the candidates.  With dedup, each orbit keeps its lexicographic
    minimum alone.  On a finite set lex order agrees with a linear form that
    is positive on the lex-positive roots, so that minimum is the orbit's one
    point in the closed anti-dominant chamber (Humphreys 1990, 1.12).  The
    foot is a positive multiple of l, so `in_chamber` tests it before the
    level pass and the hull LP.  Without dedup nothing is filtered or pruned.
    """
    found = []
    if problem.lattice.weights and problem.effective_rank >= 1:
        subsets = problem.lattice.subset_feet(problem.effective_rank, dedup)
        for foot in dict.fromkeys(foot for _, foot in subsets):
            if dedup and not problem.lattice.in_chamber(foot[0]):
                continue
            cand = candidate_from_subset(problem, foot, equality)
            if cand is not None:
                found.append(cand)
    return tuple(sorted(found, key=lambda c: c.l))


def check_foot(problem: ValidatedProblem, cand: Candidate) -> None:
    """Raise InvariantError unless the stored integer-kernel foot equals the
    Fraction `perp` of the members, as the module docstring shows it must.
    Both sides are in lowest terms with den > 0, so they compare as integers."""
    member_points = [problem.weights[i][0] for i in cand.levels.on]
    if integer_point(perp(problem.space, member_points)) != cand.foot:
        raise InvariantError(
            f"candidate {cand.l}: foot {cand.foot} is not perp of the members")


def verify_candidate(problem: ValidatedProblem, cand: Candidate) -> list[str]:
    """Independent recheck of every defining property of a candidate.

    Every level test here is a `GramSpace.inner` call, so the integer
    lattice kernel is checked against Fraction arithmetic.
    """
    space = problem.space
    out: list[str] = []
    point, den = cand.foot
    foot = tuple(Q(a, den) for a in point)
    if is_zero_vec(foot):
        out.append(f"candidate {cand.l}: perpendicular foot is zero")
        return out
    expected_l = vscale(1 / space.norm_sq(foot), foot)
    if cand.l != expected_l:
        out.append(f"candidate {cand.l}: l is not foot/|foot|^2 = {expected_l}")
    heights = [space.inner(cand.l, v) for v, _ in problem.weights]
    member_points = [problem.weights[i][0] for i in cand.levels.on]
    for i in cand.levels.on:
        if heights[i] != 1:
            out.append(f"candidate {cand.l}: member weight {i} is off the hyperplane")
    if tuple(i for i, h in enumerate(heights) if h == 1) != cand.levels.on:
        out.append(f"candidate {cand.l}: member set is not saturated")
    if member_points and perp(space, member_points) != foot:
        out.append(f"candidate {cand.l}: stored foot is not perp of the members")
    if member_points and not in_convex_hull(space, foot, member_points):
        out.append(f"candidate {cand.l}: foot lies outside the member hull")
    negative = sum(1 for alpha in problem.roots if space.inner(cand.l, alpha) < 0)
    below = sum(m for (_, m), h in zip(problem.weights, heights) if h < 1)
    at_least = sum(m for (_, m), h in zip(problem.weights, heights) if h >= 1)
    levels = cand.levels
    stored = (len(levels.roots_negative), levels.mult_below, levels.mult_at_least)
    if stored != (negative, below, at_least):
        out.append(f"candidate {cand.l}: stored counts (roots<0, weights<1, "
                   f"weights>=1) {stored} != {(negative, below, at_least)}")
    if negative > below:
        out.append(f"candidate {cand.l}: counting bound fails ({negative} > {below})")
    return out
