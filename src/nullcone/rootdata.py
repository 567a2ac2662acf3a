"""Problem instances: root system, weight system, Weyl action, catalog.

A problem is a rational space with a W-invariant positive definite form, a
finite reduced root set closed under negation, and a finite weight multiset
invariant under W, the group the root reflections generate.  Validation
canonicalizes orderings so downstream reports can refer to stable indices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cache, cached_property
from operator import mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .ratgeom import (
    GramSpace,
    InputError,
    Q,
    ResourceError,
    Vec,
    gauss_jordan,
    integer_point,
    integer_rows,
    is_zero_vec,
    parse_int,
    parse_rational,
    parse_vector,
    phase1_feasible,
    vector_text,
    vector_to_json,
    vscale,
    vsub,
    zero_vec,
)

DEFAULT_ORBIT_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# reflections and orbits

def reflect(space: GramSpace, alpha: Vec, v: Vec) -> Vec:
    """Reflection of v in the hyperplane orthogonal to the root alpha."""
    if is_zero_vec(alpha):
        raise InputError("cannot reflect in the zero vector")
    c = 2 * space.inner(v, alpha) / space.norm_sq(alpha)
    return vsub(v, vscale(c, alpha)) if c else v


def _reflected(mirror: tuple[IntVec, IntVec, int], point: Foot) -> Foot:
    """The reflection of nums / den: (n nums - 2 (c . nums) a) / (n den), in
    lowest terms.  Positive scales of a and of c cancel."""
    a, c, n = mirror
    nums, den = point
    t = 2 * sum(map(mul, c, nums))
    image = [n * x - t * y for x, y in zip(nums, a)]
    k = math.gcd(n * den, *image)
    return tuple(x // k for x in image), n * den // k


def orbit_closure(space: GramSpace, roots: Iterable[Vec], v: Vec,
                  cap: int) -> tuple[Vec, ...]:
    """BFS closure of v under the reflections in `roots`, capped at `cap`
    points.  It runs on integers, one mirror per line of roots, with each
    point kept as (nums, den) in lowest terms."""
    mirrors = integer_lattice(space, roots, ()).mirrors.values()
    start = integer_point(v)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for point in frontier:
            for mirror in mirrors:
                y = _reflected(mirror, point)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ResourceError(
                            f"orbit size exceeds {cap} points")
                    new.append(y)
        frontier = new
    return tuple(sorted(tuple(Q(a, den) for a in nums) for nums, den in seen))


# ---------------------------------------------------------------------------
# integer lattice kernel

IntVec = tuple[int, ...]
Foot = tuple[IntVec, int]  # (point, den) for point / den, in lowest terms, den > 0


@dataclass(frozen=True)
class Levels:
    """Where the weights and roots of a problem lie against a direction l.

    Weight indices on and above the hyperplane {<l, .> = 1}, root indices
    on the negative, zero and positive side of {<l, .> = 0}, and the total
    multiplicity of the weights below level 1 and at level >= 1.
    """

    on: tuple[int, ...]
    above: tuple[int, ...]
    roots_negative: tuple[int, ...]
    roots_zero: tuple[int, ...]
    roots_positive: tuple[int, ...]
    mult_below: int
    mult_at_least: int

    @property
    def dimension(self) -> int:
        """Negative roots plus the multiplicity at level >= 1."""
        return len(self.roots_negative) + self.mult_at_least

    @property
    def holds(self) -> bool:
        """The counting bound: no more negative roots than the multiplicity
        below level 1."""
        return len(self.roots_negative) <= self.mult_below

    @property
    def is_equality(self) -> bool:
        """The counting bound is an equality; a stratum is open in V exactly
        when this holds for its l."""
        return len(self.roots_negative) == self.mult_below


@dataclass(frozen=True)
class IntegerLattice:
    """A problem's data with its denominators cleared once.

    The form is gram / gram_den, weight i is weights[i] / weight_den and
    root j is roots[j] / root_den, with least common denominators.  Every
    entry is a Python int, so the kernel needs no Fraction arithmetic.
    """

    gram: tuple[IntVec, ...]
    gram_den: int
    weights: tuple[IntVec, ...]
    weight_den: int
    mults: tuple[int, ...]
    roots: tuple[IntVec, ...]
    root_den: int

    def levels(self, nums: IntVec, den: int, equality: bool = False) -> Optional[Levels]:
        """Sort the roots and weights against l = nums / den, den > 0, in one
        integer pass.  With the covector c = gram nums, root j lies on the
        side of c . roots[j], and <l, weight i> = (c . weights[i]) /
        (den gram_den weight_den).  With `equality`, None as soon as the
        multiplicity below level 1 exceeds the count of negative roots: it
        only grows, so the counting bound cannot be an equality.
        """
        if len(nums) != len(self.gram):
            raise InputError(f"vector {vector_text(nums)} has length {len(nums)}, "
                             f"expected {len(self.gram)}")
        c = [sum(map(mul, row, nums)) for row in self.gram]
        one = den * self.gram_den * self.weight_den
        sides: tuple[list[int], list[int], list[int]] = ([], [], [])
        for j, alpha in enumerate(self.roots):
            level = sum(map(mul, c, alpha))
            sides[(level > 0) - (level < 0) + 1].append(j)
        negative = len(sides[0])
        on: list[int] = []
        above: list[int] = []
        mult_below = mult_at_least = 0
        for i, w in enumerate(self.weights):
            level = sum(map(mul, c, w))
            if level < one:
                mult_below += self.mults[i]
                if equality and mult_below > negative:
                    return None
            else:
                (on if level == one else above).append(i)
                mult_at_least += self.mults[i]
        return Levels(tuple(on), tuple(above),
                      tuple(sides[0]), tuple(sides[1]), tuple(sides[2]),
                      mult_below, mult_at_least)

    @cached_property
    def mirrors(self) -> dict[int, tuple[IntVec, IntVec, int]]:
        """The reflections in the roots, one per line, keyed by the index of
        the line's first root: (a, c, n), where a is the primitive integer
        vector on the line with its first nonzero entry positive, c = gram a
        and n = a . c."""
        lines: set[IntVec] = set()
        out = {}
        for j, alpha in enumerate(self.roots):
            if not any(alpha):
                raise InputError("cannot reflect in the zero vector")
            g = math.gcd(*alpha) if alpha > (0,) * len(alpha) else -math.gcd(*alpha)
            a = tuple(x // g for x in alpha)
            if a not in lines:
                lines.add(a)
                c = tuple(sum(map(mul, row, a)) for row in self.gram)
                out[j] = a, c, sum(map(mul, c, a))
        return out

    def in_chamber(self, point: IntVec) -> bool:
        """Whether <point, alpha> <= 0 for every lexicographically positive
        root alpha: the closed anti-dominant chamber, which meets each Weyl
        orbit in its lexicographic minimum alone.  Each mirror's c is a
        positive multiple of gram alpha for the positive root on its line."""
        return all(sum(map(mul, point, c)) <= 0 for _, c, _ in self.mirrors.values())

    @cached_property
    def height(self) -> IntVec:
        """gram 2rho, 2rho the sum of the lexicographically positive roots.  A
        simple root alpha has s_alpha(2rho) = 2rho - 2 alpha, so <2rho, alpha> =
        |alpha|^2: the covector is positive on the positive cone but at 0."""
        zero = (0,) * len(self.gram)
        total = [sum(x) for x in zip(zero, *(a for a in self.roots if a > zero))]
        return tuple(sum(map(mul, row, total)) for row in self.gram)

    @cached_property
    def _cone_table(self) -> tuple[list[list[int]], list[IntVec], int]:
        """The rows d_j of adj(C) A gram, the simple roots A and det(C), for
        C = A gram A^T.  A positive root is simple when its reflection keeps
        every other positive line positive (Humphreys 1990, 1.6-1.7)."""
        lines, zero = list(self.mirrors.values()), [0] * len(self.gram)
        simple = [(a, c) for a, c, n in lines
                  if all([n * x - 2 * sum(map(mul, c, b)) * y for x, y in zip(b, a)] > zero
                         for b, _, _ in lines if b != a)]
        m = [[sum(map(mul, c, b)) for b, _ in simple] + list(c) for _, c in simple]
        det = gauss_jordan(m, "Gram matrix of the simple roots")
        return [row[len(m):] for row in m], [a for a, _ in simple], det

    def in_positive_cone(self, point: IntVec) -> bool:
        """Whether point lies in the cone of the positive roots: its
        coefficients det(C) (d_j . point) on the simple roots are >= 0 and
        rebuild it.  Past 0, only points with <point, 2rho> > 0 build the table."""
        if sum(map(mul, self.height, point)) <= 0:
            return not any(point)
        rows, simple, det = self._cone_table
        coeffs = [sum(map(mul, d, point)) for d in rows]
        return min(coeffs) >= 0 and (len(simple) == len(point) or all(
            sum(map(mul, coeffs, col)) == det * x for col, x in zip(zip(*simple), point)))

    def subset_feet(self, max_size: int,
                    dedup: bool = False) -> Iterator[tuple[tuple[int, ...], Foot]]:
        """Affinely independent subsets of at most `max_size` weights, at least
        one spanning each flat (affine hull), with their feet `ratgeom.perp`
        as (point, den) in lowest terms, den > 0.  A subset lists its indices
        in visiting order: increasing without `dedup`, so lexicographic, and
        with it by descending height <w, 2rho> (`height`), then index.

        The search is fraction-free Gram-Schmidt (Erlingsson, Kaltofen and
        Musser 1996).  A later index j of a subset S carries its residual u,
        the part of w_j - w_0 orthogonal to the differences of S, as a
        primitive integer vector with first nonzero entry positive, and its
        covector gram u.  Adding j sends the foot f to f - (<f, u> / <u, u>) u,
        and each later residual and covector v to <u, u> v - <v, u> u; the
        form's scale cancels.  A zero residual puts w_j in aff(S), and equal
        ones span one flat with S, so only the first visited of each is kept.

        With `dedup`, a node with fewer than `max_size` points and a foot f
        in the cone of the positive roots (`in_positive_cone`) is neither
        yielded nor extended.  That cone is the polar of the anti-dominant
        chamber (`in_chamber`), and each foot f' of a flat through f has
        <f', f - f'> = 0, so <f', f> = |f'|^2 > 0 unless f' = 0: f' is
        outside that chamber or zero, as f is.  The order makes each weight
        in the cone a base pruned at once, and extensions go down in height.
        """
        if max_size < 1:
            raise InputError(f"max_size must be >= 1, got {max_size}")
        gram, weights, zero = self.gram, self.weights, [0] * len(self.gram)
        cut = self.in_positive_cone if dedup else lambda point: False
        order = range(len(weights))
        if dedup and max_size > 1:
            order = sorted(order, key=lambda i: (-sum(map(mul, self.height, weights[i])), i))

        def extend(subset, point, den, residuals):
            inner = len(subset) + 1 < max_size
            for k, (u, (j, cu)) in enumerate(residuals):
                norm = sum(map(mul, cu, u))
                t = sum(map(mul, cu, point))
                moved = [norm * a - t * b for a, b in zip(point, u)]
                g = math.gcd(norm * den, *moved)
                foot = tuple([a // g for a in moved]), norm * den // g
                if not inner:
                    yield subset + (j,), foot
                elif not cut(foot[0]):
                    chosen = subset + (j,)
                    yield chosen, foot
                    rest = {}
                    for v, (i, cv) in residuals[k + 1:]:
                        t = sum(map(mul, cu, v))
                        v = [norm * a - t * b for a, b in zip(v, u)]
                        g = math.gcd(*v)
                        if g:
                            g = -g if v < zero else g
                            key = tuple([a // g for a in v])
                            if key not in rest:
                                rest[key] = i, [(norm * a - t * b) // g for a, b in zip(cv, cu)]
                    yield from extend(chosen, *foot, list(rest.items()))

        for k, i in enumerate(order):
            base = weights[i]
            g = math.gcd(self.weight_den, *base)
            foot = tuple(a // g for a in base), self.weight_den // g
            if max_size == 1:
                yield (i,), foot
            elif not cut(foot[0]):
                yield (i,), foot
                rest = {}
                for j in order[k + 1:]:
                    v = list(map(sub, weights[j], base))
                    g = math.gcd(*v)
                    if g:
                        g = -g if v < zero else g
                        key = tuple([a // g for a in v])
                        if key not in rest:
                            rest[key] = j, [sum(map(mul, row, key)) for row in gram]
                yield from extend((i,), *foot, list(rest.items()))

    def direction(self, point: IntVec, den: int) -> tuple[IntVec, int]:
        """l = f / |f|^2 for the nonzero foot f = point / den, as (nums, d)
        for nums / d, not in lowest terms.

        |f|^2 = (point . gram point) / (gram_den den^2), so
        l = (gram_den den point) / (point . gram point).
        """
        norm = sum(a * sum(map(mul, row, point)) for a, row in zip(point, self.gram))
        scale = self.gram_den * den
        return tuple(a * scale for a in point), norm

    def orthogonal(self, point: IntVec, normal: IntVec) -> bool:
        """Whether <point, normal> = 0, in integers."""
        return not sum(a * sum(map(mul, row, normal)) for a, row in zip(point, self.gram))

    def may_have_children(self, foot: Foot, levels: Levels) -> bool:
        """Whether the restriction along a candidate with this integer foot and
        these levels may have equality candidates, decided before it is built.
        Its roots R' are `levels.roots_zero` and its weights the members minus
        the foot: a member at the foot is the zero weight, and two members
        that sum to twice the foot are a pair {w, -w}.

        It has none when the floor m = max(1, m_0 + sum over pairs {w, -w} of
        min(m_w, m_-w)), m_0 the zero weight's multiplicity, exceeds |R'|/2:
        against every direction l', the zero weight and one weight of each pair
        are at or below 0, and some weight is below 1 (the origin, the parent's
        foot, is in the weights' hull), so m is below level 1; at most |R'|/2
        roots are negative (R' = -R'), and an equality needs at least m.
        """
        if not levels.roots_zero:
            return False
        (point, den), scale = foot, self.weight_den
        moved = {tuple([den * x - scale * y for x, y in zip(self.weights[i], point)]):
                 self.mults[i] for i in levels.on}
        # twice the floor: the sum meets each pair twice and the zero weight once
        twice = moved.get((0,) * len(point), 0) + sum(
            min(m, moved.get(tuple([-x for x in w]), 0)) for w, m in moved.items())
        return twice <= len(levels.roots_zero)

    def restrict(self, foot: Foot, levels: Levels) -> "IntegerLattice":
        """The restriction along l from its foot l/|l|^2 = point / den and its
        levels: the roots on {l = 0}, and the level-1 weights minus the foot
        (there the projection onto {l = 0}; it keeps them distinct, sorted)."""
        (point, den), scale = foot, self.weight_den
        moved = [[den * x - scale * y for x, y in zip(self.weights[i], point)] for i in levels.on]
        g = math.gcd(den * scale, *(x for w in moved for x in w))
        roots = [self.roots[j] for j in levels.roots_zero]
        h = math.gcd(self.root_den, *(x for alpha in roots for x in alpha))
        return replace(self, weights=tuple(tuple(x // g for x in w) for w in moved),
                       weight_den=den * scale // g, mults=tuple(self.mults[i] for i in levels.on),
                       roots=tuple(tuple(x // h for x in alpha) for alpha in roots),
                       root_den=self.root_den // h)

    def hull_contains(self, point: IntVec, den: int, members: Sequence[int]) -> bool:
        """Whether point / den lies in the convex hull of the weights `members`.

        The members' centroid, each member once, is inside: a point with
        sum_j weights[j] den = |members| weight_den point needs no LP.  Any
        other is `ratgeom.phase1_feasible` on whether some y >= 0 has
        sum_j y_j weights[j] = weight_den point and sum_j y_j = den.
        """
        n = len(members)
        cols = [self.weights[j] for j in members]
        target = [a * self.weight_den for a in point]
        if cols and all(sum(col) * den == n * b for col, b in zip(zip(*cols), target)):
            return True
        rows = [[w[i] for w in cols] + [b] for i, b in enumerate(target)]
        rows.append([1] * n + [den])
        return phase1_feasible(rows)


def integer_lattice(space: GramSpace, roots: Sequence[Vec],
                    weights: Sequence[tuple[Vec, int]]) -> IntegerLattice:
    """Clear the denominators of a problem's form, weights and roots."""
    gram, gram_den = space.integer_gram
    weight_rows, weight_den = integer_rows([v for v, _ in weights], space.rank)
    root_rows, root_den = integer_rows(roots, space.rank)
    return IntegerLattice(gram=gram, gram_den=gram_den,
                          weights=weight_rows, weight_den=weight_den,
                          mults=tuple(m for _, m in weights),
                          roots=root_rows, root_den=root_den)


# ---------------------------------------------------------------------------
# problem containers

@dataclass(frozen=True)
class Problem:
    """Raw input instance: a form, roots, and weight vectors with their
    multiplicities; `validate` turns it into a ValidatedProblem."""

    space: GramSpace
    roots: tuple[Vec, ...]
    weights: tuple[tuple[Vec, int], ...]

    @staticmethod
    def of(space: GramSpace, roots: Iterable[Sequence[object]],
           weights: Iterable[tuple[Sequence[object], int]]) -> "Problem":
        """Parse each vector.  A repeated root is kept, for `validate` to
        report; the multiplicities of a repeated weight vector add up."""
        mults: dict[Vec, int] = {}
        for v, mult in weights:
            vec = parse_vector(v)
            mults[vec] = mults.get(vec, 0) + mult
        return Problem(space, tuple(map(parse_vector, roots)), tuple(mults.items()))


@dataclass(frozen=True)
class ValidatedProblem:
    """A checked instance: a form, and sorted roots and weights as a lattice.

    A restriction (`engine.restrict`) is one too, in ambient coordinates: its
    roots and weights are orthogonal (under the form) to every integer vector
    in `constraints`, the foot point of each l restricted along, a positive
    multiple of l.  A root problem is the restriction with no constraints.
    `validate` sets the Fraction `roots` and `weights` to its input, and a
    restriction reads them from its lattice on first use.
    """

    space: GramSpace
    lattice: IntegerLattice
    constraints: tuple[IntVec, ...] = ()

    @cached_property
    def roots(self) -> tuple[Vec, ...]:
        den = self.lattice.root_den
        return tuple(tuple(Q(a, den) for a in alpha) for alpha in self.lattice.roots)

    @cached_property
    def weights(self) -> tuple[tuple[Vec, int], ...]:
        den = self.lattice.weight_den
        return tuple((tuple(Q(a, den) for a in w), m)
                     for w, m in zip(self.lattice.weights, self.lattice.mults))

    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def effective_rank(self) -> int:
        return self.space.rank - len(self.constraints)

    @property
    def total_dim(self) -> int:
        return sum(m for _, m in self.weights)

    def orbit(self, v: Vec) -> tuple[Vec, ...]:
        return orbit_closure(self.space, self.roots, v, DEFAULT_ORBIT_CAP)


class ValidationError(Exception):
    """Raised by `validate`; carries the full violation list."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# ---------------------------------------------------------------------------
# validation

def _direction_key(v: Vec) -> Vec:
    """Canonical representative of the line through v, for proportionality tests."""
    lead = next(x for x in v if x)
    return vscale(1 / lead, v)


def problem_violations(problem: Problem) -> list[str]:
    out: list[str] = []
    rank = problem.space.rank

    roots = sorted(problem.roots)
    root_set: set[Vec] = set()
    for alpha in roots:
        if len(alpha) != rank:
            out.append(f"root {vector_text(alpha)} has length {len(alpha)}, expected {rank}")
            return out
        if alpha in root_set:
            out.append(f"duplicate root {vector_text(alpha)}")
        root_set.add(alpha)
        if is_zero_vec(alpha):
            out.append("zero vector listed as a root")
    by_direction: dict[Vec, set[Vec]] = {}
    for alpha in roots:
        if (minus := vscale(Q(-1), alpha)) not in root_set:
            out.append(f"root set is not closed under negation: missing {vector_text(minus)}")
        if not is_zero_vec(alpha):
            by_direction.setdefault(_direction_key(alpha), set()).add(alpha)
    for line in by_direction.values():
        if len(line) > 2:
            out.append(f"root set is not reduced on the line of {vector_text(min(line))}")

    entries = problem.weights
    if not entries:
        out.append("weight system is empty")
    seen_weights: set[Vec] = set()
    for v, mult in entries:
        if len(v) != rank:
            out.append(f"weight {vector_text(v)} has length {len(v)}, expected {rank}")
            return out
        if v in seen_weights:
            out.append(f"duplicate weight vector {vector_text(v)}")
        seen_weights.add(v)
        if mult < 1:
            out.append(f"weight {vector_text(v)} has multiplicity {mult}, expected >= 1")

    if out:
        return out

    root_points = {integer_point(alpha) for alpha in roots}
    weight_points = {integer_point(v): m for v, m in entries}
    for j, mirror in integer_lattice(problem.space, roots, ()).mirrors.items():
        if {_reflected(mirror, p) for p in root_points} != root_points:
            out.append(f"the reflection in root {vector_text(roots[j])} "
                       "does not permute the roots")
        if {_reflected(mirror, p): m for p, m in weight_points.items()} != weight_points:
            out.append(f"the reflection in root {vector_text(roots[j])} does not preserve "
                       "the weight multiset")
    return out


def validate(problem: Problem) -> ValidatedProblem:
    """Check all structural invariants; raise ValidationError listing failures."""
    bad = problem_violations(problem)
    if bad:
        raise ValidationError(bad)
    roots, weights = tuple(sorted(problem.roots)), tuple(sorted(problem.weights))
    valid = ValidatedProblem(problem.space, integer_lattice(problem.space, roots, weights))
    # the input itself: the Fraction references never read the integer kernel
    vars(valid).update(roots=roots, weights=weights)
    return valid


# ---------------------------------------------------------------------------
# JSON instance schema

def problem_from_json(data: dict) -> Problem:
    """Build a Problem from the documented JSON schema."""
    try:
        space = GramSpace(parse_int(data["rank"], "rank"),
                          tuple(parse_vector(row) for row in data["gram"]))
        roots = data.get("roots", [])
        if not isinstance(roots, list):
            raise InputError(f"roots must be a list, got {roots!r}")
        weyl = data.get("weyl", {"mode": "from_roots"})
        if weyl != {"mode": "from_roots"}:
            # G is connected, so W is the group the root reflections generate
            raise InputError(
                f'weyl must be absent or {{"mode": "from_roots"}}, got {weyl!r}')
        weights = ((entry["v"], parse_int(entry.get("mult", 1), "mult"))
                   for entry in data["weights"])
        return Problem.of(space, roots, weights)
    except KeyError as exc:
        raise InputError(f"problem JSON is missing key {exc}") from exc
    except TypeError as exc:
        raise InputError(f"malformed problem JSON: {exc}") from exc


def problem_to_json(problem: Problem) -> dict:
    return {
        "rank": problem.space.rank,
        "gram": [vector_to_json(row) for row in problem.space.gram],
        "roots": [vector_to_json(r) for r in sorted(problem.roots)],
        "weights": [{"v": vector_to_json(v), "mult": m} for v, m in sorted(problem.weights)],
        "weyl": {"mode": "from_roots"},
    }


# ---------------------------------------------------------------------------
# catalog of standard instances

_ADJOINT_TYPES = "a1-a8, b2-b8, c3-c8, d4-d8, f4 or g2"
_ADJOINT_TYPE = re.compile(r"a[1-8]|b[2-8]|c[3-8]|d[4-8]|f4|g2")


@cache
def root_system(type_name: str) -> tuple[GramSpace, tuple[Vec, ...]]:
    """The form and the sorted roots of a Cartan type, in the simple-root basis.

    The form is the symmetrized Cartan matrix with integer entries: roots
    have norm 2 in types a and d, b_n's long and short roots 2 and 1, c_n's
    and f4's 2 and 4, and g2's 2 and 6.  The roots are the Weyl orbits of
    the simple roots.  The rank stops at 8, so a catalog spec cannot ask
    for an unbounded table.
    """
    key = type_name.lower()
    if not _ADJOINT_TYPE.fullmatch(key):
        raise InputError(
            f"unknown adjoint type {type_name!r}; choose from {_ADJOINT_TYPES}")
    n = int(key[1])
    norms = {"a": [2] * n, "b": [2] * (n - 1) + [1], "c": [2] * (n - 1) + [4],
             "d": [2] * n, "f": [4, 4, 2, 2], "g": [2, 6]}[key[0]]
    bonds = [(i, i + 1) for i in range(n - 1)]
    if key[0] == "d":
        bonds[-1] = (n - 3, n - 1)
    gram = [[Q(norm if i == j else 0) for j in range(n)] for i, norm in enumerate(norms)]
    for i, j in bonds:
        # a bond's inner product is minus half the longer norm
        gram[i][j] = gram[j][i] = Q(-max(norms[i], norms[j]), 2)
    space = GramSpace(n, tuple(map(tuple, gram)))
    simple = [tuple(Q(int(i == j)) for j in range(n)) for i in range(n)]
    roots = {alpha for s in simple
             for alpha in orbit_closure(space, simple, s, DEFAULT_ORBIT_CAP)}
    return space, tuple(sorted(roots))


def _sl2_forms(*degrees: object) -> Problem:
    if not degrees:
        raise InputError("sl2-forms needs at least one degree")
    degs = [parse_int(d, "sl2-forms degree", 0) for d in degrees]
    pairs = [((m,), 1) for d in degs for m in range(-d, d + 1, 2)]
    return Problem.of(GramSpace(1, ((Q(1),),)), [(2,), (-2,)], pairs)


def _sl3_forms(degree: object) -> Problem:
    d = parse_int(degree, "sl3-forms degree", 1)
    # coordinates in the basis (e1, e2) with e3 = -e1 - e2; all |ei| equal,
    # pairwise angles 2*pi/3
    space = GramSpace(2, ((Q(2), Q(-1)), (Q(-1), Q(2))))
    roots = [(1, -1), (-1, 1), (2, 1), (-2, -1), (1, 2), (-1, -2)]
    pairs = []
    for c1 in range(d + 1):
        for c2 in range(d + 1 - c1):
            c3 = d - c1 - c2
            pairs.append(((c1 - c3, c2 - c3), 1))
    return Problem.of(space, roots, pairs)


def _adjoint(type_name: str) -> Problem:
    space, roots = root_system(str(type_name))
    pairs = [(alpha, 1) for alpha in roots] + [(zero_vec(space.rank), space.rank)]
    return Problem(space, roots, tuple(pairs))


def _gl2_ex3(a: object, b: object) -> Problem:
    qa, qb = parse_rational(a), parse_rational(b)
    if not (qa > 0 and qa * qa > qb * qb):
        raise InputError(
            f"gl2-ex3 needs a > 0 and a^2 > b^2, got a={qa}, b={qb}")
    return Problem.of(GramSpace(2, ((qa, qb), (qb, qa))), [(1, -1), (-1, 1)],
                      [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])


def _torus(*vectors: Sequence[object]) -> Problem:
    if not vectors:
        raise InputError("torus needs at least one weight vector")
    if not all(vectors):
        raise InputError("torus weight vectors must not be empty")
    vecs = [parse_vector(v) for v in vectors]
    rank = len(vecs[0])
    if any(len(v) != rank for v in vecs):
        raise InputError("torus weight vectors must all have the same length")
    ident = tuple(tuple(Q(1) if i == j else Q(0) for j in range(rank))
                  for i in range(rank))
    space = GramSpace(rank, ident)
    return Problem.of(space, [], ((v, 1) for v in vecs))


def direct_sum(p1: Problem, p2: Problem) -> Problem:
    """Outer direct sum: product group acting on the sum of the two modules."""
    if not (isinstance(p1, Problem) and isinstance(p2, Problem)):
        raise InputError("direct-sum takes two component problems")
    r1, r2 = p1.space.rank, p2.space.rank
    gram = tuple(
        tuple(p1.space.gram[i]) + zero_vec(r2) for i in range(r1)) + tuple(
        zero_vec(r1) + tuple(p2.space.gram[i]) for i in range(r2))
    space = GramSpace(r1 + r2, gram)
    roots = [a + zero_vec(r2) for a in p1.roots] + [zero_vec(r1) + b for b in p2.roots]
    pairs = [(v + zero_vec(r2), m) for v, m in p1.weights]
    pairs += [(zero_vec(r1) + v, m) for v, m in p2.weights]
    return Problem.of(space, roots, pairs)


# each catalog name with an example spec, a description, its builder and its
# number of parameters (None: any); `nullcone catalog-list` prints the rows
CATALOG = (
    ("torus", "torus:1,0|0,1|1,1", "torus action with the listed weights", _torus, None),
    ("sl2-forms", "sl2-forms:2,3,3,4,5", "sum of binary forms of the listed degrees",
     _sl2_forms, None),
    ("sl3-forms", "sl3-forms:4", "ternary forms of the given degree", _sl3_forms, 1),
    ("adjoint", "adjoint:b2", f"adjoint representation ({_ADJOINT_TYPES})", _adjoint, 1),
    ("g2-adjoint", "g2-adjoint", "shorthand for adjoint:g2", lambda: _adjoint("g2"), 0),
    ("gl2-ex3", "gl2-ex3:2,1", "three-weight rank-2 family with gram [[a,b],[b,a]]",
     _gl2_ex3, 2),
    ("direct-sum", "direct-sum:sl2-forms:2+sl2-forms:3", "outer direct sum of two specs",
     direct_sum, 2),
)


def catalog(name: str, params: Sequence[object] = ()) -> Problem:
    """Build a named standard instance."""
    for entry, _, _, build, arity in CATALOG:
        if entry == name:
            if arity is not None and len(params) != arity:
                raise InputError(
                    f"{name} takes exactly {arity} parameter(s), got {len(params)}")
            return build(*params)
    raise InputError(f"unknown catalog name {name!r}; "
                     f"choose from {[row[0] for row in CATALOG]}")


def parse_catalog_spec(text: str) -> Problem:
    """Parse a CLI catalog spec like "sl2-forms:2,3,3,4,5" or "g2-adjoint".

    torus weight vectors are separated by "|": "torus:1,0|0,1|1,1".
    direct-sum components are separated by "+": "direct-sum:sl2-forms:2+sl2-forms:3".
    """
    name, _, arg = text.partition(":")
    name = name.strip()
    if name == "direct-sum":
        parts = arg.split("+")
        if len(parts) != 2:
            raise InputError(
                f"direct-sum spec needs two '+'-separated components, got {text!r}")
        return catalog("direct-sum",
                       [parse_catalog_spec(parts[0]), parse_catalog_spec(parts[1])])
    if name == "torus":
        vectors = [[tok.strip() for tok in group.split(",")] if group.strip() else []
                   for group in arg.split("|")] if arg.strip() else []
        return catalog("torus", vectors)
    return catalog(name, [tok.strip() for tok in arg.split(",")] if arg.strip() else [])
