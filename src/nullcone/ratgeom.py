"""Exact rational linear and convex geometry under a positive definite form.

Vectors are tuples of Fraction; the inner product is given by a rational
Gram matrix.  Every predicate in this module is decided exactly: no floats,
no tolerances.  `GramSpace.inner`, `perp` and `in_convex_hull` take Fractions
but compute in Python ints with exact division, to the same results;
`GramSpace.covector` hands a vector's integer covector to callers that take
many inner products with it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

Q = Fraction
Vec = tuple[Q, ...]


class InputError(ValueError):
    """Malformed or out-of-contract input data."""


class ResourceError(RuntimeError):
    """A configured resource cap was exceeded."""


class InvariantError(RuntimeError):
    """An internal invariant of the algorithm does not hold."""


# ---------------------------------------------------------------------------
# rationals and vectors

def parse_rational(value: object) -> Q:
    """Parse an integer or a "p/q" string into an exact rational.

    A string is [-]p or [-]p/q in ASCII digits: no sign on q, no spaces, no
    decimal point, exponent or underscore.
    """
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, Q):
        return value
    if isinstance(value, str):
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
            raise InputError(f"not a rational: {value!r} (write p or \"p/q\")")
        try:
            return Q(value)
        except ZeroDivisionError as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r} (floats are not accepted)")


def parse_int(value: object, what: str = "value", minimum: Optional[int] = None) -> int:
    """Parse an integer or a string [-]digits, at least `minimum` if given;
    `what` names the value in the error."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{what} must be >= {minimum}, got {value}")
    return value


def rational_to_json(q: Q) -> object:
    """Serialize a rational as a bare int or a "p/q" string."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def parse_vector(values: Sequence[object]) -> Vec:
    """Parse a list or tuple of rationals; a string is not a vector."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"not a vector: {values!r}")
    return tuple(parse_rational(x) for x in values)


def vector_to_json(v: Vec) -> list[object]:
    return [rational_to_json(x) for x in v]


def vector_text(v: Vec) -> str:
    """v as a problem file writes it, for messages."""
    return json.dumps(vector_to_json(v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Q, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def zero_vec(rank: int) -> Vec:
    return (Q(0),) * rank


def integer_point(v: Sequence[Q]) -> tuple[tuple[int, ...], int]:
    """v as (point, den) in lowest terms, den > 0: den is the least common
    denominator of v's entries."""
    pairs = [q.as_integer_ratio() for q in v]
    den = math.lcm(*[d for _, d in pairs])
    if den == 1:
        return tuple([a for a, _ in pairs]), 1
    return tuple([a * (den // d) for a, d in pairs]), den


def integer_rows(rows: Sequence[Sequence[Q]],
                 width: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of `width` rationals as integer rows over their least common
    denominator."""
    nums, den = integer_point([q for row in rows for q in row])
    return tuple(nums[i:i + width] for i in range(0, len(nums), width)), den


# ---------------------------------------------------------------------------
# Gram form

def gram_violations(gram: Sequence[Sequence[Q]]) -> list[str]:
    """All reasons a matrix fails to be a symmetric positive definite form.

    Definiteness is Sylvester's test.  While the leading minors stay
    positive, elimination needs no row swaps and leading minor k is the
    product of the first k pivots.
    """
    out = []
    n = len(gram)
    if n == 0:
        return ["gram matrix is empty"]
    if any(len(row) != n for row in gram):
        return [f"gram matrix is not square: {len(gram)} rows"]
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != gram[j][i]:
                out.append(
                    f"gram matrix is not symmetric: entry ({i},{j})={gram[i][j]} "
                    f"but ({j},{i})={gram[j][i]}")
    if out:
        return out
    m = [[Q(x) for x in row] for row in gram]
    minor = Q(1)
    for k in range(n):
        minor *= m[k][k]
        if minor <= 0:
            return [f"gram matrix is not positive definite: leading minor {k + 1} "
                    f"is {minor}"]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return []


@dataclass(frozen=True)
class GramSpace:
    """A rational vector space of fixed rank with a positive definite form."""

    rank: int
    gram: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.gram) != self.rank:
            raise InputError(
                f"gram matrix has {len(self.gram)} rows for rank {self.rank}")
        bad = gram_violations(self.gram)
        if bad:
            raise InputError("; ".join(bad))

    def check_dim(self, v: Vec) -> None:
        if len(v) != self.rank:
            raise InputError(f"vector {vector_text(v)} has length {len(v)}, "
                             f"expected {self.rank}")

    @cached_property
    def integer_gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The form as (rows, den) with gram = rows / den."""
        return integer_rows(self.gram, self.rank)

    def inner(self, u: Vec, v: Vec) -> Q:
        """The Gram-form inner product of two vectors: with u = a / s,
        v = b / t and gram = G / D, one integer sum (a . G b) / (s t D)."""
        self.check_dim(u)
        self.check_dim(v)
        rows, den = self.integer_gram
        a, s = integer_point(u)
        b, t = integer_point(v)
        return Q(sum(x * sum(map(mul, row, b)) for x, row in zip(a, rows) if x),
                 s * t * den)

    def covector(self, u: Vec) -> tuple[tuple[int, ...], int]:
        """u as an integer covector (c, k): with u = a / s and gram = G / D,
        c = G a and k = s D > 0, so inner(u, v) = (c . b) / (k t) for any
        v = b / t, with no `Fraction` built."""
        self.check_dim(u)
        rows, den = self.integer_gram
        a, s = integer_point(u)
        return tuple([sum(map(mul, row, a)) for row in rows]), s * den

    def norm_sq(self, v: Vec) -> Q:
        return self.inner(v, v)


def make_space(gram_rows: Sequence[Sequence[object]]) -> GramSpace:
    rows = tuple(parse_vector(row) for row in gram_rows)
    return GramSpace(len(rows), rows)


# ---------------------------------------------------------------------------
# linear solving and independence

EchelonRows = list[tuple[int, Sequence]]


def echelon_extend(rows: EchelonRows, v: Sequence) -> Optional[EchelonRows]:
    """Add v to an independent family in echelon form; None if v is dependent.

    v is reduced against each row by w -> p w - w[piv] row, where
    p = row[piv] is the row's pivot entry.
    """
    w = v
    for piv, row in rows:
        c = w[piv]
        if c:
            p = row[piv]
            w = [p * a - c * b for a, b in zip(w, row)]
    piv = next((i for i, a in enumerate(w) if a), None)
    if piv is None:
        return None
    return rows + [(piv, w)]


def gauss_jordan(m: list[list[int]], what: str) -> int:
    """Fraction-free Gauss-Jordan on the integer rows [N | B], N positive
    definite, in place; returns det(N).  Pivot p sends each entry x of another
    row to (p x - f y) // e, f being that row's entry in the pivot column, y
    the pivot row's in x's and e the previous pivot.  The division is exact
    (Bareiss 1968); N ends as det(N) I and B as adj(N) B."""
    det = 1
    for c, pivot_row in enumerate(m):
        p = pivot_row[c]
        if p <= 0:
            raise InvariantError(f"singular {what}")
        for i, row in enumerate(m):
            if i != c:
                f = row[c]
                m[i] = [(p * x - f * y) // det for x, y in zip(row, pivot_row)]
        det = p
    return det


# ---------------------------------------------------------------------------
# perpendicular foot

def perp(space: GramSpace, points: Sequence[Vec]) -> Vec:
    """The point of the affine hull of `points` nearest the origin.

    Equivalently the unique p in aff(points) with inner(p, q1 - q2) = 0 for
    all q1, q2 in the hull.  An affinely independent spanning subset is
    chosen in order; once it has rank differences the hull is the whole
    space and the foot is the origin, with no solve.  Otherwise the foot
    comes from the normal equations over the subset, exact since the form
    is positive definite.

    In integers, with base = b / s and each difference scaled to a primitive
    integer vector d_i (the hull is the same): the foot is
    (b + sum_i x_i d_i) / s where N x = r, N_ij = inner(d_i, d_j) and
    r_i = -inner(d_i, b), over one common denominator.  N is positive definite,
    and `gauss_jordan` ends the last column as det(N) x, as Fractions would.
    """
    if not points:
        raise InputError("perp of an empty point set")
    for q in points:
        space.check_dim(q)
    base = points[0]
    if len(points) == 1:
        return base
    b, s = integer_point(base)
    rows: EchelonRows = []
    diffs: list[tuple[int, ...]] = []
    for q in points[1:]:
        nums, t = integer_point(q)
        d = [x * s - y * t for x, y in zip(nums, b)]
        grown = echelon_extend(rows, d)
        if grown is not None:
            rows = grown
            if len(rows) == space.rank:
                # the hull is the whole space, and the origin lies in it
                return zero_vec(space.rank)
            g = math.gcd(*d)
            diffs.append(tuple(x // g for x in d))
    k = len(diffs)
    system = [[Q(0)] * k + [-space.inner(d, b)] for d in diffs]
    for i in range(k):
        for j in range(i, k):
            system[i][j] = system[j][i] = space.inner(diffs[i], diffs[j])
    m = list(integer_rows(system, k + 1)[0])
    det = gauss_jordan(m, "normal equations in perp")
    return tuple(Q(det * x + sum(row[k] * d[j] for row, d in zip(m, diffs)), det * s)
                 for j, x in enumerate(b))


# ---------------------------------------------------------------------------
# convex hull membership by exact phase-1 simplex

def phase1_feasible(rows: Sequence[Sequence[int]]) -> bool:
    """Feasibility of {x >= 0 : A x = b}, each integer row [A_i, b_i], by a
    phase-1 simplex with Bland's rule.

    Each row is signed so that b_i >= 0 and given an artificial variable;
    the artificials start as the basis, and phase 1 minimizes their sum.
    The tableau stays integer over the common denominator d, the previous
    pivot: pivot p sends each entry a outside the pivot row to
    (p a - f b) // d, f being a's row entry in the pivot column and b the
    pivot row's entry in a's column.  Every entry is a minor of the starting
    tableau, so the division is exact (Bareiss 1968), and d > 0, so entries
    carry the signs of the true ones.  Ratios compare by cross-multiplication.
    The artificial columns are left out: an artificial that leaves the basis
    never re-enters, and the optimum is 0 exactly when the system is feasible.
    """
    n = len(rows[0]) - 1
    tab = [row if row[-1] >= 0 else [-a for a in row] for row in rows]
    # basic variables: the artificials n.. at first, by row
    basis = list(range(n, n + len(tab)))
    # reduced costs of the artificial sum, and its negated value last
    z = [-sum(col) for col in zip(*tab)]
    d = 1
    while True:
        enter = next((j for j in range(n) if z[j] < 0), None)
        if enter is None:
            return not z[-1]
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                best = tab[leave]
                diff = row[-1] * best[enter] - best[-1] * a
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InvariantError("phase-1 simplex: unbounded objective")
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                tab[i] = [(p * a - f * b) // d for a, b in zip(row, pivot_row)]
        f = z[enter]
        z = [(p * a - f * b) // d for a, b in zip(z, pivot_row)]
        d = p
        basis[leave] = enter


def in_convex_hull(space: GramSpace, p: Vec, points: Sequence[Vec]) -> bool:
    """Exact test for p in the convex hull of `points` (boundary included)."""
    if not points:
        raise InputError("convex hull of an empty point set")
    space.check_dim(p)
    for q in points:
        space.check_dim(q)
    rows = [[q[i] for q in points] + [p[i]] for i in range(space.rank)]
    rows.append([Q(1)] * (len(points) + 1))
    return phase1_feasible([integer_point(row)[0] for row in rows])
