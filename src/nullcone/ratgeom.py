"""Exact rational linear and convex geometry under a positive definite form.

Vectors are tuples of Fraction; the inner product is given by a rational
Gram matrix.  Every predicate in this module is decided exactly: no floats,
no tolerances.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Q, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def zero_vec(rank: int) -> Vec:
    return (Q(0),) * rank


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
            raise InputError(f"vector {v} has length {len(v)}, expected {self.rank}")

    def inner(self, u: Vec, v: Vec) -> Q:
        """The Gram-form inner product of two vectors."""
        self.check_dim(u)
        self.check_dim(v)
        total = Q(0)
        for i, ui in enumerate(u):
            if ui:
                row = self.gram[i]
                total += ui * sum((row[j] * vj for j, vj in enumerate(v) if vj), Q(0))
        return total

    def norm_sq(self, v: Vec) -> Q:
        return self.inner(v, v)


def make_space(gram_rows: Sequence[Sequence[object]]) -> GramSpace:
    rows = tuple(parse_vector(row) for row in gram_rows)
    return GramSpace(len(rows), rows)


# ---------------------------------------------------------------------------
# linear solving and independence

def solve_linear_exact(a: Sequence[Sequence[Q]], b: Sequence[Q]) -> Optional[Vec]:
    """Solve a square rational system exactly; None if singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise InputError("solve_linear_exact expects a square matrix")
    if len(b) != n:
        raise InputError(f"right-hand side has length {len(b)}, expected {n}")
    m = [[Q(x) for x in row] + [Q(y)] for row, y in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


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


# ---------------------------------------------------------------------------
# perpendicular foot

def perp(space: GramSpace, points: Sequence[Vec]) -> Vec:
    """The point of the affine hull of `points` nearest the origin.

    Equivalently the unique p in aff(points) with inner(p, q1 - q2) = 0 for
    all q1, q2 in the hull.  Computed from the normal equations over an
    affinely independent spanning subset, which is complete once it has
    rank differences; exact since the form is positive definite.
    """
    if not points:
        raise InputError("perp of an empty point set")
    base = points[0]
    space.check_dim(base)
    rows: EchelonRows = []
    diffs: list[Vec] = []
    for q in points[1:]:
        if len(rows) == space.rank:
            break
        d = vsub(q, base)
        grown = echelon_extend(rows, d)
        if grown is not None:
            rows = grown
            diffs.append(d)
    if not diffs:
        return base
    k = len(diffs)
    normal = [[space.inner(diffs[i], diffs[j]) for j in range(k)] for i in range(k)]
    rhs = [-space.inner(diffs[i], base) for i in range(k)]
    coeffs = solve_linear_exact(normal, rhs)
    if coeffs is None:
        # the Gram matrix of independent differences is invertible
        raise InvariantError(f"singular normal equations in perp of {list(points)}")
    foot = base
    for c, d in zip(coeffs, diffs):
        if c:
            foot = vadd(foot, vscale(c, d))
    return foot


# ---------------------------------------------------------------------------
# convex hull membership by exact phase-1 simplex

def _phase1_feasible(rows: list[list[Q]], rhs: list[Q]) -> bool:
    """Feasibility of {x >= 0 : rows @ x = rhs} with Bland's rule."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab: list[list[Q]] = []
    for row, b in zip(rows, rhs):
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(list(row) + [Q(0)] * m + [b])
    for i in range(m):
        tab[i][n + i] = Q(1)
    basis = list(range(n, n + m))
    # bottom row: reduced costs for minimizing the artificial sum, then -objective
    z = [Q(0)] * (n + m + 1)
    for j in range(n):
        z[j] = -sum(tab[i][j] for i in range(m))
    z[-1] = -sum(tab[i][-1] for i in range(m))
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise InvariantError("phase-1 simplex: unbounded objective")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, tab[leave])]
        basis[leave] = enter
    return z[-1] == 0


def in_convex_hull(space: GramSpace, p: Vec, points: Sequence[Vec]) -> bool:
    """Exact test for p in the convex hull of `points` (boundary included)."""
    if not points:
        raise InputError("convex hull of an empty point set")
    space.check_dim(p)
    for q in points:
        space.check_dim(q)
    n = len(points)
    rows = [[points[j][i] for j in range(n)] for i in range(space.rank)]
    rows.append([Q(1)] * n)
    rhs = [p[i] for i in range(space.rank)] + [Q(1)]
    return _phase1_feasible(rows, rhs)
