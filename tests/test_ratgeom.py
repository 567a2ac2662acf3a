import math
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nullcone.ratgeom import (
    GramSpace,
    InputError,
    echelon_extend,
    gram_violations,
    in_convex_hull,
    integer_point,
    make_space,
    parse_int,
    parse_rational,
    parse_vector,
    perp,
    phase1_feasible,
    rational_to_json,
    vector_to_json,
    vscale,
    vsub,
    zero_vec,
)
from nullcone.rootdata import integer_lattice


class TestParsing:
    def test_integers_and_strings(self):
        assert parse_rational(3) == Q(3)
        assert parse_rational(-2) == Q(-2)
        assert parse_rational("1/2") == Q(1, 2)
        assert parse_rational("-7/3") == Q(-7, 3)
        assert parse_rational("4") == Q(4)

    def test_fraction_passthrough(self):
        assert parse_rational(Q(5, 6)) == Q(5, 6)

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            parse_rational(0.5)
        with pytest.raises(InputError):
            parse_rational(1.0)

    def test_bools_rejected(self):
        with pytest.raises(InputError):
            parse_rational(True)

    def test_garbage_rejected(self):
        for bad in ("a/b", "1/0", "", None, [1]):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_integers(self):
        assert parse_int(3) == 3
        assert parse_int("-4") == -4
        assert parse_int("2", minimum=2) == 2
        for bad in (True, 1.0, "1.5", "x", "", None, [1]):
            with pytest.raises(InputError, match="must be an integer"):
                parse_int(bad)
        with pytest.raises(InputError, match="must be >= 1"):
            parse_int(0, minimum=1)

    def test_loose_string_forms_rejected(self):
        # Fraction and int read these too; a problem file may only use
        # [-]p and [-]p/q
        for bad in ("0.5", "1e3", "1_0", " 4 ", "+1", "1/-2", "1 / 2", "\u0664"):
            with pytest.raises(InputError, match="not a rational"):
                parse_rational(bad)
        for bad in ("1_0", " 4 ", "+4", "1e3", "\u0664"):
            with pytest.raises(InputError, match="must be an integer"):
                parse_int(bad)
        assert parse_rational("-03/4") == Q(-3, 4)
        assert parse_int("-0") == 0

    def test_json_round_trip(self):
        assert rational_to_json(Q(1, 2)) == "1/2"
        assert rational_to_json(Q(-4)) == -4
        for value in (Q(0), Q(7), Q(-3, 5), Q(22, 7)):
            assert parse_rational(rational_to_json(value)) == value

    def test_vectors(self):
        v = parse_vector([1, "1/2", -3])
        assert v == (Q(1), Q(1, 2), Q(-3))
        assert vector_to_json(v) == [1, "1/2", -3]


def test_vector_arithmetic():
    u, v = parse_vector([1, 2]), parse_vector([3, -1])
    assert vsub(u, v) == (Q(-2), Q(3))
    assert vscale(Q(1, 2), u) == (Q(1, 2), Q(1))


class TestGram:
    def test_positive_definite(self):
        assert gram_violations(((Q(1), Q(0)), (Q(0), Q(1)))) == []
        assert gram_violations(((Q(2), Q(-1)), (Q(-1), Q(2)))) == []
        assert gram_violations(((Q(1), Q(2)), (Q(2), Q(1))))
        assert gram_violations(((Q(0),),))
        assert gram_violations(((Q(-1),),))

    def test_violations(self):
        assert gram_violations(((Q(2), Q(-1)), (Q(-1), Q(2)))) == []
        assert gram_violations(((Q(1), Q(2)), (Q(3), Q(1))))  # not symmetric
        assert gram_violations(((Q(1), Q(2)), (Q(2), Q(1))))  # not definite
        assert gram_violations(((Q(1), Q(0)),))  # ragged

    def test_violation_messages(self):
        assert gram_violations(()) == ["gram matrix is empty"]
        skew = ((Q(1), Q(2)), (Q(-2), Q(1)))  # leading minors 1 and 5
        assert gram_violations(skew) == [
            "gram matrix is not symmetric: entry (0,1)=2 but (1,0)=-2"]
        assert gram_violations(((Q(1), Q(2)), (Q(2), Q(1)))) == [
            "gram matrix is not positive definite: leading minor 2 is -3"]

    def test_space_inner(self):
        space = make_space([[2, -1], [-1, 2]])
        a, b = parse_vector([1, 0]), parse_vector([0, 1])
        assert space.inner(a, a) == Q(2)
        assert space.inner(a, b) == Q(-1)
        assert space.norm_sq((a[0] + b[0], a[1] + b[1])) == Q(2)

    def test_bad_space(self):
        with pytest.raises(InputError):
            make_space([[1, 2], [2, 1]])

    def test_dimension_mismatch(self):
        space = make_space([[1]])
        with pytest.raises(InputError):
            space.inner((Q(1), Q(2)), (Q(1), Q(2)))


IDENTITY = make_space([[1, 0], [0, 1]])


def independent_subsets(points, max_size):
    """The subsets `IntegerLattice.subset_feet` yields for weights at
    `points`; they depend on which subsets are affinely independent and span
    which flats, not on the form."""
    lattice = integer_lattice(IDENTITY, [], [(p, 1) for p in points])
    return [subset for subset, _ in lattice.subset_feet(max_size)]


def feet(points, subsets):
    """The distinct feet `perp` gives the subsets."""
    return {perp(IDENTITY, [points[i] for i in subset]) for subset in subsets}


class TestAffineSubsets:
    def test_triangle(self):
        points = [parse_vector(p) for p in ([0, 0], [1, 0], [0, 1])]
        subsets = list(independent_subsets(points, 3))
        assert (0,) in subsets and (0, 1) in subsets and (0, 1, 2) in subsets
        assert len(subsets) == 7

    def test_collinear_triple_skipped(self):
        points = [parse_vector(p) for p in ([0, 0], [1, 1], [2, 2])]
        subsets = set(independent_subsets(points, 3))
        assert (0, 1, 2) not in subsets
        # (0, 2) spans the line of (0, 1), the least index of its class
        assert (0, 1) in subsets and (0, 2) not in subsets
        assert len(subsets) == 5  # three singles, (0, 1) and (1, 2)
        assert feet(points, subsets) == feet(points, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])

    def test_size_limit(self):
        points = [parse_vector(p) for p in ([0, 0], [1, 0], [0, 1])]
        subsets = set(independent_subsets(points, 1))
        assert subsets == {(0,), (1,), (2,)}
        with pytest.raises(InputError):
            list(independent_subsets(points, 0))

    def test_brute_force_agreement(self):
        # cross-check the pruned walk against a literal rank computation
        from itertools import combinations
        points = [parse_vector(p) for p in
                  ([0, 0], [2, 1], [4, 2], [1, 1], [-1, 0])]

        def affine_rank(subset):
            base = subset[0]
            rows = []
            for q in subset[1:]:
                rows.append([x - y for x, y in zip(q, base)])
            rank = 0
            cols = len(points[0])
            for col in range(cols):
                pivot = next((i for i in range(rank, len(rows))
                              if rows[i][col] != 0), None)
                if pivot is None:
                    continue
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                for i in range(len(rows)):
                    if i != rank and rows[i][col] != 0:
                        f = rows[i][col] / rows[rank][col]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                rank += 1
            return rank

        def flat(comb):
            """The indices of the points in the affine hull of comb."""
            return frozenset(i for i, q in enumerate(points)
                             if affine_rank([points[j] for j in comb] + [q]) == len(comb) - 1)

        expected = set()
        for size in (1, 2, 3):
            for comb in combinations(range(len(points)), size):
                subset = [points[i] for i in comb]
                if affine_rank(subset) == size - 1:
                    expected.add(comb)
        found = set(independent_subsets(points, 3))
        assert found <= expected
        assert {flat(comb) for comb in found} == {flat(comb) for comb in expected}
        assert feet(points, found) == feet(points, expected)


class TestPerp:
    def test_single_point(self):
        space = make_space([[1, 0], [0, 1]])
        p = parse_vector([3, 4])
        assert perp(space, [p]) == p

    def test_symmetric_pair(self):
        space = make_space([[1, 0], [0, 1]])
        points = [parse_vector([1, 1]), parse_vector([1, -1])]
        assert perp(space, points) == parse_vector([1, 0])

    def test_skew_gram(self):
        space = make_space([[2, 1], [1, 2]])
        points = [parse_vector([1, 0]), parse_vector([0, 1])]
        assert perp(space, points) == parse_vector(["1/2", "1/2"])

    def test_duplicate_and_dependent_points(self):
        space = make_space([[2, 1], [1, 2]])
        a, b = parse_vector([1, 0]), parse_vector([0, 1])
        mid = parse_vector(["1/3", "2/3"])
        assert perp(space, [a, a, b, mid, b]) == perp(space, [a, b])
        assert perp(space, [a, a, a]) == a

    def test_coprime_denominators(self):
        space = make_space([["1/97", 0], [0, "1/101"]])
        points = [parse_vector(["1/7919", "-1/104729"]),
                  parse_vector(["1/3", "1/1299709"])]
        foot = perp(space, points)
        assert space.inner(foot, vsub(points[1], points[0])) == 0
        assert space.inner(points[1], points[0]) == Q(1, 97 * 7919 * 3) \
            - Q(1, 101 * 104729 * 1299709)

    def test_every_point_length_checked(self):
        # a long point was cut short by zip; a short one was caught only
        # through its difference with the base
        space = make_space([[1, 0], [0, 1]])
        with pytest.raises(InputError, match=r"vector \[3, 4, 5\] has length 3"):
            perp(space, [(1, 2), (3, 4, 5)])
        with pytest.raises(InputError, match=r"vector \[3\] has length 1"):
            perp(space, [(1, 2), (3,)])
        with pytest.raises(InputError, match=r"vector \[3\] has length 1"):
            perp(space, [(1, 2), (0, 1), (1, 0), (3,)])
        # in the JSON form of a problem file, as validation prints vectors
        with pytest.raises(InputError, match=r'vector \["1/2"\] has length 1, expected 2$'):
            perp(space, [(1, 2), (Q(1, 2),)])

    def test_origin_in_a_proper_flat_is_solved_for(self):
        # the line through -q and q holds the origin but is not the whole
        # plane, so the foot comes from the normal equations
        space = make_space([[2, 1], [1, "2/3"]])
        points = [parse_vector(["1/2", 1]), parse_vector(["-1/2", -1])]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GramSpace, "inner", counting_inner(calls))
            assert perp(space, points) == zero_vec(2)
        assert calls

    def test_orthogonality_property(self):
        space = make_space([[2, -1], [-1, 3]])
        points = [parse_vector(p) for p in ([1, 0], [0, 2], [1, 1])]
        foot = perp(space, points)
        for q in points[1:]:
            assert space.inner(foot, vsub(q, points[0])) == 0


# Denominators include coprime primes, so a vector's least common
# denominator can be large; integral entries are drawn as int or Fraction.
DENOMINATORS = (1, 1, 2, 3, 4, 7, 11, 13, 97, 101)


@st.composite
def entries(draw, span=6):
    q = Q(draw(st.integers(-span, span)), draw(st.sampled_from(DENOMINATORS)))
    return int(q) if q.denominator == 1 and draw(st.booleans()) else q


@st.composite
def spaces(draw):
    """A form MᵀM plus a positive diagonal, with mixed denominators."""
    rank = draw(st.integers(1, 4))
    m = [[draw(entries(3)) for _ in range(rank)] for _ in range(rank)]
    diag = [Q(draw(st.integers(1, 5)), draw(st.sampled_from(DENOMINATORS)))
            for _ in range(rank)]
    gram = tuple(tuple(sum(Q(m[k][i]) * m[k][j] for k in range(rank))
                       + (diag[i] if i == j else 0) for j in range(rank))
                 for i in range(rank))
    return GramSpace(rank, gram)


@st.composite
def point_sets(draw):
    """A space and 1 to rank + 2 points, with duplicate and affinely
    dependent points added at random positions."""
    space = draw(spaces())
    vectors = st.lists(entries(), min_size=space.rank, max_size=space.rank).map(tuple)
    points = draw(st.lists(vectors, min_size=1, max_size=space.rank + 2))
    extra = []
    if draw(st.booleans()):
        extra.append(draw(st.sampled_from(points)))
    if len(points) >= 2 and draw(st.booleans()):
        c = draw(entries(3))
        extra.append(tuple(a + c * (b - a) for a, b in zip(points[0], points[1])))
    for v in extra:
        points.insert(draw(st.integers(0, len(points))), v)
    return space, points


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_inner_is_the_double_sum(data):
    space, points = data
    u, v = points[0], points[-1]
    expected = sum((Q(u[i]) * space.gram[i][j] * v[j]
                    for i in range(space.rank) for j in range(space.rank)), Q(0))
    got = space.inner(u, v)
    assert type(got) is Q and got == expected


def covector_inner(space, u, v):
    c, k = space.covector(u)
    b, t = integer_point(v)
    assert all(type(x) is int for x in c) and type(k) is int and k > 0
    return Q(sum(x * y for x, y in zip(c, b)), k * t)


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_covector_gives_the_inner_product(data):
    space, points = data
    zero = zero_vec(space.rank)
    for u, v in ((points[0], points[-1]), (points[-1], points[0]),
                 (zero, points[0]), (points[0], zero)):
        assert covector_inner(space, u, v) == space.inner(u, v)


class TestCovector:
    def test_non_integer_forms(self):
        # the forms and points of TestPerp and test_space_inner
        cases = [
            (make_space([[2, -1], [-1, 2]]), [1, 0], [0, 1]),
            (make_space([[2, 1], [1, 2]]), ["1/3", "2/3"], [1, 0]),
            (make_space([[2, 1], [1, "2/3"]]), ["1/2", 1], ["-1/2", -1]),
            (make_space([["1/97", 0], [0, "1/101"]]),
             ["1/7919", "-1/104729"], ["1/3", "1/1299709"]),
        ]
        for space, u, v in cases:
            u, v = parse_vector(u), parse_vector(v)
            for a, b in ((u, v), (v, u), (u, u)):
                assert covector_inner(space, a, b) == space.inner(a, b)

    def test_int_entries_and_the_zero_vector(self):
        space = make_space([[2, "1/2"], ["1/2", "1/3"]])
        assert space.covector((3, -1)) == ((33, 7), 6)
        assert space.covector((Q(3), Q(-1))) == ((33, 7), 6)
        assert space.covector(zero_vec(2)) == ((0, 0), 6)
        assert covector_inner(space, (3, -1), (Q(1, 2), 5)) == space.inner((3, -1), (Q(1, 2), 5))

    def test_dimension_checked(self):
        with pytest.raises(InputError, match=r"vector \[1, 2\] has length 2"):
            make_space([[1]]).covector((1, 2))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_perp_is_the_orthogonal_point_of_the_hull(data):
    space, points = data
    foot = perp(space, points)
    base = points[0]
    rows = []
    for q in points[1:]:
        rows = echelon_extend(rows, [Q(a) - b for a, b in zip(q, base)]) or rows
    # a single point comes back as given; any other foot is solved for
    assert foot is base if len(points) == 1 else all(type(x) is Q for x in foot)
    # foot - base lies in the span of the differences
    assert echelon_extend(rows, [a - b for a, b in zip(foot, base)]) is None
    for q in points:
        assert space.inner(foot, [Q(a) - b for a, b in zip(q, base)]) == 0


def counting_inner(calls):
    inner = GramSpace.inner

    def counted(self, u, v):
        calls.append((u, v))
        return inner(self, u, v)
    return counted


@st.composite
def spanning_point_sets(draw):
    """A space and points whose differences from the first span it, with a
    repeated point at a random position."""
    space, points = draw(point_sets())
    vectors = st.lists(entries(), min_size=space.rank, max_size=space.rank).map(tuple)
    points += draw(st.lists(vectors, min_size=space.rank, max_size=space.rank))
    rows = []
    for q in points[1:]:
        rows = echelon_extend(rows, [Q(a) - b for a, b in zip(q, points[0])]) or rows
    assume(len(rows) == space.rank)
    points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(points)))
    return space, points


@settings(max_examples=200, deadline=None)
@given(spanning_point_sets())
def test_perp_of_a_spanning_set_is_the_origin_unsolved(data):
    space, points = data
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GramSpace, "inner", counting_inner(calls))
        foot = perp(space, points)
    assert foot == zero_vec(space.rank) and all(type(x) is Q for x in foot)
    assert calls == []


class TestIntegerPoint:
    @given(st.one_of(
        st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6),
        st.lists(st.builds(Q, st.integers(-50, 50), st.sampled_from(DENOMINATORS)),
                 max_size=6),
        st.lists(entries(50), max_size=6)))
    def test_lowest_terms_over_the_least_common_denominator(self, v):
        point, den = integer_point(v)
        assert type(point) is tuple and len(point) == len(v)
        assert all(type(a) is int for a in point) and type(den) is int
        assert all(Q(a, den) == q for a, q in zip(point, v))
        assert den == math.lcm(*(Q(q).denominator for q in v))
        assert math.gcd(den, *point) == 1

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6))
    def test_integers_are_returned_as_they_are(self, v):
        assert integer_point(v) == (tuple(v), 1)

    def test_empty(self):
        assert integer_point(()) == ((), 1)


class TestPhase1Feasible:
    """The simplex on integer rows [A_i | b_i], deciding some x >= 0 with
    A x = b."""

    def test_negative_right_hand_side(self):
        # -x0 - 2 x1 = -2 holds at x = (2, 0) once the row is signed
        assert phase1_feasible([[-1, -2, -2]])
        assert phase1_feasible([[1, 1, 3], [-1, 0, -1]])
        assert not phase1_feasible([[1, 1, 3], [-1, 0, -4]])

    def test_repeated_row(self):
        # the second row's artificial stays basic at 0 after the first pivot
        assert phase1_feasible([[1, 1, 2], [1, 1, 2]])
        assert phase1_feasible([(2, 3, 1, 5), (2, 3, 1, 5), (0, 1, 1, 1)])
        assert not phase1_feasible([[1, 1, 2], [1, 1, 3]])

    def test_infeasible(self):
        # x0 + x1 = 1, x0 - x1 = 3 needs x1 = -1
        assert not phase1_feasible([[1, 1, 1], [1, -1, 3]])
        assert not phase1_feasible([[1, 1, -1]])
        assert phase1_feasible([[1, 1, 3], [1, -1, 1]])

    def test_no_columns(self):
        # what `IntegerLattice.hull_contains` builds for no members
        assert phase1_feasible([[0]])
        assert phase1_feasible([[0], [0], [0]])
        assert not phase1_feasible([[0], [2]])
        assert not phase1_feasible([[-1]])

    def test_bland_leaving_row_tie_break(self):
        # Feasible in 4 pivots.  Without the tie-break on the leaving row
        # (lowest basic index among equal ratios) the simplex cycles, so it
        # runs in a child process with a timeout instead of hanging the suite.
        rows = [[-3, -3, -1, -2, 1, 0, -1, 1],
                [3, 3, 0, -3, -2, 2, 1, 0],
                [-2, -3, 1, 1, 1, -3, 3, 0]]
        script = ("from nullcone.ratgeom import phase1_feasible\n"
                  f"print(phase1_feasible({rows!r}))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail("phase1_feasible did not finish in 30 s: the simplex cycles")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "True\n"


class TestConvexHull:
    def setup_method(self):
        self.space = make_space([[1, 0], [0, 1]])
        self.tri = [parse_vector(p) for p in ([0, 0], [2, 0], [0, 2])]

    def test_inside(self):
        assert in_convex_hull(self.space, parse_vector(["1/2", "1/2"]), self.tri)

    def test_vertex_and_edge(self):
        assert in_convex_hull(self.space, parse_vector([0, 0]), self.tri)
        assert in_convex_hull(self.space, parse_vector([1, 1]), self.tri)

    def test_outside(self):
        assert not in_convex_hull(self.space, parse_vector([2, 2]), self.tri)
        assert not in_convex_hull(self.space, parse_vector([-1, 0]), self.tri)

    def test_single_point(self):
        p = parse_vector([1, 2])
        assert in_convex_hull(self.space, p, [p])
        assert not in_convex_hull(self.space, parse_vector([1, 3]), [p])

    def test_segment(self):
        seg = [parse_vector([0, 0]), parse_vector([4, 2])]
        assert in_convex_hull(self.space, parse_vector([2, 1]), seg)
        assert not in_convex_hull(self.space, parse_vector([2, 0]), seg)

    def test_rational_coordinates(self):
        pts = [parse_vector(p) for p in (["1/3", 0], [0, "1/7"], [1, 1])]
        inside = vscale(Q(1, 3), tuple(a + b + c for a, b, c in zip(*pts)))
        assert in_convex_hull(self.space, inside, pts)

    def test_caratheodory_cross_check(self):
        # independent route: p lies in the hull iff some subset of at most
        # three points carries it with nonnegative barycentric coordinates
        from itertools import combinations

        def solve_exact(rows, rhs):
            m = [list(r) + [b] for r, b in zip(rows, rhs)]
            n_cols = len(rows[0])
            pivots = []
            r = 0
            for c in range(n_cols):
                pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
                if pivot is None:
                    continue
                m[r], m[pivot] = m[pivot], m[r]
                m[r] = [x / m[r][c] for x in m[r]]
                for i in range(len(m)):
                    if i != r and m[i][c] != 0:
                        m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
                pivots.append(c)
                r += 1
            if any(m[i][-1] != 0 for i in range(r, len(m))):
                return None
            if len(pivots) < n_cols:
                return None
            x = [Q(0)] * n_cols
            for i, c in enumerate(pivots):
                x[c] = m[i][-1]
            return x

        def member_by_caratheodory(p, pts):
            for size in (1, 2, 3):
                for comb in combinations(range(len(pts)), size):
                    subset = [pts[i] for i in comb]
                    rows = [[q[d] for q in subset] for d in range(2)]
                    rows.append([Q(1)] * size)
                    coeffs = solve_exact(rows, [p[0], p[1], Q(1)])
                    if coeffs is not None and all(c >= 0 for c in coeffs):
                        return True
            return False

        pts = [parse_vector(p) for p in
               ([0, 0], [4, 0], [0, 4], [2, 2], [3, 3])]
        queries = [parse_vector([x, y]) for x in range(-1, 5) for y in range(-1, 5)]
        queries += [parse_vector(["7/2", "7/2"]), parse_vector(["1/2", "13/4"])]
        for q in queries:
            assert in_convex_hull(self.space, q, pts) \
                == member_by_caratheodory(q, pts), q


@st.composite
def hulls(draw):
    """A space, 1 to rank + 3 points and a point q of the same rank, with a
    repeated point and a point between two others added at random."""
    space = draw(spaces())
    vectors = st.lists(entries(), min_size=space.rank, max_size=space.rank).map(tuple)
    points = draw(st.lists(vectors, min_size=1, max_size=space.rank + 3))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    if len(points) >= 2 and draw(st.booleans()):
        t = Q(draw(st.integers(0, 4)), 4)
        points.append(tuple(a + t * (b - a) for a, b in zip(points[0], points[1])))
    return space, points, draw(vectors)


@settings(max_examples=200, deadline=None)
@given(hulls(), st.data())
def test_convex_combinations_are_in_the_hull(case, data):
    space, points, _ = case
    weights = [Q(data.draw(st.integers(0, 4)), data.draw(st.sampled_from(DENOMINATORS)))
               for _ in points]
    # zero weights put p on a face; a single nonzero weight on a vertex
    if not any(weights):
        weights[data.draw(st.integers(0, len(points) - 1))] = Q(1)
    total = sum(weights)
    p = tuple(sum(w * q[i] for w, q in zip(weights, points)) / total
              for i in range(space.rank))
    assert in_convex_hull(space, p, points)
    assert all(in_convex_hull(space, q, points) for q in points)


@settings(max_examples=200, deadline=None)
@given(hulls(), st.data())
def test_points_past_a_functional_are_outside_the_hull(case, data):
    space, points, q = case
    phi = data.draw(st.lists(st.integers(-3, 3), min_size=space.rank,
                             max_size=space.rank).filter(any))

    def value(v):
        return sum(f * Q(a) for f, a in zip(phi, v))
    # move q along phi until phi(p) exceeds max phi over the points
    gap = Q(data.draw(st.integers(1, 5)), data.draw(st.sampled_from(DENOMINATORS)))
    shift = (max(map(value, points)) + gap - value(q)) / sum(f * f for f in phi)
    p = tuple(a + shift * f for a, f in zip(q, phi))
    assert value(p) == max(map(value, points)) + gap
    assert not in_convex_hull(space, p, points)


def test_hull_of_a_repeated_collinear_set():
    space = make_space([["1/2", "1/3"], ["1/3", "5/7"]])
    a, b = parse_vector(["1/3", "-2/7"]), parse_vector(["4/3", "5/7"])
    mid = vscale(Q(1, 2), tuple(x + y for x, y in zip(a, b)))
    points = [a, mid, b, a, mid]
    assert in_convex_hull(space, a, points) and in_convex_hull(space, b, points)
    assert in_convex_hull(space, vscale(Q(1, 3), tuple(2 * x + y for x, y in zip(a, b))),
                          points)
    # past an end of the segment, and off its line
    assert not in_convex_hull(space, tuple(2 * y - x for x, y in zip(a, b)), points)
    assert not in_convex_hull(space, (mid[0], mid[1] + Q(1, 11)), points)
    assert in_convex_hull(space, mid, [mid, mid])
    assert not in_convex_hull(space, a, [mid])
