import decimal
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    SingularMatrixError,
    affine_rank,
    common_denominator,
    greedy_row_basis,
    mat_det,
    mat_rank,
    nthroot_bounds,
    primitive_direction,
    solve_linear,
)
from toricpack.linalg import (
    floor_nthroot,
    format_rat,
    gcd_primitive,
    nthroot_decimal,
    rat,
    rational_nthroot,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def leibniz_det(rows):
    """Determinant as the signed sum over permutations, no elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def minor_rank(rows):
    """Size of the largest nonzero minor."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                if leibniz_det([[rows[r][c] for c in ci] for r in ri]):
                    return k
    return 0


def low_rank_matrices(max_rows=4, max_cols=4):
    """Integer matrices A = B C with B m x r and C r x n, so rank(A) <= r."""

    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_rows))
        n = draw(st.integers(1, max_cols))
        r = draw(st.integers(0, min(m, n)))
        entries = st.integers(-3, 3)
        b = [[draw(entries) for _ in range(r)] for _ in range(m)]
        c = [[draw(entries) for _ in range(n)] for _ in range(r)]
        return [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)] for i in range(m)]

    return build()


class TestGcdPrimitive:
    def test_examples(self):
        assert gcd_primitive((4, 6)) == ((2, 3), 2)
        assert gcd_primitive((1, 0, 0)) == ((1, 0, 0), 1)
        # Direction is preserved, never sign-flipped.
        assert gcd_primitive((-2, -2)) == ((-1, -1), 2)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero direction"):
            gcd_primitive((0, 0, 0))

    @pytest.mark.parametrize("v", [(0,), (0, 0), [0, 0, 0, 0]])
    def test_all_zero_vectors(self, v):
        with pytest.raises(ValueError, match="zero direction"):
            gcd_primitive(v)

    def test_primitive_input_returned(self):
        v = (3, -5, 7)
        prim, g = gcd_primitive(v)
        assert (prim, g) == (v, 1)
        assert prim is v
        assert gcd_primitive([2, 3]) == ((2, 3), 1)

    def test_negative_entries(self):
        assert gcd_primitive((-6, 4)) == ((-3, 2), 2)
        assert gcd_primitive((0, -9)) == ((0, -1), 9)
        assert gcd_primitive((-1, 0)) == ((-1, 0), 1)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=5),
        st.integers(1, 9),
    )
    def test_scaling_invariance(self, entries, k):
        if all(e == 0 for e in entries):
            return
        v = tuple(entries)
        scaled = tuple(k * e for e in v)
        assert gcd_primitive(scaled)[0] == gcd_primitive(v)[0]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    def test_output_primitive(self, entries):
        if all(e == 0 for e in entries):
            return
        prim, g = gcd_primitive(tuple(entries))
        assert g > 0
        assert gcd_primitive(prim) == (prim, 1)


class TestDet:
    def test_identity(self):
        assert mat_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_hand_cofactor(self):
        # 0 * (-1) - 2 * (-1) = 2
        assert mat_det([[0, 2], [-1, -1]]) == 2

    def test_scaling(self):
        half = Fraction(1, 2)
        assert mat_det([[half, 0], [0, half]]) == Fraction(1, 4)

    def test_non_square(self):
        with pytest.raises(ValueError):
            mat_det([[1, 0, 0], [0, 1, 0]])

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_against_cofactor_expansion(self, rows):
        a = rows
        expected = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert mat_det(rows) == expected


    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_rational_against_leibniz(self, rows):
        assert mat_det(rows) == leibniz_det(rows)


class TestUnimodular:
    def test_examples(self):
        assert abs(mat_det([[1, 0], [0, 1]])) == 1
        # Columns (0,-1), (2,-1) as a matrix: det 2.
        assert abs(mat_det([[0, 2], [-1, -1]])) != 1
        assert abs(mat_det([[1, 0], [1, 1]])) == 1


class TestSolve:
    def test_identity(self):
        assert solve_linear([[1, 0], [0, 1]], [3, 4]) == (3, 4)

    def test_back_substitution(self):
        assert solve_linear([[1, 0], [1, 1]], [1, 2]) == (1, 1)

    def test_singular(self):
        with pytest.raises(SingularMatrixError, match="degenerate system"):
            solve_linear([[1, 1], [2, 2]], [1, 2])

    @given(
        st.lists(
            st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4
        ),
        st.lists(rationals, min_size=4, max_size=4),
    )
    @settings(max_examples=40)
    def test_residual_exactly_zero(self, rows, rhs):
        if mat_det(rows) == 0:
            return
        x = solve_linear(rows, rhs)
        for row, b in zip(rows, rhs):
            assert sum(rat(c) * xi for c, xi in zip(row, x)) == rat(b)


class TestRankAndDirections:
    def test_rank(self):
        assert mat_rank([[1, 2], [2, 4]]) == 1
        assert mat_rank([[1, 0], [0, 1], [1, 1]]) == 2
        assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
        assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
        assert affine_rank([]) == -1

    @given(st.one_of(low_rank_matrices(), st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=4)))
    @settings(max_examples=80)
    def test_rank_against_largest_minor(self, rows):
        assert mat_rank(rows) == minor_rank(rows)

    @given(low_rank_matrices(max_rows=6, max_cols=3))
    @settings(max_examples=60)
    def test_greedy_row_basis_by_prefix_ranks(self, rows):
        # Row k is in the basis iff it raises the rank of the rows before it.
        expect = [k for k in range(len(rows)) if minor_rank(rows[: k + 1]) > minor_rank(rows[:k])]
        assert greedy_row_basis(rows) == expect

    @given(st.lists(rationals, max_size=6))
    @settings(max_examples=60)
    def test_common_denominator(self, xs):
        nums, q = common_denominator(xs)
        assert [Fraction(x, q) for x in nums] == xs
        assert q == math.lcm(*(x.denominator for x in xs))

    def test_primitive_direction(self):
        u, t = primitive_direction((Fraction(1, 2), Fraction(1, 2)))
        assert u == (1, 1) and t == Fraction(1, 2)
        u, t = primitive_direction((Fraction(-3), Fraction(3)))
        assert u == (-1, 1) and t == 3


class TestRoots:
    def test_floor_nthroot(self):
        assert floor_nthroot(26, 3) == 2
        assert floor_nthroot(27, 3) == 3
        assert floor_nthroot(10**30, 3) == 10**10
        assert floor_nthroot(0, 5) == 0

    @given(st.integers(0, 10**12), st.integers(1, 6))
    def test_floor_nthroot_bracket(self, m, n):
        r = floor_nthroot(m, n)
        assert r**n <= m < (r + 1) ** n

    def test_rational_nthroot(self):
        assert rational_nthroot(Fraction(8, 27), 3) == Fraction(2, 3)
        assert rational_nthroot(Fraction(2), 2) is None
        assert rational_nthroot(Fraction(0), 4) == 0

    def test_negative_radicand(self):
        with pytest.raises(ValueError, match="^floor_nthroot requires m >= 0, n >= 1$"):
            floor_nthroot(-1, 2)
        for root in (rational_nthroot, nthroot_decimal):
            with pytest.raises(ValueError, match="^negative radicand$"):
                root(Fraction(-1, 4), 2)

    def test_bounds_enclose(self):
        lo, hi = nthroot_bounds(Fraction(2), 2, 40)
        assert lo**2 <= 2 <= hi**2
        assert hi - lo == Fraction(1, 10**40)

    def test_decimal_against_decimal_module(self):
        # Independent oracle: the stdlib decimal module at high precision.
        decimal.getcontext().prec = 50
        want = str(decimal.Decimal(2).sqrt())[:31]
        assert nthroot_decimal(Fraction(2), 2, 30) == want

    def test_decimal_shapes(self):
        assert nthroot_decimal(Fraction(1, 4), 2, 6) == "0.500000"
        assert nthroot_decimal(Fraction(4), 2, 4) == "2.000"
        assert nthroot_decimal(Fraction(10**12), 2, 5) == "1000000"
        assert nthroot_decimal(Fraction(1, 100), 2, 3) == "0.100"
        assert nthroot_decimal(Fraction(0), 3) == "0"


class TestRationalInvariants:
    @given(rationals, rationals)
    def test_sum_and_product_canonical(self, a, b):
        # Lowest terms with positive denominator, via the gcd.
        import math

        for q in (a + b, a * b):
            assert q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1


class TestFormat:
    def test_roundtrip(self):
        assert format_rat(Fraction(3, 4)) == "3/4"
        assert format_rat(Fraction(-7)) == "-7"
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-7") == -7
        assert rat(Fraction(1, 3)) == Fraction(1, 3)

    @given(rationals)
    def test_parse_format_identity(self, q):
        assert rat(format_rat(q)) == q

    # Each of these once read as a rational: a decimal, an exponent, spaces,
    # a sign "+", an Arabic-Indic digit one, an underscore, a float; and a
    # zero denominator.
    @pytest.mark.parametrize(
        "value", ["1e5", "0.5", " 3 ", "+2", "١", "1_000", 0.1, "1/0", "", "1/", "/2"]
    )
    def test_rat_refuses_outside_the_grammar(self, value):
        with pytest.raises(ValueError, match="not a rational"):
            rat(value)
