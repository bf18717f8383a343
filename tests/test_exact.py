import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecauto.errors import ShapeError, SingularMatrixError
from vecauto.exact import (
    Matrix,
    RowVector,
    common_denominator_scalar,
    format_rational,
    inverse,
    mat_mul,
    parse_rational,
    tensor,
    tensor_vec,
    vec_mat_mul,
)

A1 = Matrix.from_rows([[1, 1], [0, 3]])
A1_INV = Matrix.from_rows([[1, Fraction(-1, 3)], [0, Fraction(1, 3)]])
END = Matrix.from_rows([[1, 1], [-1, -1]])


rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


# entries of the differential kernel test: zeros, signs, and two
# denominators, so chains mix cancellation with 2- and 3-adic growth
KERNEL_ENTRIES = [Fraction(x) for x in ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "1/3")]


def square_matrices(n):
    return st.lists(rationals, min_size=n * n, max_size=n * n).map(
        lambda es: Matrix(n, n, es)
    )


class TestMatMul:
    def test_identity(self):
        a = Matrix.from_rows([[2, 3], [5, 7]])
        assert mat_mul(Matrix.identity(2), a) == a

    def test_paired_inverses_from_base3_encoding(self):
        assert mat_mul(A1, A1_INV) == Matrix.identity(2)

    def test_outer_shape(self):
        a = Matrix.from_rows([[1, 1]])
        b = Matrix.from_rows([[1], [1]])
        assert mat_mul(a, b) == Matrix.from_rows([[2]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(Matrix.identity(2), Matrix.identity(3))


class TestVecMatMul:
    def test_endmarker_collapse_on_ones(self):
        assert vec_mat_mul(RowVector([1, 1]), END) == RowVector([0, 0])

    def test_identity(self):
        v = RowVector([3, Fraction(1, 2), -1])
        assert vec_mat_mul(v, Matrix.identity(3)) == v

    def test_hand_multiplied(self):
        assert vec_mat_mul(RowVector([3, 1]), END) == RowVector([2, 2])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            vec_mat_mul(RowVector([1]), Matrix.identity(2))


class TestTensor:
    def test_shape(self):
        a = Matrix.zero(2, 3)
        b = Matrix.zero(4, 5)
        t = tensor(a, b)
        assert (t.rows, t.cols) == (8, 15)

    def test_scalars(self):
        assert tensor(Matrix.from_rows([[2]]), Matrix.from_rows([[3]])) == Matrix.from_rows([[6]])

    def test_identity_gives_block_diagonal(self):
        b = Matrix.from_rows([[1, 2], [3, 4]])
        t = tensor(Matrix.identity(2), b)
        assert t == Matrix.from_rows([
            [1, 2, 0, 0],
            [3, 4, 0, 0],
            [0, 0, 1, 2],
            [0, 0, 3, 4],
        ])


class TestTensorVec:
    def test_small(self):
        assert tensor_vec(RowVector([1, 2]), RowVector([1, 3])) == RowVector([1, 3, 2, 6])

    def test_unit_right_factor(self):
        u = RowVector([2, 5, 7])
        assert tensor_vec(u, RowVector([1])) == u

    def test_definition_oracle(self):
        u, v = RowVector([1, 5]), RowVector([1, 7])
        expected = [ui * vj for ui in u for vj in v]
        assert tensor_vec(u, v) == RowVector(expected)
        assert tensor_vec(u, v) == RowVector([1, 7, 5, 35])


class TestInverse:
    def test_base3_digit_matrix(self):
        assert inverse(A1) == A1_INV

    def test_identity(self):
        assert inverse(Matrix.identity(3)) == Matrix.identity(3)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(Matrix.zero(2, 2))

    def test_non_square(self):
        with pytest.raises(ShapeError):
            inverse(Matrix.zero(2, 3))


class TestCommonDenominator:
    def test_single_half(self):
        assert common_denominator_scalar([Matrix.from_rows([[Fraction(1, 2)]])]) == 2

    def test_lcm_of_two(self):
        ms = [Matrix.from_rows([[Fraction(1, 2)]]), Matrix.from_rows([[Fraction(1, 3)]])]
        assert common_denominator_scalar(ms) == 6

    def test_integer_matrices(self):
        assert common_denominator_scalar([Matrix.identity(3), Matrix.zero(2, 2)]) == 1
        assert common_denominator_scalar([]) == 1

    def test_scaled_matrix_is_integral(self):
        m = Matrix.from_rows([[Fraction(1, 4), Fraction(-2, 3)], [5, Fraction(7, 6)]])
        c = common_denominator_scalar([m])
        assert all((e * c).denominator == 1 for e in m.entries)
        for p in (2, 3):
            if c % p == 0:
                shrunk = Fraction(c, p)
                assert any((e * shrunk).denominator != 1 for e in m.entries)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("3/4", Fraction(3, 4)), ("-2", Fraction(-2)), ("0", Fraction(0)), ("6/4", Fraction(3, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    @pytest.mark.parametrize("value,text", [(Fraction(3, 4), "3/4"), (Fraction(5), "5"), (Fraction(-1, 2), "-1/2")])
    def test_format(self, value, text):
        assert format_rational(value) == text

    def test_round_trip(self):
        for q in [Fraction(0), Fraction(-7, 3), Fraction(22)]:
            assert parse_rational(format_rational(q)) == q


@settings(max_examples=60, deadline=None)
@given(square_matrices(2), square_matrices(2), square_matrices(2))
def test_matmul_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(square_matrices(2), square_matrices(2), square_matrices(2), square_matrices(2))
def test_tensor_mixed_product(a, b, c, d):
    left = mat_mul(tensor(a, b), tensor(c, d))
    right = tensor(mat_mul(a, c), mat_mul(b, d))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_inverse_round_trip(a):
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return
    assert mat_mul(a, inv) == Matrix.identity(3)
    assert mat_mul(inv, a) == Matrix.identity(3)


@settings(max_examples=60, deadline=None)
@given(square_matrices(2), square_matrices(2))
def test_results_stay_in_lowest_terms(a, b):
    for e in mat_mul(a, b).entries:
        assert e.denominator > 0
        assert Fraction(e.numerator, e.denominator) == e


@st.composite
def product_chains(draw):
    """A start vector and up to 40 matrices, all of one dimension 1..4."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.sampled_from(KERNEL_ENTRIES)
    start = draw(st.lists(entry, min_size=n, max_size=n))
    matrices = draw(st.lists(st.lists(entry, min_size=n * n, max_size=n * n),
                             min_size=1, max_size=40))
    return start, matrices


@settings(max_examples=100, deadline=None)
@given(product_chains())
def test_vec_mat_mul_chains_match_fraction_reference(chain):
    start, matrices = chain
    n = len(start)
    got, expected = RowVector(start), list(start)
    for entries in matrices:
        got = vec_mat_mul(got, Matrix(n, n, entries))
        expected = [sum(expected[i] * entries[i * n + j] for i in range(n)) for j in range(n)]
        assert got.entries == tuple(expected)
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
        assert all(type(e) is int or e.denominator > 1 for e in got.entries)
        rebuilt = RowVector(expected)
        assert got == rebuilt and hash(got) == hash(rebuilt)


def test_doubling_registers_hash_apart():
    # Python hashes an int modulo 2**61 - 1, so hashing the entries alone
    # repeats these hashes every 61 letters; in the second family the bit
    # lengths are equal too, and in the third the denominators repeat
    for family in (lambda k: [3 * 2**k, 2**k],
                   lambda k: [2**4000 - 2**(k + 1) + 1, 1],
                   lambda k: [Fraction(1, 2**k)]):
        hashes = {hash(RowVector(family(k))) for k in range(200)}
        assert len(hashes) == 200
