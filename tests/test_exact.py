import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecauto.errors import ShapeError, SingularMatrixError
from vecauto.exact import (
    WORD_BITS,
    Matrix,
    RowVector,
    common_denominator_scalar,
    dot,
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


class TestMatrixShape:
    @pytest.mark.parametrize("build", [
        lambda: Matrix(0, 2, []),
        lambda: Matrix(2, -1, []),
        lambda: Matrix(2, 2, [1, 2, 3]),
        lambda: Matrix.from_rows([]),
        lambda: Matrix.from_rows([[1, 2], [3]]),
    ], ids=["no_rows", "negative_columns", "wrong_entry_count", "from_no_rows", "ragged_rows"])
    def test_malformed_shape_is_refused(self, build):
        with pytest.raises(ShapeError):
            build()


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


class TestDot:
    def test_hand_multiplied(self):
        assert dot(RowVector([Fraction(1, 2), 3]), RowVector([4, Fraction(1, 3)])) == 3

    def test_shape_mismatch(self):
        # as vec_mat_mul, not a sum over the shorter vector's entries
        with pytest.raises(ShapeError):
            dot(RowVector([1, 2, 3]), RowVector([1, 1]))


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


def fraction_product(a: list, b: list, n: int) -> list:
    """The n x n product of two row-major entry lists, by the schoolbook
    triple loop over Fractions."""
    return [sum(Fraction(a[i * n + k]) * b[k * n + j] for k in range(n))
            for i in range(n) for j in range(n)]


@settings(max_examples=100, deadline=None)
@given(product_chains())
def test_integer_products_are_the_fraction_products(chain):
    # a chain's running product, built from integer forms, is the
    # Fraction product: the same value, hash and entries, and a vector
    # times it is the vector times each matrix in turn
    start, chain_entries = chain
    n = len(start)
    matrices = [Matrix(n, n, entries) for entries in chain_entries]
    product, expected, vector = matrices[0], chain_entries[0], RowVector(start)
    for matrix, entries in zip(matrices[1:], chain_entries[1:]):
        product, expected = mat_mul(product, matrix), fraction_product(expected, entries, n)
        reference = Matrix(n, n, expected)
        assert (product.rows, product.cols) == (n, n)
        assert product == reference and hash(product) == hash(reference)
        assert product.integer_form == reference.integer_form
        assert product.entries == tuple(expected)
        assert all(type(e) is int or e.denominator > 1 for e in product.entries)
    for matrix in matrices:
        vector = vec_mat_mul(vector, matrix)
    assert vec_mat_mul(RowVector(start), product) == vector


def test_doubling_registers_hash_apart():
    # Python hashes an int modulo 2**61 - 1, so hashing the entries alone
    # repeats these hashes every 61 letters; in the second family the bit
    # lengths are equal too, and in the third the denominators repeat
    for family in (lambda k: [3 * 2**k, 2**k],
                   lambda k: [2**4000 - 2**(k + 1) + 1, 1],
                   lambda k: [Fraction(1, 2**k)]):
        hashes = {hash(RowVector(family(k))) for k in range(200)}
        assert len(hashes) == 200


def exact_bits(v):
    return max(v.den.bit_length(), *(n.bit_length() for n in v.nums))


@st.composite
def boundary_chains(draw):
    """A start vector and matrices that carry it past 2**WORD_BITS: a
    scaling repeated up to 80 times and then undone as often, with a
    permutation or sign flip mixed in, or up to 60 integer 3x3 matrices."""
    if draw(st.booleans()):
        n = 3
        start = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        matrices = draw(st.lists(st.lists(st.integers(-3, 3), min_size=9, max_size=9),
                                 min_size=1, max_size=60))
        return start, [Matrix(n, n, m) for m in matrices]
    n = draw(st.integers(1, 3))
    start = draw(st.lists(st.sampled_from(KERNEL_ENTRIES), min_size=n, max_size=n))
    t = draw(st.sampled_from([2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]))
    k = draw(st.integers(30, 80))
    flip = Matrix.from_rows([[-int(i == n - 1 - j) for j in range(n)] for i in range(n)])
    up, down = Matrix.identity(n).scale(t), Matrix.identity(n).scale(1 / Fraction(t))
    twists = draw(st.lists(st.integers(0, 2 * k), max_size=3))
    matrices = [up] * k + [down] * k
    for at in sorted(twists, reverse=True):
        matrices.insert(at, flip)
    return start, matrices


@settings(max_examples=100, deadline=None)
@given(boundary_chains())
def test_register_bits_bound_the_width_and_hash_as_the_value(chain):
    start, matrices = chain
    n = len(start)
    got, expected = RowVector(start), [Fraction(x) for x in start]
    assert got.bits == exact_bits(got)
    for m in matrices:
        got = vec_mat_mul(got, m)
        expected = [sum(expected[i] * m.entry(i, j) for i in range(n)) for j in range(n)]
        rebuilt = RowVector(expected)
        assert got.bits >= exact_bits(got) == rebuilt.bits
        if got.bits > WORD_BITS:
            assert got.bits == exact_bits(got)
        assert got == rebuilt and hash(got) == hash(rebuilt)


def test_a_register_hashes_alike_across_the_width_boundary():
    # doubled 70 times the register passes 2**60, halved as often it is
    # back to its start: equal values hash alike on both sides
    doubling, halving = Matrix.identity(2).scale(2), Matrix.identity(2).scale(Fraction(1, 2))
    start = RowVector([3, Fraction(-1, 5)])
    v, widths = start, []
    for m in [doubling] * 70 + [halving] * 70:
        v = vec_mat_mul(v, m)
        widths.append(v.bits)
        assert v == RowVector(v.entries) and hash(v) == hash(RowVector(v.entries))
    assert max(widths) > WORD_BITS >= widths[-1]
    assert v == start and hash(v) == hash(start)


# entries of the wide-denominator test: halves and quarters make a long
# chain's denominator a power of two, 1/6 gives it an odd part above 1
WIDE_ENTRIES = [Fraction(x) for x in ("1/2", "-3/4", "1/6", "-1/2", "0")]


@st.composite
def wide_denominator_chains(draw):
    """A start vector and a pattern of one to four matrices of one
    dimension 1..3, repeated 100 to 200 times. Each matrix is triangular
    with a diagonal of halves, quarters and sixths, so it is invertible
    and the chain carries the denominator to several hundred bits. A
    zero matrix may be put in among the last ten, where the register is
    wide."""
    n = draw(st.integers(1, 3))
    start = draw(st.lists(st.sampled_from([1, -1, 3, Fraction(1, 3), Fraction(-5, 6)]),
                          min_size=n, max_size=n))
    below, diagonal = st.sampled_from(WIDE_ENTRIES), st.sampled_from([e for e in WIDE_ENTRIES if e])
    triangular = st.tuples(*(diagonal if i == j else below if i > j else st.just(0)
                             for i in range(n) for j in range(n)))
    pattern = draw(st.lists(triangular.map(lambda es: Matrix(n, n, es)),
                            min_size=1, max_size=4))
    matrices = pattern * draw(st.integers(100, 200))
    if draw(st.booleans()):
        matrices.insert(len(matrices) - draw(st.integers(0, 10)), Matrix.zero(n, n))
    return start, matrices


@settings(max_examples=60, deadline=None)
@given(wide_denominator_chains())
def test_wide_power_of_two_denominators_are_reduced_exactly(chain):
    # a wide register's reduction shifts out the power of two and takes a
    # gcd only of an odd part above 1: its result is the Fraction product,
    # canonical, of exact width and hashed as the value
    start, matrices = chain
    n = len(start)
    got, expected = RowVector(start), [Fraction(x) for x in start]
    for m in matrices:
        got = vec_mat_mul(got, m)
        expected = [sum(expected[i] * m.entry(i, j) for i in range(n)) for j in range(n)]
        assert got.entries == tuple(expected)
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
        if got.bits > WORD_BITS:
            assert got.bits == exact_bits(got)
        rebuilt = RowVector(expected)
        assert got == rebuilt and hash(got) == hash(rebuilt)
