"""Exact rational scalars, row vectors, and dense matrices.

Every register update in the workbench is a row-vector-times-matrix
product over arbitrary-precision rationals. Register values grow like
2^n or 3^n, and acceptance is defined by exact equality tests, so no
floating point appears anywhere. Matrices are dense and row-major;
dimensions stay small (at most a few dozen), so sparsity is not worth
the complexity.

A row vector is held as integer numerators over one positive common
denominator in lowest terms, and each matrix is compiled once into an
integer matrix over its own common denominator: the paper's scaling of
a machine by a common c, applied to every register update at run time.
A product is then integer multiply-adds and one gcd, and the reduced
form is canonical, so equal vectors have equal numerators and
denominators. Entries are exact rationals at the API boundary.

All values are immutable after construction and all operations are
pure, so they can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import ShapeError, SingularMatrixError

# Rationals are stdlib fractions: always in lowest terms, denominator > 0,
# and zero is canonically 0/1, which is exactly the invariant we need.
# Integral entries are handed out as plain ints: Python guarantees they
# hash and compare consistently with Fraction, and they are cheaper to
# format and compare.
Rational = Fraction

# a prime below 2**30, whose residues a register's hash mixes in
_HASH_PRIME = 1_073_741_789


def _norm(value):
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _demote(value):
    if type(value) is int:
        return value
    return value.numerator if value.denominator == 1 else value


def _common_denominator(values) -> int:
    """Least positive c such that c*x is an integer for every value x."""
    return math.lcm(*(x.denominator for x in values))


def _over_common_denominator(values: tuple) -> tuple:
    """``(nums, c)`` with values[i] == nums[i] / c and c the least common
    denominator, so that gcd(c, *nums) is 1."""
    c = _common_denominator(values)
    return tuple(x.numerator * (c // x.denominator) for x in values), c


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or plain "p" when it is an integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RowVector:
    """Immutable row vector of rationals: entry i is nums[i] / den.

    `den` is positive and gcd(den, *nums) is 1, so the form is canonical
    and equality compares it directly. `entries`, the values as ints and
    Fractions, is built on first use.
    """

    __slots__ = ("nums", "den", "_entries", "_hash")

    def __init__(self, entries):
        entries = tuple(_norm(e) for e in entries)
        self.nums, self.den = _over_common_denominator(entries)
        self._entries = entries
        self._hash = None

    @classmethod
    def _trusted(cls, nums: tuple, den: int) -> "RowVector":
        # internal fast path: nums / den must already be in lowest terms
        v = cls.__new__(cls)
        v.nums = nums
        v.den = den
        v._entries = None
        v._hash = None
        return v

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            den = self.den
            self._entries = self.nums if den == 1 else tuple(
                _demote(Fraction(n, den)) for n in self.nums
            )
        return self._entries

    @property
    def dim(self) -> int:
        return len(self.nums)

    def scale(self, t) -> "RowVector":
        t = Fraction(t)
        return RowVector(e * t for e in self.entries)

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, RowVector)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        # Python hashes an int n as n mod 2**61 - 1, where 2**k repeats
        # every 61 doublings, so registers built from powers of two collide
        # in families, even at equal bit lengths; mixing in residues mod a
        # second prime tells them apart. Cached, since vectors are immutable.
        if self._hash is None:
            nums = self.nums
            self._hash = hash((self.den, nums, self.den % _HASH_PRIME,
                               tuple([n % _HASH_PRIME for n in nums])))
        return self._hash

    def __repr__(self):
        return "RowVector(%s)" % ", ".join(format_rational(e) for e in self.entries)


class Matrix:
    """Immutable dense rational matrix, stored row-major."""

    __slots__ = ("rows", "cols", "entries", "_integer_form")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(_norm(e) for e in entries)
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._integer_form = None

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ShapeError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("all matrix rows must have the same length")
        return cls(len(rows), width, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def integer_form(self) -> tuple:
        """``(columns, d)``: the matrix is the integer matrix with the
        given columns divided by d, the least common denominator of its
        entries. Built on first use and cached."""
        if self._integer_form is None:
            scaled, d = _over_common_denominator(self.entries)
            columns = tuple(scaled[j :: self.cols] for j in range(self.cols))
            self._integer_form = (columns, d)
        return self._integer_form

    def scale(self, t) -> "Matrix":
        t = Fraction(t)
        return Matrix(self.rows, self.cols, (e * t for e in self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        return NotImplemented

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product a*b."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, m, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = []
    for i in range(n):
        arow = ae[i * m : (i + 1) * m]
        for j in range(p):
            acc = 0
            for k in range(m):
                aik = arow[k]
                if aik:
                    acc += aik * be[k * p + j]
            out.append(acc)
    return Matrix(n, p, out)


def vec_mat_mul(v: RowVector, a: Matrix) -> RowVector:
    """Exact row-vector-times-matrix product v*a."""
    nums = v.nums
    if len(nums) != a.rows:
        raise ShapeError(f"cannot multiply dim-{v.dim} vector by {a.rows}x{a.cols}")
    columns, d = a.integer_form
    out = tuple([sum(map(mul, nums, column)) for column in columns])
    den = v.den * d
    if den != 1:
        g = math.gcd(den, *out)
        if g != 1:
            den //= g
            out = tuple([n // g for n in out])
    return RowVector._trusted(out, den)


def tensor(a: Matrix, b: Matrix) -> Matrix:
    """Tensor (Kronecker) product: block (i,j) of the result is a[i,j]*b.

    Shapes compose as (k x l) tensor (m x n) = km x ln.
    """
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [Fraction(0)] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entry(i, j)
            if not aij:
                continue
            for p in range(b.rows):
                base = (i * b.rows + p) * cols + j * b.cols
                for q in range(b.cols):
                    out[base + q] = aij * b.entry(p, q)
    return Matrix(rows, cols, out)


def tensor_vec(u: RowVector, v: RowVector) -> RowVector:
    """Tensor product of row vectors; entry (i*len(v)+j) is u[i]*v[j]."""
    return RowVector(ui * vj for ui in u.entries for vj in v.entries)


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal matrix with a above-left and b below-right."""
    rows = [list(a.row(i)) + [0] * b.cols for i in range(a.rows)]
    rows += [[0] * a.cols + list(b.row(i)) for i in range(b.rows)]
    return Matrix.from_rows(rows)


def dot(u: RowVector, v: RowVector):
    """Exact dot product of two row vectors of one dimension."""
    return _demote(Fraction(sum(map(mul, u.nums, v.nums)), u.den * v.den))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse via rational Gauss-Jordan elimination."""
    if not a.is_square():
        raise ShapeError(f"cannot invert non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    # force Fraction entries: the elimination divides, and int division
    # would fall into floating point
    work = [
        [Fraction(e) for e in a.row(i)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [e / pivot for e in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [e - factor * p for e, p in zip(work[r], work[col])]
    return Matrix(n, n, [work[i][n + j] for i in range(n) for j in range(n)])


def common_denominator_scalar(ms) -> int:
    """Least positive integer c such that c*M is integer-valued for every M.

    This is the lcm of all entry denominators; the minimal choice keeps
    integer growth in scaled machines as small as possible.
    """
    return _common_denominator(e for m in ms for e in m.entries)
