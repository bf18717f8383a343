"""Exact rational scalars, row vectors, and dense matrices.

Every register update in the workbench is a row-vector-times-matrix
product over arbitrary-precision rationals. Register values grow like
2^n or 3^n, and acceptance is defined by exact equality tests, so no
floating point appears anywhere. Matrices are dense and row-major;
dimensions stay small (at most a few dozen), so sparsity is not worth
the complexity.

All values are immutable after construction and all operations are
pure, so they can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ShapeError, SingularMatrixError

# Rationals are stdlib fractions: always in lowest terms, denominator > 0,
# and zero is canonically 0/1, which is exactly the invariant we need.
# Integer values are stored as plain ints: Python guarantees they hash and
# compare consistently with Fraction, and int arithmetic is far cheaper,
# which matters in register-heavy searches.
Rational = Fraction


def _norm(value):
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _demote(value):
    if type(value) is int:
        return value
    return value.numerator if value.denominator == 1 else value


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
    """Immutable row vector of rationals."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries):
        self.entries = tuple(_norm(e) for e in entries)
        self._hash = None

    @classmethod
    def _trusted(cls, entries: tuple) -> "RowVector":
        # internal fast path: entries must already be a tuple of Fractions
        v = cls.__new__(cls)
        v.entries = entries
        v._hash = None
        return v

    @property
    def dim(self) -> int:
        return len(self.entries)

    def scale(self, t) -> "RowVector":
        t = Fraction(t)
        return RowVector(e * t for e in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, RowVector) and self.entries == other.entries

    def __hash__(self):
        # rational hashes are costly; cache since vectors are immutable
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self):
        return "RowVector(%s)" % ", ".join(format_rational(e) for e in self.entries)


class Matrix:
    """Immutable dense rational matrix, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

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

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

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
    if len(v.entries) != a.rows:
        raise ShapeError(f"cannot multiply dim-{v.dim} vector by {a.rows}x{a.cols}")
    cols = a.cols
    ae = a.entries
    out = [0] * cols
    for i, vi in enumerate(v.entries):
        if vi:
            base = i * cols
            for j in range(cols):
                aij = ae[base + j]
                if aij:
                    out[j] += vi * aij
    return RowVector._trusted(tuple(map(_demote, out)))


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
    return math.lcm(*(e.denominator for m in ms for e in m.entries))
