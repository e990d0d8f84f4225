"""Exact dense linear algebra over the shared Scalar type.

Determinants over the rationals go through fraction-free (Bareiss)
elimination on a denominator-cleared integer matrix, which keeps the
intermediate entries from exploding.  Over F_p plain Gaussian
elimination is used.  Pivoting is always "first nonzero", so runs are
reproducible across platforms.
"""

from fractions import Fraction
from math import lcm

from .errors import FieldMismatch, NotSquare, SingularMatrix
from .field import FieldSpec, Scalar


class Matrix:
    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self.rows = tuple(tuple(field.scalar(c) for c in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, field: FieldSpec, cols) -> "Matrix":
        cols = [list(c) for c in cols]
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def col(self, j: int):
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __sub__(self, other):
        self._check(other)
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.rows])

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def vec(self, v):
        """Matrix-vector product; v is a sequence of Scalars."""
        v = list(v)
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return tuple(_dot(row, v, self.field) for row in self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(c.to_string() for c in row) for row in self.rows)
        return f"Matrix[{body}]"


def _dot(a, b, field):
    acc = field.zero()
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def det(m: Matrix) -> Scalar:
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} determinant")
    if m.nrows == 0:
        return m.field.one()
    if m.field.modulus == 0:
        return _det_bareiss_rational(m)
    return _det_gauss(m)


def _det_bareiss_rational(m: Matrix) -> Scalar:
    # Clear each row to integers first; Bareiss then divides exactly at
    # every step, so all intermediates stay integral.
    n = m.nrows
    scale = Fraction(1)
    a = []
    for row in m.rows:
        d = lcm(*(c.value.denominator for c in row)) if n else 1
        scale *= d
        a.append([int(c.value * d) for c in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return m.field.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return m.field.scalar(Fraction(sign * a[n - 1][n - 1], 1) / scale)


def _det_gauss(m: Matrix) -> Scalar:
    n = m.nrows
    a = [list(row) for row in m.rows]
    result = m.field.one()
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if not a[i][k].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return m.field.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            result = -result
        pivot = a[k][k]
        result = result * pivot
        inv = pivot.inverse()
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor.is_zero():
                continue
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
            a[i][k] = m.field.zero()
    return result


def solve(m: Matrix, rhs) -> tuple:
    """Solve m @ x = rhs exactly for square m; raises SingularMatrix."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} solve")
    n = m.nrows
    rhs = [m.field.scalar(v) for v in rhs]
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    a = [list(row) + [rhs[i]] for i, row in enumerate(m.rows)]
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if not a[i][k].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularMatrix("no pivot in column %d" % k)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
        inv = a[k][k].inverse()
        a[k] = [c * inv for c in a[k]]
        for i in range(n):
            if i != k and not a[i][k].is_zero():
                factor = a[i][k]
                a[i] = [ci - factor * ck for ci, ck in zip(a[i], a[k])]
    return tuple(a[i][n] for i in range(n))


def rank(m: Matrix) -> int:
    a = [list(row) for row in m.rows]
    nr = len(a)
    nc = m.ncols
    r = 0
    for col in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if not a[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][col].inverse()
        a[r] = [c * inv for c in a[r]]
        for i in range(nr):
            if i != r and not a[i][col].is_zero():
                factor = a[i][col]
                a[i] = [ci - factor * ck for ci, ck in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def vandermonde(field: FieldSpec, xs) -> Matrix:
    """Square Vandermonde matrix with rows (1, x_i, ..., x_i^(n-1))."""
    xs = [field.scalar(x) for x in xs]
    n = len(xs)
    rows = []
    for x in xs:
        row = [field.one()]
        for _ in range(n - 1):
            row.append(row[-1] * x)
        rows.append(row)
    return Matrix(field, rows)
