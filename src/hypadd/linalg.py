"""Exact dense linear algebra over the shared Scalar type.

Every solve runs on int rows through one kernel, `_solve_rows`, the only
place that picks an elimination by field: over F_p the forward
elimination `_reduce` on residues, over Q the fraction-free Bareiss
elimination, which returns the solution as integer numerators over one
determinant; both share the back-substitution.  `solve` clears each
row's denominators over Q before calling it.  `rank` runs `_reduce`
alone, on Fractions over Q.  Pivoting is always "first nonzero", so
runs are reproducible across platforms.

A Matrix holds its field and a tuple of rows of bare values.  The
elimination and the products compute on those, and Scalars are built
only where a caller reads one: `rows`, `vec`'s result and `solve`'s
solution.
"""

from fractions import Fraction
from math import lcm

from .errors import NotSquare, SingularMatrix
from .field import FieldSpec, _inverse_value


class Matrix:
    __slots__ = ("field", "_values")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self._values = tuple([tuple([field._value(c) for c in row]) for row in rows])
        if len({len(r) for r in self._values}) > 1:
            raise ValueError("ragged rows")

    @classmethod
    def _from_raw(cls, field: FieldSpec, rows) -> "Matrix":
        """The matrix with the given rows of bare values (reduced mod p here)."""
        out = cls.__new__(cls)
        out.field = field
        out._values = tuple([tuple(field._canonical(row)) for row in rows])
        return out

    @property
    def rows(self) -> tuple:
        return tuple([self.field._box(row) for row in self._values])

    @property
    def nrows(self) -> int:
        return len(self._values)

    @property
    def ncols(self) -> int:
        return len(self._values[0]) if self._values else 0

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self._values == other._values

    def __hash__(self):
        return hash((self.field, self._values))

    def vec(self, v):
        """Matrix-vector product; v is a sequence of Scalars."""
        v = [self.field._value(c) for c in v]
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return self.field._box([sum([x * y for x, y in zip(row, v)]) for row in self._values])

    def __repr__(self):
        body = "; ".join(" ".join(c.to_string() for c in row) for row in self.rows)
        return f"Matrix[{body}]"


def _reduce(a, ncols: int, p: int) -> list:
    """Forward elimination in place on the first ncols columns of the row
    list a, whose entries are bare values; returns the pivot columns.

    Each pivot is the first nonzero entry at or below the current row,
    its row is scaled to a leading 1 and only the entries below it are
    cleared, each row operation starting at the pivot column.  Over F_p
    (p nonzero) the rows below stay unreduced mod p, growing by less
    than p^2 per step: each column is reduced before its pivot is sought
    and the pivot row after scaling, so the zero tests, factors and
    pivot rows are exact.  Callers reduce what else they read.
    """
    pivots = []
    nr = len(a)
    for col in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        if p:
            for i in range(r, nr):
                a[i][col] %= p
        pivot_row = None
        for i in range(r, nr):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = _inverse_value(a[r][col], p)
        pivot = [c * inv for c in a[r][col:]]
        if p:
            pivot = [c % p for c in pivot]
        a[r][col:] = pivot
        for i in range(r + 1, nr):
            factor = a[i][col]
            if factor:
                a[i][col:] = [ci - factor * ck for ci, ck in zip(a[i][col:], pivot)]
        pivots.append(col)
    return pivots


def _solve_rows(a, n: int, p: int):
    """Solve the system whose n int rows in a hold n coefficients and a
    right-hand side, eliminating in place; returns (y, det), x = y / det.

    This is the one place that picks an elimination by field.  Over F_p
    it is `_reduce` on residues, whose pivot rows have a leading 1, and
    det is 1.  Over Q (p = 0) it is fraction-free elimination (Bareiss,
    Math. Comp. 22, 1968) with first-nonzero pivots: step k divides
    exactly by the pivot of step k - 1, so every entry is a minor of a,
    and det is the last pivot, the determinant up to the sign of the row
    swaps.  Both then back-substitute from the bottom; over Q det * x is
    integral by Cramer's rule, so each division there is exact.  A
    column with no pivot raises SingularMatrix.
    """
    det = 1
    if p:
        pivots = _reduce(a, n, p)
        if len(pivots) != n:
            raise SingularMatrix(f"rank {len(pivots)} < {n}")
    else:
        for k in range(n):
            for i in range(k, n):
                if a[i][k]:
                    break
            else:
                raise SingularMatrix(f"no pivot in column {k} of {n}")
            a[k], a[i] = a[i], a[k]
            row, piv = a[k], a[k][k]
            for r in a[k + 1 :]:
                f = r[k]
                r[k + 1 :] = [(piv * x - f * y) // det for x, y in zip(r[k + 1 :], row[k + 1 :])]
            det = piv
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum([row[j] * y[j] for j in range(i + 1, n)])
        y[i] = acc % p if p else acc // row[i]
    return y, det


def solve(m: Matrix, rhs) -> tuple:
    """Solve m @ x = rhs exactly for square m; raises SingularMatrix."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} solve")
    n = m.nrows
    rhs = [m.field._value(v) for v in rhs]
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    a = [list(row) + [b] for row, b in zip(m._values, rhs)]
    p = m.field.modulus
    if not p:
        dens = [lcm(*[v.denominator for v in row]) for row in a]
        a = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(a, dens)]
    y, det = _solve_rows(a, n, p)
    return m.field._box(y if p else [Fraction(v, det) for v in y])


def rank(m: Matrix) -> int:
    return len(_reduce([list(row) for row in m._values], m.ncols, m.field.modulus))


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
