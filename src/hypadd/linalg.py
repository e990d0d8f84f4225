"""Exact dense linear algebra over the shared Scalar type.

`solve` and `rank` share one Gauss-Jordan elimination over the field,
with Fraction entries over Q and residues over F_p.  Pivoting is always
"first nonzero", so runs are reproducible across platforms.
"""

from .errors import FieldMismatch, NotSquare, SingularMatrix
from .field import FieldSpec


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


def _reduce(a, ncols: int) -> list:
    """Gauss-Jordan elimination in place on the first ncols columns of the
    row list a; returns the pivot columns.

    Each pivot is the first nonzero entry at or below the current row,
    its row is scaled to a leading 1 and the column is cleared above
    and below it.
    """
    pivots = []
    nr = len(a)
    for col in range(ncols):
        r = len(pivots)
        if r == nr:
            break
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
        pivots.append(col)
    return pivots


def solve(m: Matrix, rhs) -> tuple:
    """Solve m @ x = rhs exactly for square m; raises SingularMatrix."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} solve")
    n = m.nrows
    rhs = [m.field.scalar(v) for v in rhs]
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    a = [list(row) + [rhs[i]] for i, row in enumerate(m.rows)]
    pivots = _reduce(a, n)
    if len(pivots) != n:
        raise SingularMatrix(f"rank {len(pivots)} < {n}")
    return tuple(row[n] for row in a)


def rank(m: Matrix) -> int:
    return len(_reduce([list(row) for row in m.rows], m.ncols))


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
