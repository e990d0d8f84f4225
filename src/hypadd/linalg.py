"""Exact dense linear algebra over the shared Scalar type.

`solve` and `rank` share one Gauss-Jordan elimination over the field,
with Fraction entries over Q and residues over F_p.  Pivoting is always
"first nonzero", so runs are reproducible across platforms.

`Matrix.rows`, `vec`'s result and `solve`'s solution are Scalars.  The
elimination and the products unwrap the entries' bare values once,
compute on them and box the results once.
"""

from .errors import FieldMismatch, NotSquare, SingularMatrix
from .field import FieldSpec, _inverse_value


class Matrix:
    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self.rows = tuple([tuple([field.scalar(c) for c in row]) for row in rows])
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def _from_raw(cls, field: FieldSpec, rows) -> "Matrix":
        """The matrix with the given rows of bare values (reduced mod p here)."""
        out = cls.__new__(cls)
        out.field = field
        out.rows = tuple([field._box(row) for row in rows])
        return out

    def _values(self) -> list:
        return [[c.value for c in row] for row in self.rows]

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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __sub__(self, other):
        self._check(other)
        return Matrix._from_raw(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._values(), other._values())],
        )

    def __neg__(self):
        return Matrix._from_raw(self.field, [[-a for a in row] for row in self._values()])

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def vec(self, v):
        """Matrix-vector product; v is a sequence of Scalars."""
        v = [self.field.scalar(c).value for c in v]
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return self.field._box([sum([x * y for x, y in zip(row, v)]) for row in self._values()])

    def __repr__(self):
        body = "; ".join(" ".join(c.to_string() for c in row) for row in self.rows)
        return f"Matrix[{body}]"


def _reduce(a, ncols: int, p: int) -> list:
    """Gauss-Jordan elimination in place on the first ncols columns of the
    row list a, whose entries are bare values; returns the pivot columns.

    Each pivot is the first nonzero entry at or below the current row,
    its row is scaled to a leading 1 and the column is cleared above
    and below it.  Over F_p (p nonzero) the other rows stay unreduced
    mod p, growing by less than p^2 per step: each column is reduced
    before its pivot is sought and the pivot row after scaling, so the
    zero tests and factors are exact.  Callers reduce what they read.
    """
    pivots = []
    nr = len(a)
    for col in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        if p:
            for row in a:
                row[col] %= p
        pivot_row = None
        for i in range(r, nr):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = _inverse_value(a[r][col], p)
        pivot = [c * inv for c in a[r]]
        if p:
            pivot = [c % p for c in pivot]
        a[r] = pivot
        for i in range(nr):
            factor = a[i][col]
            if i != r and factor:
                a[i] = [ci - factor * ck for ci, ck in zip(a[i], pivot)]
        pivots.append(col)
    return pivots


def solve(m: Matrix, rhs) -> tuple:
    """Solve m @ x = rhs exactly for square m; raises SingularMatrix."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} solve")
    n = m.nrows
    rhs = [m.field.scalar(v).value for v in rhs]
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    a = [row + [b] for row, b in zip(m._values(), rhs)]
    pivots = _reduce(a, n, m.field.modulus)
    if len(pivots) != n:
        raise SingularMatrix(f"rank {len(pivots)} < {n}")
    return m.field._box([row[n] for row in a])


def rank(m: Matrix) -> int:
    return len(_reduce(m._values(), m.ncols, m.field.modulus))


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
