"""Exact dense linear algebra over the shared Scalar type.

Every solve and every rank runs one elimination, the fraction-free
`_eliminate`, on int rows for both fields: over F_p on residues mod p,
which a Matrix holds already, so its rows are copied as they are; over
Q on each row cleared of its denominators (`poly._ints`).  Solves
go through `_solve_rows`, which adds one back-substitution and returns
the solution as integer numerators over one determinant (1 over F_p).
Pivoting is always "first nonzero", so runs are reproducible across
platforms.

`Matrix` is only the Scalar API over these kernels: it holds rows of
bare values and boxes a Scalar only where a caller reads one: `rows`,
`vec`'s result and `solve`'s solution, its numerators over the
determinant read by `poly._read`.  The matrix oracles of `groupoid`
pass int rows to `_solve_rows` and `_rank_rows` and build no Matrix.
"""

from .errors import NotSquare, SingularMatrix
from .field import FieldSpec
from .poly import _ints, _read


class Matrix:
    __slots__ = ("field", "_values")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self._values = tuple([tuple([field._value(c) for c in row]) for row in rows])
        if len({len(r) for r in self._values}) > 1:
            raise ValueError("ragged rows")

    @property
    def rows(self) -> tuple:
        return tuple([self.field._box(row) for row in self._values])

    @property
    def nrows(self) -> int:
        return len(self._values)

    @property
    def ncols(self) -> int:
        return len(self._values[0]) if self._values else 0

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


def _eliminate(a, ncols: int, p: int):
    """Fraction-free forward elimination in place on the first ncols
    columns of the int rows a; returns (pivot_cols, det).

    Each pivot is the first nonzero entry at or below the current row, and
    a column with none is skipped, so the pivot count is the rank.  With
    the pivot piv, each entry x of a row below, whose pivot-column entry
    is f, becomes (piv x - f y) // det over Q, where y is the pivot row's
    entry and det the previous pivot (Bareiss, Math. Comp. 22, 1968): the
    division is exact, every entry a minor of a, and det ends as the last
    pivot, the determinant of the pivot minor up to the sign of the row
    swaps.  Over F_p (p nonzero) the entry becomes (piv x - f y) % p and
    det stays 1; each column is reduced before its pivot is sought.
    """
    pivots, det, nr = [], 1, len(a)
    for col in range(ncols):
        k = len(pivots)
        if p:
            for r in a[k:]:
                r[col] %= p
        for i in range(k, nr):
            if a[i][col]:
                break
        else:
            continue
        a[k], a[i] = a[i], a[k]
        row, piv = a[k], a[k][col]
        for r in a[k + 1 :]:
            f = r[col]
            pairs = zip(r[col + 1 :], row[col + 1 :])
            if p:
                r[col + 1 :] = [(piv * x - f * y) % p for x, y in pairs]
            else:
                r[col + 1 :] = [(piv * x - f * y) // det for x, y in pairs]
        if not p:
            det = piv
        pivots.append(col)
    return pivots, det


def _solve_rows(a, n: int, p: int):
    """Solve the system whose n int rows in a hold n coefficients and a
    right-hand side, eliminating in place; returns (y, det), x = y / det.

    `_eliminate` runs, then one back-substitution from the bottom: over Q
    det * x is integral by Cramer's rule, so each division by a pivot is
    exact; over F_p det is 1 and each pivot is inverted mod p.  A column
    with no pivot raises SingularMatrix.
    """
    pivots, det = _eliminate(a, n, p)
    if len(pivots) != n:
        raise SingularMatrix(f"rank {len(pivots)} < {n}")
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum([row[j] * y[j] for j in range(i + 1, n)])
        y[i] = acc * pow(row[i], -1, p) % p if p else acc // row[i]
    return y, det


def _rank_rows(a, ncols: int, p: int) -> int:
    """The rank of the int rows a on their first ncols columns, eliminating in place."""
    return len(_eliminate(a, ncols, p)[0])


def solve(m: Matrix, rhs) -> tuple:
    """Solve m @ x = rhs exactly for square m; raises SingularMatrix."""
    if m.nrows != m.ncols:
        raise NotSquare(f"{m.nrows}x{m.ncols} solve")
    n = m.nrows
    rhs = [m.field._value(v) for v in rhs]
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    p = m.field.modulus
    rows = [row + (b,) for row, b in zip(m._values, rhs)]
    y, det = _solve_rows([list(r) if p else _ints(r, p)[0] for r in rows], n, p)
    return _read(m.field, (y, det), n)


def rank(m: Matrix) -> int:
    p = m.field.modulus
    return _rank_rows([list(r) if p else _ints(r, p)[0] for r in m._values], m.ncols, p)


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
