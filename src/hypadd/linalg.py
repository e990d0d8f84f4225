"""Exact dense elimination on int rows.

Every solve and every rank runs one elimination, the fraction-free
`_eliminate`, on int rows for both fields: over F_p on residues mod p,
over Q on rows that the caller has cleared of their denominators
(`poly._ints`).  Solves go through `_solve_rows`, which adds one
back-substitution and returns the solution as integer numerators over
one determinant (1 over F_p), a kernel pair that `poly._read` boxes.
`_rank_rows` counts the pivots.  Pivoting is always "first nonzero", so
runs are reproducible across platforms.  The callers are the h-solve of
`groupoid.star` and the matrix oracles of `groupoid`.
"""

from .errors import SingularMatrix


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
