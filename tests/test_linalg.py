"""The int-row elimination `_eliminate` and its two callers `_solve_rows`
and `_rank_rows`, checked against a Leibniz determinant.

Rows are ints over F_p and Fractions over Q; `solve` and `rank` below clear
each Q row of its denominators with `poly._ints`, as the library's callers
do, so the kernels only ever see int rows."""

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hypadd.errors import SingularMatrix
from hypadd.linalg import _eliminate, _rank_rows, _solve_rows
from hypadd.poly import _ints
from tests.conftest import seeded

P = 10007
F7 = 7
M61 = 2**61 - 1
F3 = 3


def leibniz_det(rows, p=0):
    """Brute-force determinant of square int or Fraction rows, reduced mod
    p over F_p: the oracle for solve and rank."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * prod(rows[i][perm[i]] for i in range(n))
    return total % p if p else total


def solve(rows, b, p=0):
    """x with rows x = b, from one `_solve_rows` call on the int rows
    (rows | b), each cleared of its denominators over Q: Fractions over Q,
    residues over F_p."""
    y, det = _solve_rows([_ints(list(row) + [v], p)[0] for row, v in zip(rows, b)], len(rows), p)
    return y if p else [Fraction(v, det) for v in y]


def rank(rows, p=0):
    return _rank_rows([_ints(list(row), p)[0] for row in rows], len(rows[0]), p)


def times(rows, x, p=0):
    """rows x, reduced mod p over F_p."""
    out = [sum([a * v for a, v in zip(row, x)]) for row in rows]
    return [v % p for v in out] if p else out


def check_round_trip(rows, b, p=0):
    """solve(rows, b) satisfies rows x = b, or raises SingularMatrix exactly
    when the Leibniz determinant is 0."""
    if not leibniz_det(rows, p):
        with pytest.raises(SingularMatrix):
            solve(rows, b, p)
        return
    x = solve(rows, b, p)
    assert all(type(v) is (int if p else Fraction) for v in x)
    assert times(rows, x, p) == ([v % p for v in b] if p else list(b))


entries = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def square(n, e):
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n)


def qmats(n):
    return square(n, entries).map(lambda rows: (0, rows))


def pmats(n):
    return square(n, st.integers(0, P - 1)).map(lambda rows: (P, rows))


@settings(max_examples=30)
@given(
    st.one_of(
        st.tuples(qmats(3), st.lists(entries, min_size=3, max_size=3)),
        st.tuples(pmats(3), st.lists(st.integers(0, P - 1), min_size=3, max_size=3)),
        st.tuples(pmats(5), st.lists(st.integers(0, P - 1), min_size=5, max_size=5)),
    )
)
def test_solve_round_trip(case):
    (p, rows), b = case
    check_round_trip(rows, b, p)


def test_solve_pivot_swap():
    # leading zero forces a row swap
    assert solve([[0, 5], [1, 7]], [10, 9]) == [-5, 2]


@settings(max_examples=40)
@given(st.one_of(qmats(1), qmats(2), qmats(3), pmats(2), pmats(3)))
def test_rank_full_iff_det_nonzero(case):
    p, rows = case
    assert (rank(rows, p) == len(rows)) == (leibniz_det(rows, p) != 0)


def test_solve_identity():
    b = [3, -1, Fraction(1, 2)]
    assert solve([[int(i == j) for j in range(3)] for i in range(3)], b) == b


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0


def test_rank_rectangular():
    assert rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2
    assert rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert rank([[1, 2], [2, 4], [0, 1]]) == 2


def test_vandermonde_determinant():
    """On the int Vandermonde rows (1, x_i, ..., x_i^(n-1)) every leading
    minor is the Vandermonde determinant of the first abscissas, nonzero
    for distinct x_i, so Bareiss makes no row swap and its det is
    prod_{i<j} (x_j - x_i) itself, as the Leibniz determinant is."""
    for xs in [(1, 2, 4), (0, 3, -2, 5), (-7, 9), (6,), (2, -1, 8, 0, -3)]:
        n = len(xs)
        rows = [[x**k for k in range(n)] for x in xs]
        want = prod(xs[j] - xs[i] for i in range(n) for j in range(i + 1, n))
        assert leibniz_det(rows) == want
        pivots, det = _eliminate([list(row) for row in rows], n, 0)
        assert pivots == list(range(n))
        assert det == want


def zero_biased_f7_mats(n):
    """Int rows over F_7 with about half their entries 0, so that pivots
    are often missing mid-elimination and many systems are singular."""
    return square(n, st.one_of(st.just(0), st.integers(0, 6)))


@settings(max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(zero_biased_f7_mats(n), st.lists(st.integers(0, 6), min_size=n, max_size=n))
    )
)
def test_solve_round_trip_f7_zero_biased(case):
    rows, b = case
    check_round_trip(rows, b, F7)


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(zero_biased_f7_mats))
def test_rank_full_iff_det_nonzero_f7_zero_biased(rows):
    assert (rank(rows, F7) == len(rows)) == (leibniz_det(rows, F7) != 0)


def test_elimination_swaps_pivots_mid_way():
    # Column 1 has no pivot in row 1 after clearing column 0, so row 2 moves up.
    rows = [[1, 2, 3], [2, 4, 1], [3, 0, 5]]
    check_round_trip(rows, [1, 2, 3], F7)
    assert rank(rows, F7) == 3
    assert rank([[1, 2, 3], [2, 4, 6], [3, 6, 4]], F7) == 2


@settings(max_examples=25)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, M61 - 1), min_size=n + 1, max_size=n + 1),
            min_size=n,
            max_size=n,
        )
    )
)
def test_solve_round_trip_mersenne_61(rows):
    """Over p = 2^61 - 1 each elimination step forms piv x - f y, past
    p^2 = 2^122, before reducing it mod p, and back-substitution inverts
    each pivot mod p; the solution must still be exact."""
    check_round_trip([row[:-1] for row in rows], [row[-1] for row in rows], M61)


def zero_biased_q_mats(n):
    """Fraction rows with about half their entries 0 and the others over
    denominators above 2^40, so that clearing row denominators yields
    wide ints and pivots are often missing mid-elimination."""
    big = st.builds(Fraction, st.integers(-(2**20), 2**20), st.integers(2**40 + 1, 2**41))
    return square(n, st.one_of(st.just(Fraction(0)), big))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            zero_biased_q_mats(n),
            st.lists(st.fractions(max_denominator=2**41), min_size=n, max_size=n),
        )
    )
)
def test_solve_round_trip_q_zero_biased_wide_denominators(case):
    rows, b = case
    check_round_trip(rows, b)


def test_q_solve_swaps_pivots_mid_way():
    """Row i lies over d_i, so clearing row denominators leaves the int
    rows [[2, 1, 3], [4, 2, 1], [6, 0, 5]].  After column 0 the (1, 1)
    entry is 0, so row 2 moves up, and the last step divides exactly by
    the first pivot 2 after that swap."""
    d = [2**40 + 3, 2**41 - 1, 2**40 + 15]
    rows = [[2, 1, 3], [4, 2, 1], [6, 0, 5]]
    qrows = [[Fraction(v, di) for v in row] for row, di in zip(rows, d)]
    assert leibniz_det(qrows) == Fraction(-30, d[0] * d[1] * d[2])
    check_round_trip(qrows, [Fraction(k, di) for k, di in zip((1, -2, 3), d)])
    y, det = _solve_rows([row + [k] for row, k in zip(rows, (7, -1, 4))], 3, p=0)
    assert abs(det) == 30
    assert times(rows, [Fraction(v, det) for v in y]) == [7, -1, 4]
    # rows 0 and 1 proportional: column 1 has no pivot after the swap search
    singular = [[2, 1, 3], [4, 2, 6], [6, 0, 5]]
    with pytest.raises(SingularMatrix):
        solve([[Fraction(v, di) for v in row] for row, di in zip(singular, d)], [1, 1, 1])


def minor(rows, ri, ci, p=0):
    return leibniz_det([[rows[i][j] for j in ci] for i in ri], p)


def reference_rank(rows, p=0) -> int:
    """The order of the largest nonzero minor, by leibniz_det."""
    nr, nc = len(rows), len(rows[0])
    for r in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), r):
            if any(minor(rows, ri, ci, p) for ci in combinations(range(nc), r)):
                return r
    return 0


def reference_pivots(rows, p=0) -> list:
    """Column j has a pivot exactly when it raises the rank of the
    columns before it."""
    ranks = [reference_rank([r[:j] for r in rows], p) for j in range(1, len(rows[0]) + 1)]
    return [j for j, (r0, r1) in enumerate(zip([0] + ranks, ranks)) if r1 > r0]


def deficient_rows(rng, nr, nc, r, lo, hi):
    """An nr x nc int product B C with r inner columns, so rank at most r,
    whose column 2 is 2 (column 0) - 3 (column 1) and so has no pivot."""
    b = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(nr)]
    c = [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(r)]
    for row in c:
        row[2] = 2 * row[0] - 3 * row[1]
    return [[sum([x * row[j] for x, row in zip(brow, c)]) for j in range(nc)] for brow in b]


@pytest.mark.parametrize("p", [0, F3, F7], ids=["q", "f3", "f7"])
def test_rank_and_solve_skip_a_pivotless_middle_column(p):
    """Rank-deficient rectangular rows whose column 2 has no pivot, so
    elimination skips it and goes on past it.  Over Q each row lies over
    a denominator above 2^40, and the fraction-free elimination of the
    cleared int rows must end with det equal to the minor on the pivot
    rows and columns: keeping a wrong det after the skip, or not dividing
    by it, breaks the exact divisions that follow."""
    rng = seeded(f"pivotless-{p}")
    for nr, nc, r in [(4, 5, 3), (5, 6, 4), (4, 6, 3), (5, 5, 3)]:
        lo, hi = (0, p - 1) if p else (1, 9)
        rows = deficient_rows(rng, nr, nc, r, lo, hi)
        if p:
            m = rows
        else:
            d = [2**40 + rng.randrange(1, 2**40) for _ in rows]
            m = [[Fraction(v, di) for v in row] for row, di in zip(rows, d)]
        pivots = reference_pivots(m, p)
        assert 2 not in pivots
        assert rank(m, p) == len(pivots) == reference_rank(m, p)
        got, det = _eliminate([list(row) for row in rows], nc, p)
        assert got == pivots
        if p:
            assert det == 1
        else:
            # generic positive rows: no swap, so the pivot rows are the first ones
            assert len(pivots) == r and det == minor(rows, range(r), pivots) != 0
            sq = [[rows[i][j] for j in pivots] for i in range(r)]
            check_round_trip(sq, [Fraction(rng.randint(-9, 9), 2**41 + 1) for _ in range(r)])
        with pytest.raises(SingularMatrix):
            solve([row[:nr] for row in m], [1] * nr, p)
