from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hypadd import make_field
from hypadd.errors import FieldMismatch, NotSquare, SingularMatrix
from hypadd.linalg import Matrix, _eliminate, _solve_rows, rank, solve, vandermonde
from tests.conftest import seeded

Q = make_field("q")
P = make_field("fp", 10007)
F7 = make_field("fp", 7)
M61 = make_field("fp", 2**61 - 1)
F3 = make_field("fp", 3)


def leibniz_det(m: Matrix):
    """Brute-force determinant, the oracle for solve and rank."""
    n = len(m.rows)
    total = m.field.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = m.field.one() if sign == 1 else -m.field.one()
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total = total + term
    return total


def holds_field_scalars(values, field):
    kind = Fraction if field.modulus == 0 else int
    return type(values) is tuple and all(
        c.field == field and type(c.value) is kind for c in values
    )


def qmat(rows):
    return Matrix(Q, tuple(tuple(Q.scalar(x) for x in row) for row in rows))


entries = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def qmats(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(qmat)


def pmats(n):
    e = st.integers(min_value=0, max_value=10006)
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: Matrix(P, tuple(tuple(P.scalar(x) for x in row) for row in rows))
    )


@settings(max_examples=30)
@given(
    st.one_of(
        st.tuples(qmats(3), st.lists(entries, min_size=3, max_size=3)),
        st.tuples(pmats(3), st.lists(st.integers(0, 10006), min_size=3, max_size=3)),
        st.tuples(pmats(5), st.lists(st.integers(0, 10006), min_size=5, max_size=5)),
    )
)
def test_solve_round_trip(case):
    m, b = case
    bvec = tuple(m.field.scalar(x) for x in b)
    if leibniz_det(m).is_zero():
        with pytest.raises(SingularMatrix):
            solve(m, bvec)
        return
    x = solve(m, bvec)
    assert holds_field_scalars(x, m.field)
    assert m.vec(x) == bvec


def test_solve_pivot_swap():
    # leading zero forces a row swap
    m = qmat([[0, 5], [1, 7]])
    b = (Q.scalar(10), Q.scalar(9))
    assert solve(m, b) == (Q.scalar(-5), Q.scalar(2))


def test_solve_not_square():
    with pytest.raises(NotSquare):
        solve(qmat([[1, 2, 3], [4, 5, 6]]), (Q.one(), Q.one()))


@settings(max_examples=40)
@given(st.one_of(qmats(1), qmats(2), qmats(3), pmats(2), pmats(3)))
def test_rank_full_iff_det_nonzero(m):
    assert (rank(m) == m.nrows) == (not leibniz_det(m).is_zero())


def test_solve_identity():
    m = Matrix(Q, [[int(i == j) for j in range(3)] for i in range(3)])
    b = (Q.scalar(3), Q.scalar(-1), Q.scalar("1/2"))
    assert solve(m, b) == b


def test_rank():
    assert rank(qmat([[1, 2], [2, 4]])) == 1
    assert rank(qmat([[1, 0], [0, 1]])) == 2
    assert rank(Matrix(Q, ((Q.zero(), Q.zero()),))) == 0


def test_rank_rectangular():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank(m) == 2


def test_vandermonde_determinant():
    xs = tuple(Q.scalar(v) for v in (1, 2, 4))
    v = vandermonde(Q, xs)
    want = Q.one()
    for i in range(3):
        for j in range(i + 1, 3):
            want = want * (xs[j] - xs[i])
    assert leibniz_det(v) == want


def test_matrix_vec():
    m = qmat([[1, 2], [3, 4]])
    assert m.vec((Q.scalar(1), Q.scalar(1))) == (Q.scalar(3), Q.scalar(7))


def test_results_hold_field_scalars():
    for m in (qmat([[1, 2], [3, 4]]), Matrix(P, ((1, 2), (3, 4)))):
        v = (m.field.scalar(1), m.field.scalar(-1))
        assert holds_field_scalars(m.vec(v), m.field)
        assert holds_field_scalars(solve(m, v), m.field)


def test_foreign_field_rejected():
    f7 = make_field("fp", 7)
    with pytest.raises(FieldMismatch):
        Matrix(f7, [[Q.scalar(1)]])
    m = Matrix(f7, [[1, 0], [0, 1]])
    with pytest.raises(FieldMismatch):
        solve(m, (f7.one(), Q.one()))
    with pytest.raises(FieldMismatch):
        m.vec((f7.one(), P.one()))


def test_equality_on_canonical_entries():
    """Computed matrices compare and hash by their reduced entries, and
    matrices over different fields never compare equal."""
    m = Matrix(P, [[1, 2], [3, 4]])
    raw = Matrix(P, [[-1, -2], [-3, -4]])
    neg = Matrix(P, [[10006, 10005], [10004, 10003]])
    assert raw == neg and hash(raw) == hash(neg)
    assert Matrix(Q, [[1, 2], [3, 4]]) != m


def zero_biased_f7_mats(n):
    """Matrices over F_7 with about half their entries 0, so that pivots
    are often missing mid-elimination and many systems are singular."""
    e = st.one_of(st.just(0), st.integers(0, 6))
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: Matrix(F7, rows)
    )


@settings(max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(zero_biased_f7_mats(n), st.lists(st.integers(0, 6), min_size=n, max_size=n))
    )
)
def test_solve_round_trip_f7_zero_biased(case):
    m, b = case
    bvec = tuple(F7.scalar(x) for x in b)
    if leibniz_det(m).is_zero():
        with pytest.raises(SingularMatrix):
            solve(m, bvec)
        return
    x = solve(m, bvec)
    assert holds_field_scalars(x, F7)
    assert m.vec(x) == bvec


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(zero_biased_f7_mats))
def test_rank_full_iff_det_nonzero_f7_zero_biased(m):
    assert (rank(m) == m.nrows) == (not leibniz_det(m).is_zero())


def test_elimination_swaps_pivots_mid_way():
    # Column 1 has no pivot in row 1 after clearing column 0, so row 2 moves up.
    m = Matrix(F7, [[1, 2, 3], [2, 4, 1], [3, 0, 5]])
    b = (F7.scalar(1), F7.scalar(2), F7.scalar(3))
    assert m.vec(solve(m, b)) == b
    assert rank(m) == 3
    assert rank(Matrix(F7, [[1, 2, 3], [2, 4, 6], [3, 6, 4]])) == 2


@settings(max_examples=25)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 2**61 - 2), min_size=n + 1, max_size=n + 1),
            min_size=n,
            max_size=n,
        )
    )
)
def test_solve_round_trip_mersenne_61(rows):
    """Over p = 2^61 - 1 each elimination step forms piv x - f y, past
    p^2 = 2^122, before reducing it mod p, and back-substitution inverts
    each pivot mod p; the solution must still be exact."""
    m = Matrix(M61, [row[:-1] for row in rows])
    bvec = tuple(M61.scalar(row[-1]) for row in rows)
    if leibniz_det(m).is_zero():
        with pytest.raises(SingularMatrix):
            solve(m, bvec)
        return
    x = solve(m, bvec)
    assert holds_field_scalars(x, M61)
    assert m.vec(x) == bvec


def zero_biased_q_mats(n):
    """Matrices over Q with about half their entries 0 and the others
    over denominators above 2^40, so that clearing row denominators
    yields wide ints and pivots are often missing mid-elimination."""
    big = st.builds(
        Fraction, st.integers(-(2**20), 2**20), st.integers(2**40 + 1, 2**41)
    )
    e = st.one_of(st.just(Fraction(0)), big)
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n).map(qmat)


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
    m, b = case
    bvec = tuple(Q.scalar(x) for x in b)
    if leibniz_det(m).is_zero():
        with pytest.raises(SingularMatrix):
            solve(m, bvec)
        return
    x = solve(m, bvec)
    assert holds_field_scalars(x, Q)
    assert m.vec(x) == bvec


def test_q_solve_swaps_pivots_mid_way():
    """Row i lies over d_i, so clearing row denominators leaves the int
    rows [[2, 1, 3], [4, 2, 1], [6, 0, 5]].  After column 0 the (1, 1)
    entry is 0, so row 2 moves up, and the last step divides exactly by
    the first pivot 2 after that swap."""
    d = [2**40 + 3, 2**41 - 1, 2**40 + 15]
    rows = [[2, 1, 3], [4, 2, 1], [6, 0, 5]]
    m = qmat([[Fraction(v, di) for v in row] for row, di in zip(rows, d)])
    assert leibniz_det(m) == Q.scalar(Fraction(-30, d[0] * d[1] * d[2]))
    b = tuple(Q.scalar(Fraction(k, di)) for k, di in zip((1, -2, 3), d))
    x = solve(m, b)
    assert holds_field_scalars(x, Q)
    assert m.vec(x) == b
    y, det = _solve_rows([row + [k] for row, k in zip(rows, (7, -1, 4))], 3, p=0)
    assert abs(det) == 30
    assert qmat(rows).vec(tuple(Q.scalar(Fraction(v, det)) for v in y)) == (
        Q.scalar(7),
        Q.scalar(-1),
        Q.scalar(4),
    )
    # rows 0 and 1 proportional: column 1 has no pivot after the swap search
    singular = [[2, 1, 3], [4, 2, 6], [6, 0, 5]]
    with pytest.raises(SingularMatrix):
        solve(qmat([[Fraction(v, di) for v in row] for row, di in zip(singular, d)]), b)


def minor(m: Matrix, ri, ci):
    return leibniz_det(Matrix(m.field, [[m.rows[i][j] for j in ci] for i in ri]))


def reference_rank(m: Matrix) -> int:
    """The order of the largest nonzero minor, by leibniz_det."""
    for r in range(min(m.nrows, m.ncols), 0, -1):
        for ri in combinations(range(m.nrows), r):
            if any(not minor(m, ri, ci).is_zero() for ci in combinations(range(m.ncols), r)):
                return r
    return 0


def reference_pivots(m: Matrix) -> list:
    """Column j has a pivot exactly when it raises the rank of the
    columns before it."""
    ranks = [reference_rank(Matrix(m.field, [r[:j] for r in m.rows])) for j in range(1, m.ncols + 1)]
    return [j for j, (r0, r1) in enumerate(zip([0] + ranks, ranks)) if r1 > r0]


def deficient_rows(rng, nr, nc, r, lo, hi):
    """An nr x nc int product B C with r inner columns, so rank at most r,
    whose column 2 is 2 (column 0) - 3 (column 1) and so has no pivot."""
    b = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(nr)]
    c = [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(r)]
    for row in c:
        row[2] = 2 * row[0] - 3 * row[1]
    return [[sum([x * row[j] for x, row in zip(brow, c)]) for j in range(nc)] for brow in b]


@pytest.mark.parametrize("field", [Q, F3, F7], ids=["q", "f3", "f7"])
def test_rank_and_solve_skip_a_pivotless_middle_column(field):
    """Rank-deficient rectangular matrices whose column 2 has no pivot,
    so elimination skips it and goes on past it.  Over Q each row lies
    over a denominator above 2^40, and the fraction-free elimination of
    the cleared int rows must end with det equal to the minor on the
    pivot rows and columns: keeping a wrong det after the skip, or not
    dividing by it, breaks the exact divisions that follow."""
    rng = seeded(f"pivotless-{field.modulus}")
    for nr, nc, r in [(4, 5, 3), (5, 6, 4), (4, 6, 3), (5, 5, 3)]:
        lo, hi = (1, 9) if field is Q else (0, field.modulus - 1)
        rows = deficient_rows(rng, nr, nc, r, lo, hi)
        if field is Q:
            d = [2**40 + rng.randrange(1, 2**40) for _ in rows]
            m = qmat([[Fraction(v, di) for v in row] for row, di in zip(rows, d)])
        else:
            m = Matrix(field, rows)
        pivots = reference_pivots(m)
        assert 2 not in pivots
        assert rank(m) == len(pivots) == reference_rank(m)
        got, det = _eliminate([list(row) for row in rows], nc, field.modulus)
        assert got == pivots
        if field is Q:
            # generic positive rows: no swap, so the pivot rows are the first ones
            assert len(pivots) == r and det == minor(qmat(rows), range(r), pivots) != 0
            square = qmat([[rows[i][j] for j in pivots] for i in range(r)])
            b = tuple(Q.scalar(Fraction(rng.randint(-9, 9), 2**41 + 1)) for _ in range(r))
            assert square.vec(solve(square, b)) == b
        else:
            assert det == 1
        with pytest.raises(SingularMatrix):
            solve(Matrix(field, [row[:nr] for row in m.rows]), [field.one()] * nr)
