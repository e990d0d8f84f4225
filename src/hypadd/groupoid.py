"""Addition on the universal space of g-point bundles over odd hyperelliptic curves.

A point of the space is a triple (p_even, p_odd, z) of g-vectors.  The
even part encodes a monic degree-g polynomial u(x) = x^g - sum p_even[i] x^i
whose roots are g abscissas, the odd part encodes the interpolating
ordinates v(x), and z fixes the lower half of the curve coefficients.
The anchor map sends such a triple to the full coefficient vector of the
unique curve

    y^2 = x^(2g+1) + lam_4 x^(2g-1) + ... + lam_(4g+2)

passing through all g encoded points with the given lower half.  Two
triples with equal anchors therefore live on one curve, and `star`
produces a third triple on the same curve: the g residual intersection
points of the curve with the lowest-order function vanishing at both
inverted inputs.  Inversion flips the sign of the odd part.

(u, v) is the Mumford pair of the point, and the steps of the law are
polynomial arithmetic modulo u:

    anchor       Z1 = (v^2 - x^(2g+1) - x^g z) mod u
    kl_columns   x^k (x^g mod u) and x^k v mod u, one product by x at a time
    odd part     v3 = -(x^g r2 + r3) r1^(-1) mod u3, u3 = norm(R) / (u1 u2)

The matrix routes (build_r_determinant, rank_witness, anchor_s) stay as
independent checks of that core.

Weights: x has weight 2, y weight 2g+1, every coefficient with index k
weight k.  All vectors here are stored highest weight first.
"""

from .errors import (
    AnchorMismatch,
    DegenerateConfiguration,
    InvariantViolation,
    NonzeroRemainder,
    NotMonicDegree3g,
    RepeatedAbscissa,
    SingularMatrix,
    ZeroScale,
)
from .field import FieldSpec, Scalar
from .linalg import Matrix, rank, solve, vandermonde
from .poly import Poly, from_roots, x_power, xgcd


class CurveParams:
    """Coefficients of y^2 = f(x), split into upper (lambda1) and lower
    (lambda2) weight halves, each highest weight first."""

    __slots__ = ("genus", "lambda1", "lambda2")

    def __init__(self, genus: int, lambda1, lambda2):
        self.genus = genus
        self.lambda1 = tuple(lambda1)
        self.lambda2 = tuple(lambda2)
        if len(self.lambda1) != genus or len(self.lambda2) != genus:
            raise ValueError("expected g coefficients in each half")

    @property
    def field(self) -> FieldSpec:
        return self.lambda1[0].field

    def __eq__(self, other):
        if not isinstance(other, CurveParams):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.lambda1 == other.lambda1
            and self.lambda2 == other.lambda2
        )

    def __hash__(self):
        return hash((self.genus, self.lambda1, self.lambda2))

    def __repr__(self):
        return f"CurveParams(g={self.genus}, {self.lambda1}, {self.lambda2})"


class GroupoidPoint:
    """A triple (p_even, p_odd, z) of g-vectors, highest weight first."""

    __slots__ = ("p_even", "p_odd", "z")

    def __init__(self, p_even, p_odd, z):
        self.p_even = tuple(p_even)
        self.p_odd = tuple(p_odd)
        self.z = tuple(z)
        g = len(self.p_even)
        if len(self.p_odd) != g or len(self.z) != g:
            raise ValueError("p_even, p_odd, z must all have length g")

    @property
    def genus(self) -> int:
        return len(self.p_even)

    @property
    def field(self) -> FieldSpec:
        return self.p_even[0].field

    def __eq__(self, other):
        if not isinstance(other, GroupoidPoint):
            return NotImplemented
        return (
            self.p_even == other.p_even
            and self.p_odd == other.p_odd
            and self.z == other.z
        )

    def __hash__(self):
        return hash((self.p_even, self.p_odd, self.z))

    def __repr__(self):
        return f"GroupoidPoint({self.p_even}, {self.p_odd}, {self.z})"


class PointListRep:
    """g affine curve points with distinct abscissas, plus the z vector."""

    __slots__ = ("pairs", "z")

    def __init__(self, pairs, z):
        self.pairs = tuple((x, y) for x, y in pairs)
        self.z = tuple(z)
        if len(self.pairs) != len(self.z):
            raise ValueError("expected g pairs and g z entries")

    @property
    def genus(self) -> int:
        return len(self.pairs)

    @property
    def field(self) -> FieldSpec:
        return self.pairs[0][0].field


class RFunction:
    """The interpolating function R(x, y) = r1(x) y + x^g r2(x) + r3(x).

    Coefficients are indexed by co-weight: h[k] multiplies the unique
    monomial x^i y^j (j in {0,1}) of weight 3g - k.  h[0] is pinned to 1
    and marks the leading monomial.  Slots are stored explicitly even
    when zero; co-weights with no monomial (the gap values) are absent.
    """

    __slots__ = ("genus", "h")

    def __init__(self, genus: int, h: dict):
        self.genus = genus
        self.h = dict(h)
        if self.h.get(0) != self.field.one():
            raise ValueError("leading coefficient h[0] must be 1")

    @property
    def field(self) -> FieldSpec:
        return self.h[0].field

    def h_at(self, coweight: int) -> Scalar:
        got = self.h.get(coweight)
        return got if got is not None else self.field.zero()

    def r1(self) -> Poly:
        g = self.genus
        rho = (g - 1) // 2
        return Poly(self.field, [self.h_at(g - 1 - 2 * i) for i in range(rho + 1)])

    def r2(self) -> Poly:
        g = self.genus
        rho = (g - 1) // 2
        return Poly(self.field, [self.h_at(g - 2 * i) for i in range(g - rho)])

    def r3(self) -> Poly:
        g = self.genus
        return Poly(self.field, [self.h_at(3 * g - 2 * i) for i in range(g)])

    def __eq__(self, other):
        if not isinstance(other, RFunction):
            return NotImplemented
        return self.genus == other.genus and self.h == other.h

    def __repr__(self):
        inner = ", ".join(f"h{k}={v.to_string()}" for k, v in sorted(self.h.items()))
        return f"RFunction(g={self.genus}, {inner})"


def curve_poly(c: CurveParams) -> Poly:
    """f(x) = x^(2g+1) + x^g * (lower half) + (upper half), ascending.

    Highest-weight-first coefficient vectors are already ascending in
    x-power, so both halves splice in directly.
    """
    coeffs = list(c.lambda1) + list(c.lambda2)
    coeffs += [c.field.zero(), c.field.one()]
    return Poly(c.field, coeffs)


def u_poly(a: GroupoidPoint) -> Poly:
    """Monic abscissa polynomial x^g - sum p_even[i] x^i."""
    return Poly(a.field, [-p for p in a.p_even] + [a.field.one()])


def v_poly(a: GroupoidPoint) -> Poly:
    """Ordinate interpolation polynomial of degree < g."""
    return Poly(a.field, a.p_odd)


def invert(a: GroupoidPoint) -> GroupoidPoint:
    """The groupoid involution: flip the sign of the odd part."""
    return GroupoidPoint(a.p_even, tuple([-p for p in a.p_odd]), a.z)


def _vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def anchor(a: GroupoidPoint):
    """Project a point to its curve coefficients (Z1, Z2).

    Z2 is the z vector itself.  Z1 is determined by requiring every
    encoded curve point (x_i, v(x_i)) to satisfy the curve equation,
    which is the single congruence

        Z1 = (v^2 - x^(2g+1) - x^g z) mod u

    with z read as a polynomial ascending in x.  Both halves come back
    highest weight first.
    """
    g = a.genus
    field = a.field
    v = v_poly(a)
    lower = x_power(field, g) * Poly(field, a.z)
    rem = (v * v - x_power(field, 2 * g + 1) - lower) % u_poly(a)
    return tuple([rem[i] for i in range(g)]), a.z


def curve_from_anchor(genus: int, z1, z2) -> CurveParams:
    return CurveParams(genus, z1, z2)


def _times_x_mod_u(w, p_even, p):
    """x * w mod u on ascending lists of g bare coefficients.

    The x^g term that the shift pushes out folds back in through
    x^g = sum p_even[i] x^i (mod u).  Only that term is reduced mod p,
    so entries grow by less than p^2 per step and stay exact.
    """
    top = w[-1]
    if p:
        top %= p
    return [top * p_even[0]] + [w[i - 1] + top * p_even[i] for i in range(1, len(w))]


def kl_columns(a: GroupoidPoint):
    """First g+1 columns of (E, O, x E, x O, x^2 E, ...) mod u.

    E = x^g mod u (the vector p_even) and O = v (the vector p_odd), so
    column 2k is x^(g+k) mod u and column 2k+1 is x^k v mod u, each as
    an ascending coefficient vector.  Returns the g x g matrix L of the
    first g columns and the (g+1)-st column ell as a vector.
    """
    g = a.genus
    field = a.field
    p_even = [c.value for c in a.p_even]
    cols = []
    even, odd = p_even, [c.value for c in a.p_odd]
    while len(cols) < g + 1:
        cols.append(even)
        cols.append(odd)
        even = _times_x_mod_u(even, p_even, field.modulus)
        odd = _times_x_mod_u(odd, p_even, field.modulus)
    rows = [[col[i] for col in cols[:g]] for i in range(g)]
    return Matrix._from_raw(field, rows), field._box(cols[g])


def _solve_h_core(b1: GroupoidPoint, b2: GroupoidPoint):
    l1, ell1 = kl_columns(b1)
    l2, ell2 = kl_columns(b2)
    m = l1 - l2
    rhs = [y - x for x, y in zip(ell1, ell2)]
    try:
        h2 = solve(m, rhs)
    except SingularMatrix as exc:
        raise DegenerateConfiguration(
            "column difference is singular; fall back to cantor_add", stage="h_solve"
        ) from exc
    h1 = tuple([-(t + e) for t, e in zip(l1.vec(h2), ell1)])
    h1_other = tuple([-(t + e) for t, e in zip(l2.vec(h2), ell2)])
    if h1 != h1_other:
        raise InvariantViolation("inconsistent overdetermined h-system")
    return h1, h2


def solve_h(a1bar: GroupoidPoint, a2bar: GroupoidPoint):
    """Coefficients (H1, H2) of the function vanishing on both inputs.

    Inputs are the already-inverted points.  The defining relations are
    H1 + L(b) H2 + ell(b) = 0 at b = a1bar and b = a2bar; H2 comes from
    their difference, H1 from back-substitution at a1bar, re-checked at
    a2bar.
    """
    if anchor(a1bar) != anchor(a2bar):
        raise AnchorMismatch("inputs sit over different curve parameters")
    return _solve_h_core(a1bar, a2bar)


def build_r_from_h(h1, h2, genus: int) -> RFunction:
    """Assemble an RFunction from the two solved coefficient blocks.

    h1 fills co-weights 3g, 3g-2, ..., g+2 (ascending powers of r3);
    h2 fills co-weights g, g-1, ..., 1; h0 is pinned to 1.
    """
    h1 = tuple(h1)
    h2 = tuple(h2)
    if len(h1) != genus or len(h2) != genus:
        raise ValueError("expected g coefficients in each block")
    field = h1[0].field
    h = {0: field.one()}
    for i, s in enumerate(h1):
        h[3 * genus - 2 * i] = s
    for k, s in enumerate(h2):
        h[genus - k] = s
    return RFunction(genus, h)


def _monomial_coweight(g: int, j: int) -> int:
    # Column j of the bordered matrix carries the monomial x^j for j < g,
    # then x^g, y, x^(g+1), y x, ... with co-weight dropping by one per column.
    return 3 * g - 2 * j if j < g else 2 * g - j


def _stacked_rows(points):
    """The rows (e_i | L_i | ell_i) of each point's (I | L | ell) block, stacked."""
    rows = []
    for b in points:
        l, ell = kl_columns(b)
        eye = Matrix.identity(b.field, b.genus)
        rows += [list(e) + list(lr) + [el] for e, lr, el in zip(eye.rows, l.rows, ell)]
    return rows


def build_r_determinant(a1bar: GroupoidPoint, a2bar: GroupoidPoint) -> RFunction:
    """Independent construction of the same RFunction from the bordered
    determinant.

    The bordered matrix stacks a monomial row (1, x, ..., x^(g-1), x^g,
    y, ...) over the (I | L | ell) rows of both inputs.  Expanding along
    the monomial row and normalizing the leading (ell) slot to 1 gives,
    by Cramer's rule, the solution of (I | L) x = -ell on the stacked
    rows; the leading cofactor is det (I | L), so it vanishes exactly
    when that system is singular.
    """
    g = a1bar.genus
    block = _stacked_rows((a1bar, a2bar))
    a = Matrix(a1bar.field, [row[:-1] for row in block])
    try:
        x = solve(a, [-row[-1] for row in block])
    except SingularMatrix as exc:
        raise DegenerateConfiguration(
            "bordered determinant has zero leading slot; fall back to cantor_add",
            stage="det_lead",
        ) from exc
    h = {_monomial_coweight(g, j): c for j, c in enumerate(x)}
    h[_monomial_coweight(g, 2 * g)] = a1bar.field.one()
    return RFunction(g, h)


def phi_poly(r: RFunction, c: CurveParams) -> Poly:
    """Norm of R against the hyperelliptic involution, restricted to the curve.

    phi = (-1)^g [ (x^g r2 + r3)^2 - r1^2 f ]; always monic of degree 3g
    for a well-formed (r, c) pair, and that shape is checked.
    """
    g = r.genus
    f = curve_poly(c)
    even_half = x_power(r.field, g) * r.r2() + r.r3()
    phi = even_half * even_half - r.r1() * r.r1() * f
    if g % 2 == 1:
        phi = -phi
    if phi.degree != 3 * g or not phi.is_monic():
        raise NotMonicDegree3g(f"expected monic degree {3 * g}, got {phi!r}")
    return phi


class StarResult:
    """Product point together with the RFunction that produced it."""

    __slots__ = ("point", "r")

    def __init__(self, point: GroupoidPoint, r: RFunction):
        self.point = point
        self.r = r


def star_detail(a1: GroupoidPoint, a2: GroupoidPoint, *, dual_check: bool = True) -> StarResult:
    """The partial product, keeping the internal RFunction for callers
    that inspect its coefficients."""
    if a1.genus != a2.genus:
        raise ValueError("genus mismatch")
    z1, z2 = anchor(a1)
    if (z1, z2) != anchor(a2):
        raise AnchorMismatch("summands sit over different curve parameters")
    g = a1.genus
    b1, b2 = invert(a1), invert(a2)
    h1, h2 = _solve_h_core(b1, b2)
    r = build_r_from_h(h1, h2, g)
    if dual_check and r != build_r_determinant(b1, b2):
        raise InvariantViolation("determinant route disagrees")
    curve = CurveParams(g, z1, z2)
    phi = phi_poly(r, curve)
    u3, remainder = divmod(phi, u_poly(a1) * u_poly(a2))
    if not remainder.is_zero():
        raise NonzeroRemainder("norm polynomial not divisible by u1*u2")
    if u3.degree != g or not u3.is_monic():
        raise InvariantViolation(f"expected a monic degree-{g} quotient, got {u3!r}")
    # R vanishes on the product, so r1 v3 + x^g r2 + r3 = 0 (mod u3).
    d, r1_inv, _ = xgcd(r.r1(), u3)
    if d.degree != 0:
        raise DegenerateConfiguration(
            "odd-part recovery is singular; fall back to cantor_add", stage="odd_recovery"
        )
    v3 = (-(x_power(a1.field, g) * r.r2() + r.r3()) * r1_inv) % u3
    p3_even = tuple([-u3[i] for i in range(g)])
    p3_odd = tuple([v3[i] for i in range(g)])
    return StarResult(GroupoidPoint(p3_even, p3_odd, a1.z), r)


def star(a1: GroupoidPoint, a2: GroupoidPoint, *, dual_check: bool = True) -> GroupoidPoint:
    """Add two points sharing an anchor; raises DegenerateConfiguration
    outside the generic chart (doubling, shared abscissa polynomial, ...)."""
    return star_detail(a1, a2, dual_check=dual_check).point


def viete_phi(t: PointListRep) -> GroupoidPoint:
    """Coordinate image of a list of curve points with distinct abscissas."""
    field = t.field
    xs = [x for x, _ in t.pairs]
    if len({x.value for x in xs}) != len(xs):
        raise RepeatedAbscissa("abscissas must be pairwise distinct")
    u = from_roots(field, xs)
    p_even = tuple(-u[i] for i in range(t.genus))
    v = vandermonde(field, xs)
    p_odd = solve(v, [y for _, y in t.pairs])
    return GroupoidPoint(p_even, p_odd, t.z)


def anchor_s(t: PointListRep):
    """Anchor computed directly in the point-list chart.

    Solves V Z1 = Y - X V z with V the Vandermonde of the abscissas,
    X = diag(x_i^g) and Y_i = y_i^2 - x_i^(2g+1); agrees with anchor on
    the coordinate image.
    """
    field = t.field
    g = t.genus
    xs = [x for x, _ in t.pairs]
    if len({x.value for x in xs}) != len(xs):
        raise RepeatedAbscissa("abscissas must be pairwise distinct")
    v = vandermonde(field, xs)
    y_vec = [y * y - x ** (2 * g + 1) for x, y in t.pairs]
    vz = v.vec(t.z)
    xvz = [x**g * w for x, w in zip(xs, vz)]
    z1 = _vec_sub(solve(v, y_vec), solve(v, xvz))
    return tuple(z1), tuple(t.z)


def rank_witness(a1: GroupoidPoint, a2: GroupoidPoint, a3: GroupoidPoint) -> bool:
    """True when the stacked (1 | L | ell) blocks of (inverted a1,
    inverted a2, a3) have rank below 2g+1, i.e. the three point sets
    admit a common vanishing function of lowest order."""
    rows = _stacked_rows((invert(a1), invert(a2), a3))
    return rank(Matrix(a1.field, rows)) < 2 * a1.genus + 1


def grade_scale(a: GroupoidPoint, c: CurveParams, t: Scalar):
    """Apply the weight grading: every coordinate of weight k picks up t^k."""
    if t.is_zero():
        raise ZeroScale("grading scale must be nonzero")
    g = a.genus
    p_even = tuple(t ** (2 * g - 2 * i) * s for i, s in enumerate(a.p_even))
    p_odd = tuple(t ** (2 * g + 1 - 2 * i) * s for i, s in enumerate(a.p_odd))
    z = tuple(t ** (2 * g + 2 - 2 * i) * s for i, s in enumerate(a.z))
    lam1 = tuple(t ** (4 * g + 2 - 2 * i) * s for i, s in enumerate(c.lambda1))
    lam2 = tuple(t ** (2 * g + 2 - 2 * i) * s for i, s in enumerate(c.lambda2))
    return GroupoidPoint(p_even, p_odd, z), CurveParams(g, lam1, lam2)
