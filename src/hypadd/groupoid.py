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

(u, v) is the Mumford pair of the point.  A GroupoidPoint holds u, v
and z, and a CurveParams f, as `poly` kernel pairs (int numerators, one
denominator) built once by the constructor, and boxes Scalars only when
a coordinate is read.  `star` runs the law modulo u on those pairs, and
its answer holds pairs too:

    anchor       v^2 - x^(2g+1) - x^g z = q_a u + Z1 at both inputs
    _columns     x^k (x^g mod u) and x^k v mod u, one product by x at a time,
                 as int numerators over one denominator per column
    h-solve      (L1 - L2) h2 = ell2 - ell1, h1 = -(L1 h2 + ell1)
    certificate  e - r1 v = k u with zero remainder at both inverted
                 inputs (u, -v), where e = x^g r2 + r3
    norm         phi / u1 = (-1)^g [k1 (e + r1 v1) + r1^2 q_a] from the two
                 quotients at a1, as f = f_high + Z1 (Cantor's reduction
                 (f - v^2) / u, Math. Comp. 48, 1987), then one exact
                 division u3 = (phi / u1) / u2
    odd part     v3 = -(e mod u3) r1^(-1) mod u3

At genus 2, R = r1 (y - V) for the cubic V through both inverted inputs,
so over F_p `star` and `star_detail` run Harley's composition on bare
ints (Lange, AAECC 15, 2005), read R off V with r1 = -1/s1, and leave
the pair to the stages above when r = 0 or s1 = 0.  There the check
that V = w2 mod u2 is the certificate:

    anchor       Z1 at both inputs from x^k = A_k x + B_k (mod u)
    slope        s = (w2 - w1) u1^(-1) mod u2 through r = res(u1, u2);
                 V = w1 + s u1 is checked to be w2 mod u2
    norm         u3 = (f - V^2) / (u1 u2) made monic, zero remainder checked
    odd part     v3 = V mod u3

The h-solve runs on those ints with one body for both fields: each
column of both sides is scaled by the lcm of its two denominators (1
over F_p), and one `linalg._solve_rows` call eliminates, so h1 and h2
come out over one denominator.  `star` keeps R = r1 y + x^g r2 + r3 as
the pairs r1 and e; one builder, `_r_function`, reads R's three
polynomials from solved blocks, for `star_detail`, the genus-2 route
and the bordered determinant.  Each product by a power of x is a shift,
and r1^(-1) mod u3 comes from `poly._inverse` on the one extended
Euclid `poly._euclid`.  `anchor` and the closed forms read Z1 through
`_z1`: `_g2_low` at genus 2 over F_p, else `star`'s `_anchor_division`.
The matrix routes (build_r_determinant, rank_witness, anchor_s) and
`phi_poly` stay as the tests' independent oracles, and none runs the
h-solve.  All three matrix routes run on int rows for the `linalg`
kernels `_solve_rows` and `_rank_rows`: the first two stack the same
columns, and anchor_s one Vandermonde row per point.

Weights: x has weight 2, y weight 2g+1, every coefficient with index k
weight k.  All vectors here are listed highest weight first.
"""

from math import lcm
from operator import floordiv, mul

from .errors import (
    AnchorMismatch,
    DegenerateConfiguration,
    FieldMismatch,
    InvariantViolation,
    NonzeroRemainder,
    NotMonicDegree3g,
    RepeatedAbscissa,
    SingularMatrix,
    ZeroScale,
)
from .field import FieldSpec, Scalar, _Value, _inverse_value
from .linalg import _rank_rows, _solve_rows
from .poly import (
    Poly, _add, _divmod, _ints, _inverse, _mul, _neg, _norm, _read, _read_values, _trim, x_power
)


def _scalars(*vectors):
    """The field of Scalar vectors and their bare values: ValueError for a
    coordinate that is not a Scalar, FieldMismatch for mixed fields."""
    if not all(isinstance(s, Scalar) for vec in vectors for s in vec):
        raise ValueError("every coordinate must be a Scalar")
    field = vectors[0][0].field
    return (field, *[[field._value(s) for s in vec] for vec in vectors])


def _common_field(a, *others) -> FieldSpec:
    """a's field, once every other point has a's genus (ValueError
    otherwise) and lies over a's field (FieldMismatch otherwise)."""
    for b in others:
        if b.genus != a.genus:
            raise ValueError("genus mismatch")
        if b.field is not a.field and b.field != a.field:
            raise FieldMismatch(f"points over {a.field} and {b.field}")
    return a.field


class CurveParams(_Value):
    """Coefficients of y^2 = f(x), split into upper (lambda1) and lower
    (lambda2) weight halves, each highest weight first.  Held as the field,
    f = x^(2g+1) + x^g lambda2 + lambda1 as a kernel pair and lambda2 in
    a point's z form; both halves are boxed on read."""

    __slots__ = ("genus", "field", "_f", "_z")

    def __init__(self, genus: int, lambda1, lambda2):
        lambda1, lambda2 = tuple(lambda1), tuple(lambda2)
        if type(genus) is not int or not len(lambda1) == len(lambda2) == genus > 0:
            raise ValueError(f"expected an int genus >= 1, got {genus!r}, and g values per half")
        self.genus, self.field, self._f, self._z = self._slots(*_scalars(lambda1, lambda2))

    @classmethod
    def _from_values(cls, field: FieldSpec, lam1, lam2) -> "CurveParams":
        """The curve of the bare values of each half, ascending in x."""
        return cls._make(*cls._slots(field, list(lam1), list(lam2)))

    @staticmethod
    def _slots(field, lam1, lam2) -> tuple:
        if not lam2:
            raise ValueError("genus must be at least 1, got 0")
        p = field.modulus
        f, df = _ints(lam1 + lam2 + [0, 1], p)
        z, dz = _ints(lam2, p)
        return len(lam2), field, (tuple(f), df), (tuple(z), dz)

    lambda1 = property(lambda self: _read(self.field, self._f, self.genus))
    lambda2 = property(lambda self: _read(self.field, self._z, self.genus))

    def __repr__(self):
        return f"CurveParams(g={self.genus}, {self.lambda1}, {self.lambda2})"


class GroupoidPoint(_Value):
    """A triple (p_even, p_odd, z) of g-vectors, highest weight first.
    Held as the field, the Mumford pair u = x^g - sum p_even[i] x^i and
    v = sum p_odd[i] x^i as kernel pairs, and z as g int numerators over
    one denominator (content 1); equality and hashing compare these, and
    the three vectors are boxed on read."""

    __slots__ = ("field", "_u", "_v", "_z")

    def __init__(self, p_even, p_odd, z):
        p_even, p_odd, z = tuple(p_even), tuple(p_odd), tuple(z)
        if not len(p_even) == len(p_odd) == len(z) > 0:
            raise ValueError("p_even, p_odd, z must all have one length g >= 1")
        field, *values = _scalars(p_even, p_odd, z)
        (pe, dp), (po, do), (zs, dz) = (_ints(vals, field.modulus) for vals in values)
        self.field, self._u = field, _norm([-c for c in pe] + [dp], dp, field.modulus)
        self._v, self._z = _norm(po, do, field.modulus), (tuple(zs), dz)

    @classmethod
    def _from_values(cls, field: FieldSpec, u, v, z) -> "GroupoidPoint":
        """The point of bare ascending values of u (monic) and v, z as stored."""
        return cls._make(field, *[_trim(*_ints(w, field.modulus)) for w in (u, v)], z)

    genus = property(lambda self: len(self._z[0]))
    p_even = property(lambda self: _read(self.field, self._u, self.genus, -1))
    p_odd = property(lambda self: _read(self.field, self._v, self.genus))
    z = property(lambda self: _read(self.field, self._z, self.genus))

    def __repr__(self):
        return f"GroupoidPoint({self.p_even}, {self.p_odd}, {self.z})"


class PointListRep:
    """g affine curve points with distinct abscissas, plus the z vector:
    ValueError unless g >= 1 and every entry is a Scalar, FieldMismatch
    unless all lie over the first abscissa's field, RepeatedAbscissa
    unless the abscissas are distinct.  Keeps the bare abscissas,
    ordinates and z for viete_phi and anchor_s."""

    __slots__ = ("field", "pairs", "z", "_xs", "_ys", "_zs")

    def __init__(self, pairs, z):
        self.pairs = tuple((x, y) for x, y in pairs)
        self.z = tuple(z)
        if not len(self.pairs) == len(self.z) > 0:
            raise ValueError("expected g >= 1 pairs and g z entries")
        self.field, xys, self._zs = _scalars([c for pair in self.pairs for c in pair], self.z)
        self._xs, self._ys = xys[0::2], xys[1::2]
        if len(set(self._xs)) != len(self._xs):
            raise RepeatedAbscissa("abscissas must be pairwise distinct")

    @property
    def genus(self) -> int:
        return len(self.pairs)


class RFunction(_Value):
    """The interpolating function R(x, y) = r1(x) y + x^g r2(x) + r3(x),
    held as the three polynomials the addition law reads.

    With rho = floor((g-1)/2), r1 has rho + 1 slots, r2 has g - rho and
    r3 has g.  The lead, r1 for odd g and r2 for even g, carries the
    monomial of weight 3g and is monic of degree floor(g/2).  r1, r2 and
    r3 lie over one field, else FieldMismatch.
    """

    __slots__ = ("genus", "r1", "r2", "r3")

    def __init__(self, genus: int, r1: Poly, r2: Poly, r3: Poly):
        if r2.field != r1.field or r3.field != r1.field:
            raise FieldMismatch("r1, r2 and r3 over different fields")
        rho = (genus - 1) // 2
        if r1.degree > rho or r2.degree >= genus - rho or r3.degree >= genus:
            raise ValueError("a coefficient lies past its co-weight slots")
        lead = r1 if genus % 2 else r2
        if lead.degree != genus // 2 or not lead.is_monic():
            raise ValueError(f"leading polynomial must be monic of degree {genus // 2}")
        self.genus, self.r1, self.r2, self.r3 = genus, r1, r2, r3

    @property
    def field(self) -> FieldSpec:
        return self.r1.field

    @property
    def h(self) -> dict:
        """Coefficients by co-weight: h[k] multiplies the unique monomial
        x^i y^j (j in {0,1}) of weight 3g - k, and h[0] = 1 marks the
        leading one.  Slots are present even when zero; co-weights with
        no monomial (the gap values) are absent."""
        g, rho = self.genus, (self.genus - 1) // 2
        h = {3 * g - 2 * i: self.r3[i] for i in range(g)}
        h.update({g - 2 * i: self.r2[i] for i in range(g - rho)})
        h.update({g - 1 - 2 * i: self.r1[i] for i in range(rho + 1)})
        return h

    def h_at(self, coweight: int) -> Scalar:
        return self.h.get(coweight, self.field.zero())

    def __repr__(self):
        inner = ", ".join(f"h{k}={v.to_string()}" for k, v in sorted(self.h.items()))
        return f"RFunction(g={self.genus}, {inner})"


def curve_poly(c: CurveParams) -> Poly:
    """f as a Poly."""
    return Poly._make(c.field, *c._f)


def u_poly(a: GroupoidPoint) -> Poly:
    """Monic abscissa polynomial x^g - sum p_even[i] x^i."""
    return Poly._make(a.field, *a._u)


def v_poly(a: GroupoidPoint) -> Poly:
    """Ordinate interpolation polynomial of degree < g."""
    return Poly._make(a.field, *a._v)


def invert(a: GroupoidPoint) -> GroupoidPoint:
    """The groupoid involution: flip the sign of the odd part."""
    return GroupoidPoint._make(a.field, a._u, _neg(a._v, a.field.modulus), a._z)


def anchor(a: GroupoidPoint):
    """Project a point to its curve coefficients (Z1, Z2).

    Z2 is the z vector itself.  Z1 is determined by requiring every
    encoded curve point (x_i, v(x_i)) to satisfy the curve equation,
    which is the single congruence

        Z1 = (v^2 - x^(2g+1) - x^g z) mod u

    with z read as a polynomial ascending in x.  Both halves come back
    highest weight first.
    """
    return _read(a.field, _z1(a), a.genus), a.z


def _z1(a: GroupoidPoint):
    """Z1 as a kernel pair, by `_g2_low` at genus 2 over F_p."""
    p = a.field.modulus
    if a.genus == 2 and p:
        return _trim(_g2_low(a._u[0], (a._v[0] + (0, 0))[:2], a._z[0], p))
    return _anchor_division(a)[1]


def curve_from_anchor(genus: int, z1, z2) -> CurveParams:
    return CurveParams(genus, z1, z2)


def _times_x_mod_u(w, p_even, p, dp):
    """x * w mod u on ascending lists of g int numerators, p_even over dp.

    The x^g term that the shift pushes out folds back in through
    x^g = sum p_even[i] x^i (mod u).  Only that term is reduced mod p,
    so entries grow by less than p^2 per step and stay exact.  The
    result lies over dp times w's denominator.
    """
    top = w[-1]
    if p:
        top %= p
    if dp != 1:
        w = [c * dp for c in w]
    return [top * p_even[0]] + [w[i - 1] + top * p_even[i] for i in range(1, len(w))]


def _anchor_division(a: GroupoidPoint):
    """(q_a, Z1) with v^2 - f_high = q_a u + Z1, f_high = x^(2g+1) + x^g z,
    so f = f_high + Z1 on the point's curve; the sign of v does not matter."""
    p, (z, dz) = a.field.modulus, a._z
    f_high = (0,) * len(z) + z + (0, dz), dz
    return _divmod(*_add(*_mul(*a._v, *a._v, p), *f_high, p, -1), *a._u, p)


def _columns(a: GroupoidPoint):
    """The first g+1 columns of (E, O, x E, x O, x^2 E, ...) mod u for a
    point, as ascending int numerators, and their denominators: E = x^g
    mod u = pe/dp, pe the numerators of -u below x^g, and O = v = po/do,
    so column 2k is x^(g+k) mod u over dp^(k+1) and column 2k+1 is x^k v
    mod u over do dp^k, all 1 over F_p.
    """
    p, (u, dp), (po, do) = a.field.modulus, a._u, a._v
    g = len(u) - 1
    pe, po = [-c for c in u[:g]], list(po) + [0] * (g - len(po))
    cols, dens = [pe, po], [dp, do]
    while len(cols) < g + 1:
        cols += [_times_x_mod_u(cols[-2], pe, p, dp), _times_x_mod_u(cols[-1], pe, p, dp)]
        dens += [dens[-2] * dp, dens[-1] * dp]
    return cols[: g + 1], dens[: g + 1]


def _solve_h_core(b1, b2):
    """(h1, h2, den): h1 and h2 as int numerators over one denominator
    from (L1 - L2) h2 = ell2 - ell1 and h1 = -(L1 h2 + ell1), for two
    points.  One body for both fields: column j of point i, over d_ij,
    times k_ij = m_j / d_ij lies over m_j = lcm(d1j, d2j), so the system
    is on ints, and `_solve_rows` gives h2_j = m_j y_j / (det m_g);
    h1 = -(det ell1 + sum y_j col_j) follows over the same denominator
    den = det m_g.  Over F_p every m_j, k_ij and det are 1, so the same
    statements leave the columns as they are, h2 = y and den = 1.
    """
    p, g = b1.field.modulus, b1.genus
    (s1, d1), (s2, d2) = _columns(b1), _columns(b2)
    m = list(map(lcm, d1, d2))
    k1, k2 = list(map(floordiv, m, d1)), list(map(floordiv, m, d2))
    a = [[x[i] * e - y[i] * f for x, y, e, f in zip(s1[:g], s2, k1, k2)]
         + [s2[g][i] * k2[g] - s1[g][i] * k1[g]] for i in range(g)]
    try:
        y, det = _solve_rows(a, g, p)
    except SingularMatrix as exc:
        raise DegenerateConfiguration(
            "column difference is singular; fall back to cantor_add", stage="h_solve"
        ) from exc
    yk = list(map(mul, y, k1)) + [det * k1[g]]
    return [-sum(map(mul, yk, row)) for row in zip(*s1)], list(map(mul, m, y)), det * m[g]


def _r_function(field: FieldSpec, h1, h2, den: int) -> RFunction:
    """R from the solved blocks, int numerators over den, in the column
    order of `_columns`: h1 is r3 (ascending powers), and h2 followed by
    the pinned leading den interleaves x^g, y, x^(g+1), y x, ..., so its
    even entries are r2 and its odd ones r1."""
    hs, p = h2 + [den], field.modulus
    r1, r2, r3 = (Poly._make(field, *_norm(h, den, p)) for h in (hs[1::2], hs[::2], h1))
    return RFunction(len(h1), r1, r2, r3)


def _stacked_rows(points):
    """The int rows (e_i | L_i | -ell_i) of each point's block from
    `_columns`, stacked: the system (I | L) x = -ell.  A point's rows are
    scaled by the lcm m of its column denominators (1 over F_p), which
    keeps the solution and the rank; negating ell keeps the rank too."""
    rows = []
    for b in points:
        (cols, dens), g = _columns(b), b.genus
        m = lcm(*dens)
        cols = [[v * (m // d) for v in col] for col, d in zip(cols, dens)]
        cols[g] = [-v for v in cols[g]]
        rows += [[m if i == j else 0 for j in range(g)] + [col[i] for col in cols] for i in range(g)]
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
    g, field = a1bar.genus, _common_field(a1bar, a2bar)
    try:
        y, det = _solve_rows(_stacked_rows((a1bar, a2bar)), 2 * g, field.modulus)
    except SingularMatrix as exc:
        raise DegenerateConfiguration(
            "bordered determinant has zero leading slot; fall back to cantor_add",
            stage="det_lead",
        ) from exc
    return _r_function(field, y[:g], y[g:], det)


def phi_poly(r: RFunction, c: CurveParams) -> Poly:
    """Norm of R against the hyperelliptic involution, restricted to the curve.

    phi = (-1)^g [ (x^g r2 + r3)^2 - r1^2 f ]; always monic of degree 3g
    for a well-formed (r, c) pair, and that shape is checked.
    """
    g, even_half = r.genus, x_power(r.field, r.genus) * r.r2 + r.r3
    phi = even_half * even_half - r.r1 * r.r1 * curve_poly(c)
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


def _g2_low(u, v, z, p):
    """f's low half (f0, f1) on a genus-2 F_p point's curve: Z1 = (v^2 -
    x^5 - x^2 z) mod u on bare ints, from x^k = A_k x + B_k (mod u)."""
    (c0, c1, _), (v0, v1), (z0, z1) = u, v, z
    a3, b3, t = c1 * c1 - c0, c0 * c1, v1 * v1 - z0
    a4 = b3 - c1 * a3
    f1 = 2 * v0 * v1 - t * c1 + c0 * a3 + c1 * a4 - z1 * a3
    return (v0 * v0 - t * c0 + c0 * a4 - z1 * b3) % p, f1 % p


def _g2_slope(u1, v1, u2, v2, p):
    """(s0, s1, 1/s1) for s = (w2 - w1) u1^(-1) mod u2, w = -v, through
    u1 mod u2 = e1 x + e0 and r = res(u1, u2) with one inversion; None
    when r or s1 is 0."""
    (c0, c1, _), (d0, d1, _) = u1, u2
    e0, e1, g0, g1 = c0 - d0, c1 - d1, v1[0] - v2[0], v1[1] - v2[1]
    r, n1 = e0 * (e0 - d1 * e1) + d0 * e1 * e1, g1 * e0 - g0 * e1  # s1 = n1 / r
    if not r * n1 % p:
        return None
    t, n0 = pow(r * n1, -1, p), g0 * (e0 - d1 * e1) + d0 * g1 * e1
    return n0 * n1 * t % p, n1 * n1 * t % p, r * r * t % p


def _g2_star(a1: GroupoidPoint, a2: GroupoidPoint, field: FieldSpec):
    """`star` at genus 2 over F_p as straight-line int code, or None to
    leave the pair to the generic stages: the genus-2 stages of the
    module docstring, each check raising the generic body's typed error.
    Returns the point and R's blocks h1, h2 over den 1 for `_r_function`."""
    p, (z0, z1), (u1, u2) = field.modulus, a1._z[0], (a1._u[0], a2._u[0])
    v1, v2 = (a1._v[0] + (0, 0))[:2], (a2._v[0] + (0, 0))[:2]
    f0, f1 = _g2_low(u1, v1, a1._z[0], p)
    if a1._z != a2._z or (f0, f1) != _g2_low(u2, v2, a2._z[0], p):
        raise AnchorMismatch("summands sit over different curve parameters")
    if (slope := _g2_slope(u1, v1, u2, v2, p)) is None:
        return None
    (s0, s1, inv_s1), (c0, c1, _), (d0, d1, _) = slope, u1, u2
    # V = w1 + s u1 = s1 x^3 + t2 x^2 + t1 x + t0
    t2, t1, t0 = (s0 + s1 * c1) % p, (s0 * c1 + s1 * c0 - v1[1]) % p, (s0 * c0 - v1[0]) % p
    if (s1 * (d1 * d1 - d0) - t2 * d1 + t1 + v2[1]) % p or (d0 * (s1 * d1 - t2) + t0 + v2[0]) % p:
        raise InvariantViolation("V does not meet the second inverted summand")
    # f - V^2 = (q2 x^2 + q1 x + q0) u1 u2 + rem, u1 u2 = x^4 + m3 x^3 + ... + m0
    m3, m2, m1, m0 = c1 + d1, c0 + d0 + c1 * d1, c1 * d0 + c0 * d1, c0 * d0
    q2 = -s1 * s1
    q1 = (1 - 2 * s1 * t2 - q2 * m3) % p
    q0 = (-t2 * t2 - 2 * s1 * t1 - q2 * m2 - q1 * m3) % p
    rem = (
        z1 - 2 * (s1 * t0 + t2 * t1) - q2 * m1 - q1 * m2 - q0 * m3,
        z0 - t1 * t1 - 2 * t2 * t0 - q2 * m0 - q1 * m1 - q0 * m2,
        f1 - 2 * t1 * t0 - q1 * m0 - q0 * m1,
        f0 - t0 * t0 - q0 * m0,
    )
    if any(r % p for r in rem):
        raise NonzeroRemainder("norm polynomial not divisible by u1*u2")
    scale = -inv_s1 * inv_s1
    if q2 * scale % p != 1:
        raise InvariantViolation(f"expected a monic degree-2 quotient, got {(q0, q1, q2)}")
    e1, e0 = q1 * scale % p, q0 * scale % p  # u3 = x^2 + e1 x + e0, and v3 = V mod u3
    v3 = ((s1 * e0 * e1 - t2 * e0 + t0) % p, (s1 * (e1 * e1 - e0) - t2 * e1 + t1) % p)
    # R = r1 (y - V) with r1 = -1/s1, so x^2 r2 + r3 = V / s1
    h1, h2 = [inv_s1 * t0 % p, inv_s1 * t1 % p], [inv_s1 * t2 % p, -inv_s1 % p]
    return GroupoidPoint._make(field, ((e0, e1, 1), 1), _trim(v3), a1._z), h1, h2


def _star(a1: GroupoidPoint, a2: GroupoidPoint, detail: bool):
    """The product point, or with detail its StarResult: the stages of
    the module docstring on the inputs' kernel pairs, with w = -v the odd
    part of an inverted input."""
    g, field = a1.genus, _common_field(a1, a2)
    if g == 2 and field.modulus and (route := _g2_star(a1, a2, field)):
        point, h1, h2 = route
        return StarResult(point, _r_function(field, h1, h2, 1)) if detail else point
    (p, u1, u2), (b1, b2) = (field.modulus, a1._u, a2._u), (invert(a1), invert(a2))
    w1, w2 = b1._v, b2._v
    # The anchors agree when z does and Z1 = (w^2 - f_high) mod u does.
    (q_a, z1), (_, z2) = _anchor_division(a1), _anchor_division(a2)
    if a1._z != a2._z or z1 != z2:
        raise AnchorMismatch("summands sit over different curve parameters")
    h1, h2, den = _solve_h_core(b1, b2)
    rest = h2 + [den]  # x^g, y, x^(g+1), y x, ... with the pinned leading 1
    e, r1 = _norm(h1 + rest[0::2], den, p), _norm(rest[1::2], den, p)  # e = x^g r2 + r3
    r1w1, r1w2 = _mul(*r1, *w1, p), _mul(*r1, *w2, p)
    (k1, c1), (_, c2) = (_divmod(*_add(*e, *rw, p), *u, p) for rw, u in ((r1w1, u1), (r1w2, u2)))
    if c1[0] or c2[0]:
        raise InvariantViolation("R does not vanish on an inverted summand")
    norm = _add(*_mul(*k1, *_add(*e, *r1w1, p, -1), p), *_mul(*_mul(*r1, *r1, p), *q_a, p), p)
    if g % 2:
        norm = _neg(norm, p)
    if len(norm[0]) != 2 * g + 1 or norm[0][-1] != norm[1]:
        raise NotMonicDegree3g(f"expected phi / u1 monic of degree {2 * g}, got {norm}")
    u3, remainder = _divmod(*norm, *u2, p)
    if remainder[0]:
        raise NonzeroRemainder("norm polynomial not divisible by u1*u2")
    if len(u3[0]) != g + 1 or u3[0][-1] != u3[1]:
        raise InvariantViolation(f"expected a monic degree-{g} quotient, got {u3}")
    # R vanishes on the product, so r1 v3 + e = 0 (mod u3).
    r1_inv = _inverse(*r1, *u3, p)
    if r1_inv is None:
        raise DegenerateConfiguration(
            "odd-part recovery is singular; fall back to cantor_add", stage="odd_recovery"
        )
    v3 = _divmod(*_mul(*_divmod(*_neg(e, p), *u3, p)[1], *r1_inv, p), *u3, p)[1]
    point = GroupoidPoint._make(field, u3, v3, a1._z)
    return StarResult(point, _r_function(field, h1, h2, den)) if detail else point


def star_detail(a1: GroupoidPoint, a2: GroupoidPoint) -> StarResult:
    """The partial product, keeping the internal RFunction for callers
    that inspect its coefficients.  Every call certifies R on u and v
    alone, sharing no code with the h-solve: r1 v + x^g r2 + r3 must
    vanish mod u at both inverted inputs, else InvariantViolation; on
    the genus-2 F_p route, V must be w2 mod u2."""
    return _star(a1, a2, True)


def star(a1: GroupoidPoint, a2: GroupoidPoint) -> GroupoidPoint:
    """Add two points sharing an anchor; raises DegenerateConfiguration
    outside the generic chart (doubling, shared abscissa polynomial, ...)
    and InvariantViolation if the certificate of star_detail fails.
    Runs star_detail's stages, or at genus 2 over F_p its straight-line
    route of the module docstring, without building the RFunction."""
    return _star(a1, a2, False)


def _interpolate(field: FieldSpec, xs, ys):
    """The canonical kernel pairs of u = prod (x - x_i) and of the
    interpolant v = sum y_i q_i / q_i(x_i) of degree < n, with
    q_i = u / (x - x_i) by synthetic division (Lagrange); two F_p points
    take the line through them.  A repeated abscissa raises SingularMatrix."""
    p = field.modulus
    if p and len(xs) == 2:  # u = (x - x0)(x - x1), v = y0 + s (x - x0)
        (x0, x1), (y0, y1) = xs, ys
        if not (x1 - x0) % p:
            raise SingularMatrix("repeated abscissa")
        s = (y1 - y0) * pow(x1 - x0, -1, p) % p
        return ((x0 * x1 % p, -(x0 + x1) % p, 1), 1), _trim([(y0 - s * x0) % p, s])
    # integral Fractions as ints, so u, q_i and q_i(x_i) stay on ints over Q too
    xs = [x.numerator if x.denominator == 1 else x for x in xs]
    u = [1]
    for xi in xs:
        u = [a - xi * b for a, b in zip([0] + u, u + [0])]
        u = [c % p for c in u] if p else u
    v = [0] * len(xs)
    for xi, yi in zip(xs, ys):
        q, acc, d = [], 0, 0
        for c in reversed(u[1:]):
            acc = acc * xi + c
            q.append(acc)
            d = d * xi + acc
        if not (d % p if p else d):
            raise SingularMatrix("repeated abscissa")
        s = yi * _inverse_value(d, p)
        v = [a + s * b for a, b in zip(v, reversed(q))]
    return _trim(*_ints(u, p)), _trim(*_ints(v, p))


def viete_phi(t: PointListRep) -> GroupoidPoint:
    """Coordinate image of a list of curve points with distinct abscissas:
    p_even from u = prod (x - x_i), p_odd the interpolant v of the y_i."""
    zs, dz = _ints(t._zs, t.field.modulus)
    return GroupoidPoint._make(t.field, *_interpolate(t.field, t._xs, t._ys), (tuple(zs), dz))


def anchor_s(t: PointListRep):
    """Anchor computed directly in the point-list chart.

    Solves V Z1 = Y - X V z with V the Vandermonde of the abscissas,
    X = diag(x_i^g) and Y_i = y_i^2 - x_i^(2g+1): one int row (1, x_i,
    ..., x_i^(g-1) | Y_i - x_i^g (V z)_i) per point, cleared of its
    denominators over Q, for one `_solve_rows` call.  Agrees with anchor
    on the coordinate image.
    """
    g, p, rows = t.genus, t.field.modulus, []
    for x, y in zip(t._xs, t._ys):
        powers = [x**i for i in range(g)]
        vz = sum([c * w for c, w in zip(t._zs, powers)])
        rows.append(_ints(powers + [y * y - x ** (2 * g + 1) - x**g * vz], p)[0])
    return _read(t.field, _solve_rows(rows, g, p), g), t.z


def rank_witness(a1: GroupoidPoint, a2: GroupoidPoint, a3: GroupoidPoint) -> bool:
    """True when the stacked (1 | L | ell) blocks of (inverted a1,
    inverted a2, a3) have rank below 2g+1, i.e. the three point sets
    admit a common vanishing function of lowest order."""
    p, n = _common_field(a1, a2, a3).modulus, 2 * a1.genus + 1
    return _rank_rows(_stacked_rows((invert(a1), invert(a2), a3)), n, p) < n


def grade_scale(a: GroupoidPoint, c: CurveParams, t: Scalar):
    """Apply the weight grading: every coordinate of weight k picks up t^k.  The x^k
    coefficients of u, v and f weigh 2g - 2k, 2g + 1 - 2k and 4g + 2 - 2k, z_k 2g + 2 - 2k."""
    if t.is_zero():
        raise ZeroScale("grading scale must be nonzero")
    g, field = a.genus, _common_field(a, c)
    p, tv = field.modulus, field._value(t)
    powers = [pow(tv, k, p or None) for k in range(4 * g + 3)]
    u, v, zv, f = (
        [s * powers[top - 2 * k] for k, s in enumerate(_read_values(field, pair, len(pair[0])))]
        for pair, top in ((a._u, 2 * g), (a._v, 2 * g + 1), (a._z, 2 * g + 2), (c._f, 4 * g + 2))
    )
    zs, dz = _ints(zv, p)
    point = GroupoidPoint._from_values(field, u, v, (tuple(zs), dz))
    return point, CurveParams._from_values(field, f[:g], f[g : 2 * g])
