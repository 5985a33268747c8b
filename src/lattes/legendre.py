"""The Legendre curve y^2 = x(x-1)(x-lambda): group law, division polynomials,
multiplication maps on the x-line, point counts and supersingularity.

The x-only division polynomial psihat_m is psi_m for odd m and psi_m/(2y)
for even m, so every consumer works on P^1 = C/(+-1).  All formulas are for
the cubic x^3 - (1+lambda)x^2 + lambda*x and are cross-checked against the
brute-force group-law oracle in the tests rather than trusted.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import QQ, FFElement, FiniteField, QuadExtField, factorize, is_prime, rational_sqrt
from .poly import INF, Poly, PolyRing, RationalFunction


POINT_COUNT_BOUND = 10**6
# field operations one enumeration (a census or a supersingular scan) may
# take: tens of seconds at most on a desk machine
ENUMERATION_BUDGET = 5 * 10**6


class CurveError(ValueError):
    pass


def check_enumeration(what: str, q: int, e: int, per_element: int) -> None:
    """Refuse up front, naming the budget, a run over q^e elements at
    per_element field operations each that passes ENUMERATION_BUDGET.
    q >= 2, so a long exponent alone decides without forming q^e."""
    if e >= ENUMERATION_BUDGET.bit_length() or q**e * per_element > ENUMERATION_BUDGET:
        raise CurveError(
            f"{what}: {q}^{e} elements at {per_element} field operations each exceed ENUMERATION_BUDGET = {ENUMERATION_BUDGET}"
        )


class CurvePoint:
    """Affine point or the identity; always validated against its curve."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve, x=None, y=None):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.x is None or other.x is None:
            return self.x is None and other.x is None
        return (self.curve is other.curve or self.curve == other.curve) and self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash("O")
        return hash((self.x, self.y))

    def __neg__(self):
        if self.is_infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"

    def to_json(self):
        from .serialize import value_to_json

        if self.is_infinity:
            return "inf"
        return {"x": value_to_json(self.x), "y": value_to_json(self.y)}


class LegendreCurve:
    """y^2 = x(x-1)(x-lambda) over Q or a finite field, characteristic != 2."""

    def __init__(self, base, lam):
        lam = base.coerce(lam)
        if getattr(base, "char", 0) == 2:
            raise CurveError("characteristic 2 is excluded")
        zero, one = base.zero, base.one
        if lam == zero or lam == one:
            raise CurveError("lambda must avoid 0 and 1")
        self.base = base
        self.lam = lam
        # cubic x^3 + a x^2 + b x + c
        self.a = -(one + lam)
        self.b = lam
        self.c = zero
        self._one = one
        self._count = None

    @property
    def infinity(self):
        # built on each use: a stored point would refer back to its curve
        return CurvePoint(self)

    def f(self, x):
        """The cubic x(x-1)(x-lam)."""
        return x * (x - self._one) * (x - self.lam)

    def point(self, x, y) -> CurvePoint:
        x = self.base.coerce(x)
        y = self.base.coerce(y)
        if y * y != self.f(x):
            raise CurveError(f"({x}, {y}) is not on the curve")
        return CurvePoint(self, x, y)

    def __eq__(self, other):
        return other is self or (isinstance(other, LegendreCurve) and other.base == self.base and other.lam == self.lam)

    def __hash__(self):
        return hash(("legendre", self.base, self.lam))

    def __repr__(self):
        return f"C_lambda({self.lam}) over {self.base!r}"

    # -- group law

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        if P.x is None:
            return Q
        if Q.x is None:
            return P
        if P.x == Q.x:
            if P.y == -Q.y:
                return self.infinity
            return self.double(P)
        s = (Q.y - P.y) / (Q.x - P.x)
        x3 = s * s - self.a - P.x - Q.x
        y3 = s * (P.x - x3) - P.y
        return CurvePoint(self, x3, y3)

    def double(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        zero = self.base.zero
        if P.y == zero:
            return self.infinity
        x = P.x
        # f'(x) = 3x^2 + 2a x + b
        s = (3 * (x * x) + 2 * (self.a * x) + self.b) / (2 * P.y)
        x3 = s * s - self.a - x - x
        y3 = s * (x - x3) - P.y
        return CurvePoint(self, x3, y3)

    def neg(self, P: CurvePoint) -> CurvePoint:
        return -P

    def scalar_mul(self, m: int, P: CurvePoint) -> CurvePoint:
        if m < 0:
            return -self.scalar_mul(-m, P)
        R = self.infinity
        Q = P
        while m:
            if m & 1:
                R = self.add(R, Q)
            Q = self.double(Q)
            m >>= 1
        return R

    # -- fibers of the double cover

    def branch_xs(self):
        return (self.base.zero, self.base.one, self.lam)

    def lift_x(self, z, extend=False):
        """Points of pi^-1(z); one point at the four branch points, else two.

        With extend=True a non-square f(z) lifts into the quadratic
        extension adjoining its square root (finite fields only).
        """
        if z is INF:
            return [self.infinity]
        z = self.base.coerce(z) if self.base != QQ else QQ.coerce(z)
        if z in self.branch_xs():
            return [CurvePoint(self, z, self.base.zero)]
        fz = self.f(z)
        if self.base == QQ:
            r = rational_sqrt(fz)
            if r is None:
                raise CurveError(f"f({z}) is not a rational square; no rational lift")
            return [self.point(z, r), self.point(z, -r)]
        r = self.base.sqrt(fz)
        if r is not None:
            return [CurvePoint(self, z, r), CurvePoint(self, z, -r)]
        if not extend:
            raise CurveError(f"f({z}) is not a square in {self.base!r}")
        ext = QuadExtField(self.base, fz)
        curve_ext = LegendreCurve(ext, ext.coerce(self.lam))
        t = ext.gen()
        zc = ext.coerce(z)
        return [CurvePoint(curve_ext, zc, t), CurvePoint(curve_ext, zc, -t)]

    # -- counting and orders

    def count_and_trace(self):
        """(#C(F_q), trace): brute force by enumerating x, the counting oracle,
        unless the count was carried over from a subfield by base_change."""
        base = self.base
        if not getattr(base, "is_finite", False) or isinstance(base, QuadExtField):
            raise CurveError("count_and_trace needs an enumerable finite base field")
        if self._count is None:
            if base.order > POINT_COUNT_BOUND:
                raise CurveError(f"field size {base.order} exceeds the counting bound {POINT_COUNT_BOUND}")
            n = 1
            if base.k == 1:
                # the same count on residues mod p, without element objects
                p, lam = base.p, self.lam.coeffs[0]
                squares = {x * x % p for x in range(p)}
                for x in range(p):
                    fx = x * (x - 1) * (x - lam) % p
                    if fx == 0:
                        n += 1
                    elif fx in squares:
                        n += 2
            else:
                squares = {e * e for e in base}
                zero, one, lam = base.zero, base.one, self.lam
                for x in base:
                    fx = x * (x - one) * (x - lam)
                    if fx == zero:
                        n += 1
                    elif fx in squares:
                        n += 2
            self._count = n
        n = self._count
        trace = base.order + 1 - n
        assert trace * trace <= 4 * base.order, "Hasse bound violated; counting bug"
        return n, trace

    def base_change(self, field: FiniteField, lam: FFElement) -> LegendreCurve:
        """This curve over field, an extension of its base, where lam is the
        image of lambda.  Its point count is not enumerated again but carried
        by the Frobenius trace recurrence (extension_order)."""
        curve = LegendreCurve(field, lam)
        _, a = self.count_and_trace()
        curve._count = extension_order(self.base.order, a, field.k // self.base.k)
        return curve

    def group_order(self):
        """#C over the curve's own field; quadratic extensions use the trace recurrence."""
        base = self.base
        if isinstance(base, QuadExtField):
            inner = base.base
            if not self.lam.b.is_zero():
                raise CurveError("lambda must come from the base of the quadratic extension")
            inner_curve = LegendreCurve(inner, self.lam.a)
            n, a = inner_curve.count_and_trace()
            return extension_order(inner.order, a, 2)
        n, _ = self.count_and_trace()
        return n

    def torsion_order(self, P: CurvePoint) -> int:
        """Exact order of P in the group over the field of its coordinates."""
        if P.is_infinity:
            return 1
        n = self.group_order()
        order = n
        for ell in factorize(n):
            while order % ell == 0 and self.scalar_mul(order // ell, P).is_infinity:
                order //= ell
        return order

    def x_order(self, z) -> int:
        """Order of either lift to the curve of z in P^1(F_q), computed in F_q.

        A lift with f(z) a square lies in C(F_q), of order q + 1 - a; one
        with f(z) a non-square lies in ker(Frobenius + 1), the group of the
        quadratic twist, of order q + 1 + a (Washington, Elliptic Curves,
        2nd ed., 4.1).  Off the 2-torsion, [m]P = O exactly when
        psihat_m(z) = 0 (ibid., Thm 3.6), so the primes of that group order
        are stripped by running the psihat recurrence on the scalar z: no
        group law, no extension field and no inversions.  torsion_order is
        the group-law oracle for this.
        """
        if z is INF:
            return 1
        base = self.base
        z = base.coerce(z)
        fz = self.f(z)
        if fz.is_zero():
            return 2
        q = base.order
        _, a = self.count_and_trace()
        n = q + 1 - a if fz ** ((q - 1) // 2) == base.one else q + 1 + a
        psihat = PsiHat(z, self.lam, base.one)
        order = n
        for ell in factorize(n):
            while order % ell == 0 and psihat.get(order // ell).is_zero():
                order //= ell
        return order

    def random_point(self, rng):
        """A uniform-ish affine point, by rejection on x."""
        base = self.base
        while True:
            x = base.element([rng.randrange(base.p) for _ in range(base.k)])
            fx = self.f(x)
            r = base.sqrt(fx)
            if r is not None:
                y = r if rng.random() < 0.5 else -r
                return CurvePoint(self, x, y)

    def to_json(self):
        from .serialize import value_to_json

        return {"field": self.base.to_json() if self.base != QQ else "QQ", "lambda": value_to_json(self.lam)}


def extension_order(q: int, trace: int, n: int) -> int:
    """#C(F_{q^n}) from #C(F_q) via the Frobenius trace recurrence."""
    a_prev, a_cur = 2, trace
    for _ in range(n - 1):
        a_prev, a_cur = a_cur, trace * a_cur - q * a_prev
    return q**n + 1 - a_cur


# ---------------------------------------------------------------------------
# division polynomials, x-only form


class PsiHat:
    """Memoized x-only division polynomial family for y^2 = x(x-1)(x-lam).

    Works over any commutative domain: x may be a polynomial generator
    (symbolic) or a scalar (pointwise evaluation of the same recurrence).
    A polynomial family also keeps the [m]-maps mult_x_map builds on it.
    """

    def __init__(self, x, lam, one):
        self.one = one
        self.x = x
        self.maps = {}
        b2 = -4 * (one + lam)
        b4 = 2 * lam
        b8 = -(lam * lam)
        f = x * (x - one) * (x - lam)
        self.f4 = 4 * f
        # 3x^4 + b2 x^3 + 3b4 x^2 + b8 and
        # 2x^6 + b2 x^5 + 5b4 x^4 + 10b8 x^2 + b2b8 x + b4b8, by Horner in x
        x2 = x * x
        self._memo = {
            0: one - one,
            1: one,
            2: one,
            3: ((3 * x + b2) * x + 3 * b4) * x2 + b8,
            4: ((((2 * x + b2) * x + 5 * b4) * x2 + 10 * b8) * x + b2 * b8) * x + b4 * b8,
        }

    def get(self, m: int):
        if m < 0:
            raise ValueError("division polynomial index must be >= 0")
        memo = self._memo
        if m in memo:
            return memo[m]
        n, rem = divmod(m, 2)
        if rem == 0:
            v = self.get(n) * (self.get(n + 2) * self.get(n - 1) ** 2 - self.get(n - 2) * self.get(n + 1) ** 2)
        else:
            t1 = self.get(n + 2) * self.get(n) ** 3
            t2 = self.get(n - 1) * self.get(n + 1) ** 3
            f4sq = self.f4 * self.f4
            if n % 2 == 0:
                v = f4sq * t1 - t2
            else:
                v = t1 - f4sq * t2
        memo[m] = v
        return v


SYMBOLIC_LAMBDA_RING = PolyRing(QQ, "l")
SYMBOLIC_X_RING = PolyRing(SYMBOLIC_LAMBDA_RING, "x")


def _psihat_symbolic_family() -> PsiHat:
    lam = SYMBOLIC_X_RING.coerce(SYMBOLIC_LAMBDA_RING.gen())
    return PsiHat(SYMBOLIC_X_RING.gen(), lam, SYMBOLIC_X_RING.one)


_SYMBOLIC_PSIHAT = None
_CURVE_PSIHAT_CACHE = {}


def _symbolic_family() -> PsiHat:
    global _SYMBOLIC_PSIHAT
    if _SYMBOLIC_PSIHAT is None:
        _SYMBOLIC_PSIHAT = _psihat_symbolic_family()
    return _SYMBOLIC_PSIHAT


def _psihat_for_curve(curve: LegendreCurve) -> PsiHat:
    key = (curve.base, curve.lam)
    fam = _CURVE_PSIHAT_CACHE.get(key)
    if fam is None:
        ring = PolyRing(curve.base, "x")
        fam = PsiHat(ring.gen(), ring.coerce(curve.lam), ring.one)
        if len(_CURVE_PSIHAT_CACHE) > 64:
            _CURVE_PSIHAT_CACHE.clear()
        _CURVE_PSIHAT_CACHE[key] = fam
    return fam


def division_polynomial(m: int, curve: LegendreCurve | None = None) -> Poly:
    """psihat_m as a polynomial in x; symbolic in lambda when curve is None."""
    if m < 1:
        raise ValueError("division polynomial index must be >= 1")
    if curve is None:
        return _symbolic_family().get(m)
    return _psihat_for_curve(curve).get(m)


def psihat_eval(m: int, lam, z):
    """psihat_m(z; lam) by running the recurrence on scalars; exact in any field."""
    if isinstance(lam, Fraction) or isinstance(z, Fraction):
        one = Fraction(1)
        lam, z = Fraction(lam), Fraction(z)
    else:
        one = lam.field.one
    return PsiHat(z, lam, one).get(m)


def mult_x_map(m: int, curve: LegendreCurve | None = None) -> RationalFunction:
    """The rational function with phi_m(x(P)) = x([m]P), reduced over a field.

    Symbolic output (curve=None) keeps the classical numerator/denominator
    pair x*psi_m^2 - psi_{m+1}psi_{m-1} over psi_m^2, which is already
    coprime in characteristic 0.  Each map is built once per psihat family,
    that is once per (field, lambda) and once symbolically.
    """
    if m < 1:
        raise ValueError("multiplication index must be >= 1")
    fam = _symbolic_family() if curve is None else _psihat_for_curve(curve)
    out = fam.maps.get(m)
    if out is None:
        out = fam.maps[m] = _build_mult_x_map(m, fam, reduce=curve is not None)
    return out


def _build_mult_x_map(m: int, fam: PsiHat, reduce: bool) -> RationalFunction:
    x = fam.x
    ring = x.ring
    if m == 1:
        return RationalFunction(x, ring.one, reduce=False)
    pm = fam.get(m)
    pplus = fam.get(m + 1)
    pminus = fam.get(m - 1)
    if m % 2 == 1:
        num = x * pm * pm - fam.f4 * pplus * pminus
        den = pm * pm
    else:
        num = x * fam.f4 * pm * pm - pplus * pminus
        den = fam.f4 * pm * pm
    if den.is_zero():
        raise CurveError(f"multiplication-by-{m} map degenerates identically (char {ring.char})")
    return RationalFunction(num, den, reduce=reduce)


# ---------------------------------------------------------------------------
# supersingularity


def hasse_polynomial(p: int) -> Poly:
    """Deuring-Hasse polynomial over F_p: sum binom((p-1)/2, k)^2 l^k."""
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    field = FiniteField(p)
    h = (p - 1) // 2
    ring = PolyRing(field, "l")
    return ring.from_coeffs([math.comb(h, k) ** 2 % p for k in range(h + 1)])


def is_supersingular(lam: FFElement) -> bool:
    """Vanishing of H_p at lambda; the trace oracle re-checks this in tests."""
    field = lam.field
    if lam.is_zero() or lam.is_one():
        raise CurveError("lambda must avoid 0 and 1")
    if field.p == 2:
        raise CurveError("characteristic 2 is excluded")
    hp = hasse_polynomial(field.p)
    return hp.evaluate(lam, ring=field).is_zero()


def supersingular_lambdas(p: int):
    """All supersingular lambda in F_{p^2} (they never leave it), sorted."""
    field = FiniteField(p, 2)
    if p == 2:
        raise CurveError("characteristic 2 is excluded")
    # each lambda is one Horner pass over the (p + 1)/2 coefficients of H_p
    check_enumeration(f"supersingular scan of F_{{{p}^2}}", p, 2, (p + 1) // 2)
    hp = hasse_polynomial(p)
    out = [lam for lam in field if not lam.is_zero() and not lam.is_one() and hp.evaluate(lam, ring=field).is_zero()]
    return field, sorted(out, key=lambda e: e.coeffs)


# ---------------------------------------------------------------------------
# symbolic composition identity via single-point Kronecker evaluation


class _BoundedInt:
    """Integer value at the Kronecker point plus degree/height bounds.

    Tracking (value, max |coeff|, deg_x, deg_l, #terms) through the same
    arithmetic as the polynomials makes the single-point equality test a
    proof: the evaluation point is chosen larger than the tracked height.
    """

    __slots__ = ("value", "height", "degx", "degl", "terms")

    def __init__(self, value, height, degx, degl):
        self.value = value
        self.height = height
        self.degx = degx
        self.degl = degl
        self.terms = (degx + 1) * (degl + 1)

    def __mul__(self, other):
        return _BoundedInt(
            self.value * other.value,
            min(self.terms, other.terms) * self.height * other.height,
            self.degx + other.degx,
            self.degl + other.degl,
        )

    def __add__(self, other):
        return _BoundedInt(
            self.value + other.value,
            self.height + other.height,
            max(self.degx, other.degx),
            max(self.degl, other.degl),
        )


def _integer_bivariate(P: Poly):
    """[(xdeg, [int lambda-coeffs])] for a bivariate over Q with integral entries."""
    rows = []
    height = 0
    degl = 0
    for i, c in enumerate(P.coeffs):
        if isinstance(c, Poly):
            ints = []
            for v in c.coeffs:
                assert v.denominator == 1, "expected integral coefficients"
                ints.append(v.numerator)
        else:
            assert c.denominator == 1
            ints = [c.numerator]
        rows.append(ints)
        for v in ints:
            height = max(height, abs(v))
        degl = max(degl, len(ints) - 1)
    return rows, height, P.degree, degl


def _eval_bounded(rows, height, degx, degl, xshift, lshift):
    """Horner at x = 2^xshift, lambda = 2^lshift; shifts, not bignum products."""
    acc = 0
    for ints in reversed(rows):
        lacc = 0
        for v in reversed(ints):
            lacc = (lacc << lshift) + v
        acc = (acc << xshift) + lacc
    return _BoundedInt(acc, height, degx, degl)


def verify_composition(m: int, n: int) -> bool:
    """Exact check that phi_{m*n} = phi_m o phi_n over Q(lambda).

    Cross-multiplied identity A_{mn} * B_comp = B_{mn} * A_comp is verified
    at a single Kronecker point (lambda = x^S, x = 2^T) with S and T chosen
    beyond the tracked degree and height bounds, which proves the
    polynomial identity.
    """
    return _composition_holds(mult_x_map(m), mult_x_map(n), mult_x_map(m * n))


def _composition_holds(outer: RationalFunction, inner: RationalFunction, whole: RationalFunction) -> bool:
    """whole == outer o inner over Q(lambda), by the Kronecker-point proof above."""
    datas = {}
    for name, p in (("Ao", outer.num), ("Bo", outer.den), ("Ai", inner.num), ("Bi", inner.den), ("Aw", whole.num), ("Bw", whole.den)):
        datas[name] = _integer_bivariate(p)

    D = max(outer.num.degree, outer.den.degree)
    degx_inner = max(datas["Ai"][2], datas["Bi"][2])
    degx_total = max(datas["Aw"][2], datas["Bw"][2]) + D * degx_inner
    S = degx_total + 1

    # the tracked heights do not depend on T, so a first pass at T = 0 (cheap
    # small values) only measures them; the second pass is the proof
    T = 0
    while True:
        Ai = _eval_bounded(*datas["Ai"], T, T * S)
        Bi = _eval_bounded(*datas["Bi"], T, T * S)

        def coefficients(rows, height, degx, degl):
            cs = [_eval_bounded([ints], height, 0, max(len(ints) - 1, 0), T, T * S) for ints in rows]
            return cs + [_BoundedInt(0, 0, 0, 0)] * (D + 1 - len(cs))

        # homogeneous Horner for sum_i c_i Ai^i Bi^(D-i): every product has
        # one short factor (Ai, Bi or a c_i), none is a square-size product
        ca, cb = coefficients(*datas["Ao"]), coefficients(*datas["Bo"])
        Acomp, Bcomp = ca[D], cb[D]
        bi_pow = _BoundedInt(1, 1, 0, 0)
        for i in range(D - 1, -1, -1):
            bi_pow = bi_pow * Bi
            Acomp = Acomp * Ai + ca[i] * bi_pow
            Bcomp = Bcomp * Ai + cb[i] * bi_pow
        Aw = _eval_bounded(*datas["Aw"], T, T * S)
        Bw = _eval_bounded(*datas["Bw"], T, T * S)
        lhs = Aw * Bcomp
        rhs = Bw * Acomp
        need = (lhs.height + rhs.height).bit_length() + 2
        if T >= need:
            return lhs.value == rhs.value
        T = need
