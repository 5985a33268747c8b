"""Dense polynomial and rational-function arithmetic over any coefficient ring.

Rings are small objects exposing ``zero``, ``one`` and ``coerce``; elements
carry the operators.  Bivariate data in (x, lambda) is a polynomial in x
whose coefficients are polynomials in lambda, with x always the
distinguished variable.  Quotient-ring arithmetic surfaces nontrivial
common factors through ZeroDivisorFound instead of factoring anything.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .fields import QQ, FFElement, FieldError, FiniteField, power


class _InfinityType:
    """The point at infinity of P^1 (and the x of the curve's identity)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _InfinityType()


class ZeroDivisorFound(ArithmeticError):
    """Inversion met a proper factor of the modulus; the factor is the payload."""

    def __init__(self, factor):
        super().__init__(f"zero divisor detected; modulus factor {factor}")
        self.factor = factor


def _integral(coeffs):
    """The numerators of rational coefficients that are all integers, else None."""
    out = []
    for c in coeffs:
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def _int_convolve(a, b):
    """Product of two integer coefficient lists; plain ints avoid Fraction overhead."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _ff_convolve(field, a, b):
    """Product of two F_q coefficient lists by Kronecker substitution.

    Each list becomes one integer: coefficient j of entry i is the digit at
    position i*(2k-1) + j, base 2^(8*width), wide enough that no digit of
    the integer product carries.  One integer product then does the whole
    convolution in Z[t]; each entry is reduced mod (p, modulus) once.
    """
    p, k = field.p, field.k
    slots = 2 * k - 1
    width = ((min(len(a), len(b)) * k * (p - 1) ** 2).bit_length() + 7) // 8
    pad = bytes(width * (k - 1))

    def pack(cs):
        return int.from_bytes(
            b"".join(b"".join(d.to_bytes(width, "little") for d in c.coeffs) + pad for c in cs), "little"
        )

    n = len(a) + len(b) - 1
    raw = (pack(a) * pack(b)).to_bytes(n * slots * width, "little")
    digits = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    if k == 1:
        return [FFElement(field, (d % p,)) for d in digits]
    return [field.reduce(digits[i : i + slots]) for i in range(0, len(digits), slots)]


class PolyRing:
    """R[var] for a base ring R."""

    def __init__(self, base, var="x"):
        self.base = base
        self.var = var

    # built on each use: a stored polynomial would refer back to its ring
    @property
    def zero(self):
        return Poly(self, ())

    @property
    def one(self):
        return Poly(self, (self.base.one,))

    def gen(self):
        return Poly(self, (self.base.zero, self.base.one))

    def coerce(self, v):
        if isinstance(v, Poly) and v.ring == self:
            return v
        if isinstance(v, Poly) and isinstance(self.base, PolyRing) and v.ring == self.base:
            return Poly(self, (v,)) if not v.is_zero() else self.zero
        c = self.base.coerce(v)
        return Poly(self, (c,)) if c != self.base.zero else self.zero

    def from_coeffs(self, coeffs):
        return Poly(self, tuple(self.base.coerce(c) for c in coeffs))

    @property
    def char(self):
        return self.base.char

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base and other.var == self.var

    def __hash__(self):
        return hash(("polyring", self.base, self.var))

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"


class Poly:
    """Dense polynomial; coeffs[i] is the coefficient of var^i, no trailing zeros."""

    __slots__ = ("ring", "coeffs", "_sparse")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == ring.base.zero:
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = coeffs
        self._sparse = None

    # -- structure

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lc(self):
        if not self.coeffs:
            return self.ring.base.zero
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.base.zero

    # -- ring operations

    def _coerce_other(self, other):
        if isinstance(other, Poly) and other.ring == self.ring:
            return other
        try:
            return self.ring.coerce(other)
        except (FieldError, TypeError):
            return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        if self.ring.base.zero.__class__ is Fraction:
            ia, ib = _integral(a), _integral(b)
            if ia is not None and ib is not None:
                for i, c in enumerate(ib):
                    ia[i] += c
                return Poly(self.ring, [Fraction(c) for c in ia])
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return self.ring.zero
        zero = self.ring.base.zero
        if zero.__class__ is FFElement:
            return Poly(self.ring, _ff_convolve(zero.field, a, b))
        if zero.__class__ is Fraction:
            ia, ib = _integral(a), _integral(b)
            if ia is not None and ib is not None:
                return Poly(self.ring, [Fraction(c) for c in _int_convolve(ia, ib)])
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return power(self, e, self.ring.one)

    def scale(self, c):
        c = self.ring.base.coerce(c)
        return Poly(self.ring, tuple(a * c for a in self.coeffs))

    def divrem(self, other):
        """(q, r) with self = q*other + r; needs an invertible leading coefficient."""
        o = self._coerce_other(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if o.degree == 0:
            inv = _invert_coeff(o.lc)
            return self.scale(inv), self.ring.zero
        zero = self.ring.base.zero
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return self.ring.zero, self
        inv_lc = _invert_coeff(o.lc)
        if zero.__class__ is FFElement and zero.field.k == 1:
            return self._divrem_prime_field(o, dq, inv_lc)
        quot = [zero] * (dq + 1)
        for shift in range(dq, -1, -1):
            top = rem[shift + o.degree]
            if top == zero:
                continue
            c = top * inv_lc
            quot[shift] = c
            for i, oc in enumerate(o.coeffs):
                rem[shift + i] = rem[shift + i] - c * oc
        return Poly(self.ring, quot), Poly(self.ring, rem[: o.degree])

    def _divrem_prime_field(self, o, dq, inv_lc):
        """divrem over F_p on plain ints, reduced mod p only where it matters."""
        field = inv_lc.field
        p, inv = field.p, inv_lc.coeffs[0]
        rem = [c.coeffs[0] for c in self.coeffs]
        div = [c.coeffs[0] for c in o.coeffs]
        quot = [0] * (dq + 1)
        for shift in range(dq, -1, -1):
            c = rem[shift + o.degree] * inv % p
            if c:
                quot[shift] = c
                for i, v in enumerate(div):
                    rem[shift + i] -= c * v
        return (
            Poly(self.ring, [FFElement(field, (c,)) for c in quot]),
            Poly(self.ring, [FFElement(field, (c % p,)) for c in rem[: o.degree]]),
        )

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def exact_div(self, other):
        q, r = self.divrem(other)
        if not r.is_zero():
            raise ArithmeticError("division is not exact")
        return q

    def __truediv__(self, other):
        # exact scalar division only; full division goes through divrem
        if isinstance(other, Poly) and other.ring == self.ring:
            return self.exact_div(other)
        return self.scale(_invert_coeff(self.ring.base.coerce(other)))

    # -- calculus / evaluation

    def derivative(self):
        if len(self.coeffs) <= 1:
            return self.ring.zero
        return Poly(
            self.ring,
            tuple(_int_mul(c, i) for i, c in enumerate(self.coeffs) if i >= 1),
        )

    def map_coeffs(self, fn, new_ring):
        return Poly(new_ring, tuple(fn(c) for c in self.coeffs))

    def evaluate(self, value, ring=None):
        """Horner evaluation, jumping over zero-coefficient runs by powering.

        The value may live in any ring accepting the coefficients; sparse
        polynomials (like the x^{p^2} monomials this package produces in
        supersingular characteristic) cost O(#terms * log degree).  The
        coefficients are coerced only when the value's ring is not the
        polynomial's own base.
        """
        if ring is None:
            ring = _ring_of(value)
        value = ring.coerce(value) if not isinstance(value, Poly) else value
        if self._sparse is None:
            zero = self.ring.base.zero
            self._sparse = tuple((i, c) for i, c in enumerate(self.coeffs) if c != zero)
        terms = self._sparse
        if not terms:
            return ring.zero
        if ring is not self.ring.base:
            terms = [(i, ring.coerce(c)) for i, c in terms]
        prev, acc = terms[-1]
        for i, c in reversed(terms[:-1]):
            gap = prev - i
            acc = acc * (value if gap == 1 else value**gap) + c
            prev = i
        if prev > 0:
            acc = acc * value**prev
        return acc

    def __call__(self, value, ring=None):
        return self.evaluate(value, ring=ring)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(_invert_coeff(self.lc))

    # -- content / primitive parts

    def content(self):
        """gcd of the coefficients, in the base ring's own sense."""
        if self.is_zero():
            return self.ring.base.zero
        base = self.ring.base
        if base == QQ:
            num = 0
            den = 1
            for c in self.coeffs:
                num = int_gcd(num, c.numerator)
                den = den * c.denominator // int_gcd(den, c.denominator)
            cont = Fraction(num, den)
            return cont if cont else Fraction(1)
        if isinstance(base, PolyRing):
            g = base.zero
            for c in self.coeffs:
                g = poly_gcd(g, c)
            return g
        return base.one  # field coefficients

    def primitive(self):
        """Content-1 (and sign/lead normalized) associate."""
        if self.is_zero():
            return self
        base = self.ring.base
        if base == QQ:
            c = self.content()
            out = self.scale(1 / c)
            if out.lc < 0:
                out = -out
            return out
        if isinstance(base, PolyRing):
            c = self.content()
            out = Poly(self.ring, tuple(a.exact_div(c) for a in self.coeffs))
            lead = out.lc
            # normalize the sign of the leading coefficient's leading rational
            if isinstance(lead, Poly) and lead.ring.base == QQ and lead.lc < 0:
                out = -out
            return out
        return self.monic()

    # -- hashing / display

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.coeffs == other.coeffs
        if other == 0:
            return self.is_zero()
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("poly", self.ring, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        var = self.ring.var
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.base.zero:
                continue
            cs = repr(c)
            if isinstance(self.ring.base, PolyRing):
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*{var}")
            else:
                parts.append(f"{cs}*{var}^{i}")
        return " + ".join(parts)

    def to_json(self):
        return [_coeff_to_json(c) for c in self.coeffs]


def _invert_coeff(c):
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, Poly):
        if c.degree != 0:
            raise ArithmeticError("leading coefficient is not a unit")
        return Poly(c.ring, (_invert_coeff(c.coeffs[0]),))
    if hasattr(c, "inverse"):
        return c.inverse()
    return 1 / c


def _int_mul(c, n: int):
    if isinstance(c, Fraction):
        return c * n
    if isinstance(c, Poly):
        return c.scale(c.ring.base.coerce(n)) if not isinstance(c.ring.base, PolyRing) else Poly(c.ring, tuple(_int_mul(a, n) for a in c.coeffs))
    return c * n


def _ring_of(value):
    if isinstance(value, (int, Fraction)):
        return QQ
    if isinstance(value, Poly):
        return value.ring
    return value.field


def _coeff_to_json(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    if isinstance(c, Poly):
        return c.to_json()
    if hasattr(c, "to_json"):
        return c.to_json()
    return str(c)


# ---------------------------------------------------------------------------
# gcd / resultants


def _field_coeffs(ring) -> bool:
    base = ring.base
    return base == QQ or isinstance(base, FiniteField) or hasattr(base, "nonsquare")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field; primitive gcd (subresultant PRS) otherwise."""
    if a.is_zero():
        return b.primitive() if not _field_coeffs(b.ring) else b.monic()
    if b.is_zero():
        return a.primitive() if not _field_coeffs(a.ring) else a.monic()
    if a.ring != b.ring:
        raise ArithmeticError("gcd of polynomials over different rings")
    if _field_coeffs(a.ring):
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()
    return _subresultant_prs(a, b)[1].primitive()


def pseudo_divrem(a: Poly, b: Poly):
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q*b + r; no coefficient inversion."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    ring = a.ring
    d = a.degree - b.degree
    if d < 0:
        return ring.zero, a
    q, r = ring.zero, a
    e = d + 1
    lb = b.lc
    while not r.is_zero() and r.degree >= b.degree:
        t = Poly(ring, (ring.base.zero,) * (r.degree - b.degree) + (r.lc,))
        q = q.scale(lb) + t
        r = r.scale(lb) - t * b
        e -= 1
    s = lb**e
    return q.scale(s), r.scale(s)


def _subresultant_prs(a: Poly, b: Poly):
    """The subresultant remainder sequence of two nonzero polynomials over
    an integral domain (Cohen, GTM 138, Alg. 3.3.1 and 3.3.7).

    Returns (A, B, h, sign) where B is the last nonzero remainder, A the
    one before it, h the subresultant scale factor after B and sign the
    parity (-1)^(deg A_i * deg B_i) accumulated along the way, so that
    Res(a, b) = sign * h^(1 - deg A) * lc(B)^(deg A) when deg B = 0.
    """
    sign = 1
    if a.degree < b.degree:
        a, b = b, a
        if a.degree % 2 and b.degree % 2:
            sign = -1
    g = h = a.ring.base.one
    while True:
        d = a.degree - b.degree
        if a.degree % 2 and b.degree % 2:
            sign = -sign
        rem = pseudo_divrem(a, b)[1]
        if rem.is_zero():
            return a, b, h, sign
        divisor = g * h**d
        a, b = b, Poly(rem.ring, tuple(_coeff_exact_div(c, divisor) for c in rem.coeffs))
        g = a.lc
        h = _coeff_hpow(h, g, d)


def _coeff_exact_div(a, b):
    if isinstance(a, Poly):
        return a.exact_div(b)
    return a / b


def _coeff_hpow(h, g, d):
    """g^d / h^(d-1), exactly."""
    if d == 0:
        return h
    if d == 1:
        return g
    return _coeff_exact_div(g**d, h ** (d - 1))


def resultant(a: Poly, b: Poly):
    """Res(a, b) in the coefficient ring: the Euclidean recursion over a
    field, the subresultant remainder sequence over an integral domain."""
    if a.ring != b.ring:
        raise ArithmeticError("resultant over different rings")
    if _field_coeffs(a.ring):
        return _resultant_field(a, b)
    if a.is_zero() or b.is_zero():
        return a.ring.base.zero
    A, B, h, sign = _subresultant_prs(a, b)
    if B.degree > 0:
        return a.ring.base.zero
    res = _coeff_hpow(h, B.lc, A.degree)
    return res if sign == 1 else -res


def _resultant_field(a: Poly, b: Poly):
    base = a.ring.base
    if a.is_zero() or b.is_zero():
        return base.zero
    sign = 1
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2 == 1:
            sign = -sign
        a, b = b, a
    res = base.one
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return base.zero
        res = res * b.lc ** (a.degree - r.degree)
        if (a.degree * b.degree) % 2 == 1:
            res = -res
        a, b = b, r
    res = res * b.lc**a.degree
    return res if sign == 1 else -res


def discriminant(f: Poly):
    """Res(f, f')/lc(f); degree-1 inputs give 1 per the artifact convention."""
    if f.degree < 1:
        raise ArithmeticError("discriminant needs degree >= 1")
    if f.degree == 1:
        return f.ring.base.one
    return _coeff_exact_div(resultant(f, f.derivative()), f.lc)


def squarefree_part(f: Poly) -> Poly:
    """Product of the distinct irreducible factors, primitive-normalized."""
    if f.is_zero():
        raise ArithmeticError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return f.ring.one
    d = f.derivative()
    if d.is_zero():
        # characteristic p: f is a p-th power of a polynomial with p-th-root coefficients
        p = f.ring.char
        if not p:
            raise AssertionError("zero derivative in characteristic 0")
        root_coeffs = []
        for i in range(0, f.degree + 1, p):
            root_coeffs.append(_pth_root(f.coeff(i), p))
        return squarefree_part(Poly(f.ring, root_coeffs))
    g = poly_gcd(f, d)
    if g.degree == 0:
        return f.primitive() if not _field_coeffs(f.ring) else f.monic()
    field = _field_coeffs(f.ring)
    # out collects each factor whose multiplicity is not divisible by char, once
    out = f.exact_div(g) if field else _primitive_exact_div(f, g)
    p = f.ring.char
    if p:
        # factors with multiplicity divisible by p sit entirely inside g and are
        # absent from out; strip out's factors from f to isolate that p-th power
        rest = f
        while True:
            h = poly_gcd(rest, out)
            if h.degree == 0:
                break
            rest = rest.exact_div(h) if field else _primitive_exact_div(rest, h)
        if rest.degree > 0:
            out = out * squarefree_part(rest)
    return out.primitive() if not _field_coeffs(out.ring) else out.monic()


def _primitive_exact_div(f: Poly, g: Poly) -> Poly:
    """f/g for bivariate data, up to a unit: the primitive pseudo-quotient."""
    return pseudo_divrem(f, g)[0].primitive()


def _pth_root(c, p):
    if isinstance(c, Poly):
        ring = c.ring
        out = []
        for i in range(0, c.degree + 1, p):
            out.append(_pth_root(c.coeff(i), p))
        if any(c.coeff(i) != ring.base.zero for i in range(c.degree + 1) if i % p):
            raise ArithmeticError("not a p-th power")
        return Poly(ring, out)
    # finite-field scalar: a^(q/p)
    q = c.field.order
    return c ** (q // p)


def map_coefficients(f: Poly, target_field) -> Poly:
    """Coefficient-wise reduction homomorphism into target_field.

    Rational coefficients whose denominators are divisible by the target
    characteristic raise FieldError.  Bivariate input maps both layers.
    """
    base = f.ring.base
    if isinstance(base, PolyRing):
        inner = PolyRing(target_field, base.var)
        outer = PolyRing(inner, f.ring.var)
        return f.map_coeffs(lambda c: map_coefficients(c, target_field), outer)
    ring = PolyRing(target_field, f.ring.var)
    return f.map_coeffs(target_field.coerce, ring)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Fraction of polynomials, reduced with a monic denominator unless
    reduce=False; reducing needs a field-coefficient ring."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce=True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.ring != den.ring:
            raise ArithmeticError("numerator/denominator ring mismatch")
        if reduce:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            inv = _invert_coeff(den.lc)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree == 0

    def _coerce_other(self, other):
        if isinstance(other, RationalFunction):
            if other.num.ring != self.num.ring:
                raise ArithmeticError("ring mismatch")
            return other
        try:
            p = self.num.ring.coerce(other)
        except (FieldError, TypeError):
            return None
        return RationalFunction(p, self.num.ring.one, reduce=False)

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverting the zero rational function")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return RationalFunction(self.num**e, self.den**e, reduce=False)

    def derivative(self):
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def evaluate(self, value, ring=None):
        nv = self.num.evaluate(value, ring=ring)
        dv = self.den.evaluate(value, ring=ring)
        return nv / dv

    def eval_proj(self, z):
        """Evaluate as a self-map of P^1; z and the result are finite-field
        values or INF.  The denominator goes first: a zero is a pole, and a
        one (every reduced x^{p^2}/1) needs no division."""
        if z is INF:
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INF
            lead_num = self.num.coeff(dd)
            if dn < dd:
                return lead_num  # zero of the right field via coeff()
            return self.num.lc / self.den.lc
        dv = self.den.evaluate(z)
        if dv.is_zero():
            return INF
        nv = self.num.evaluate(z)
        return nv if dv.is_one() else nv / dv

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        return hash(("ratfunc", self.num, self.den))

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def integer_normalize(f: Poly) -> Poly:
    """Scale bivariate-over-Q data to integer coefficients with content 1, lead positive."""
    fracs = []
    for c in f.coeffs:
        fracs.extend(c.coeffs if isinstance(c, Poly) else (c,))
    den_lcm = 1
    num_gcd = 0
    for v in fracs:
        den_lcm = den_lcm * v.denominator // int_gcd(den_lcm, v.denominator)
        num_gcd = int_gcd(num_gcd, v.numerator)
    if num_gcd == 0:
        return f
    s = Fraction(den_lcm, num_gcd)
    lead = f.lc
    lead_val = lead.lc if isinstance(lead, Poly) else lead
    if lead_val * s < 0:
        s = -s
    if isinstance(f.ring.base, PolyRing):
        return Poly(f.ring, tuple(c.scale(s) for c in f.coeffs))
    return f.scale(s)


# ---------------------------------------------------------------------------
# quotient rings K[x]/(F)


class QuotientRing:
    """R[x]/(F).  Reduction needs only a unit leading coefficient of F, so R
    may be Q[lambda] when lc(F) is a nonzero constant; `inverse` needs field
    coefficients, and F squarefree so that zero divisors certify factors."""

    def __init__(self, modulus: Poly):
        if modulus.degree < 1:
            raise ArithmeticError("quotient modulus must have positive degree")
        self.modulus = modulus
        self.polyring = modulus.ring

    # built on each use: a stored element would refer back to its ring
    @property
    def zero(self):
        return QuotientElement(self, self.polyring.zero)

    @property
    def one(self):
        return QuotientElement(self, self.polyring.one)

    def element(self, poly) -> "QuotientElement":
        poly = self.polyring.coerce(poly)
        return QuotientElement(self, poly % self.modulus)

    def coerce(self, v):
        if isinstance(v, QuotientElement) and v.ring == self:
            return v
        return self.element(v)

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("quotient", self.modulus))

    def __repr__(self):
        return f"{self.polyring!r}/({self.modulus!r})"


class QuotientElement:
    __slots__ = ("ring", "poly")

    def __init__(self, ring, poly):
        self.ring = ring
        self.poly = poly

    def is_zero(self):
        return self.poly.is_zero()

    def _coerce_other(self, other):
        if isinstance(other, QuotientElement):
            if other.ring != self.ring:
                raise ArithmeticError("quotient ring mismatch")
            return other
        try:
            return self.ring.coerce(other)
        except (FieldError, TypeError):
            return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return QuotientElement(self.ring, self.poly + o.poly)

    __radd__ = __add__

    def __neg__(self):
        return QuotientElement(self.ring, -self.poly)

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return QuotientElement(self.ring, self.poly - o.poly)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return QuotientElement(self.ring, (self.poly * o.poly) % self.ring.modulus)

    __rmul__ = __mul__

    def inverse(self):
        """Extended Euclid mod F; a nontrivial common factor raises ZeroDivisorFound."""
        if self.poly.is_zero():
            raise ZeroDivisionError("inverting zero in the quotient ring")
        F = self.ring.modulus
        a, b = F, self.poly
        s0, s1 = self.ring.polyring.zero, self.ring.polyring.one
        while not b.is_zero():
            q, r = a.divrem(b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
        if a.degree > 0:
            raise ZeroDivisorFound(a.monic())
        inv = s0.scale(_invert_coeff(a.lc))
        return QuotientElement(self.ring, inv % F)

    def __truediv__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.ring.one)

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.poly == o.poly

    def __hash__(self):
        return hash(("qelt", self.poly))

    def __repr__(self):
        return f"[{self.poly!r}]"


def swap_variables(F: Poly) -> Poly:
    """Exchange the two layers of a bivariate polynomial."""
    inner = F.ring.base
    if not isinstance(inner, PolyRing):
        raise ArithmeticError("swap_variables needs bivariate input")
    outer_new = PolyRing(PolyRing(inner.base, F.ring.var), inner.var)
    max_inner = max((c.degree for c in F.coeffs), default=-1)
    rows = []
    for j in range(max_inner + 1):
        rows.append(Poly(outer_new.base, [F.coeff(i).coeff(j) for i in range(F.degree + 1)]))
    return Poly(outer_new, rows)
