"""Exact coefficient arithmetic: Q, prime fields F_p and small extensions F_{p^k}.

Every other module takes its coefficients from here.  Values are immutable;
finite fields pick their defining modulus deterministically (the
lexicographically least monic irreducible), so serialized data is
reproducible across runs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

DESK_CARDINALITY_BOUND = 2**40


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for the 64-bit range we work in."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(base, e: int, one):
    """base**e for e >= 0 by binary square-and-multiply; one is the identity."""
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; desk-scale inputs only."""
    if n <= 0:
        raise ValueError("positive integer expected")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# the rationals


class RationalField:
    """Q, with Fraction as the element type."""

    char = 0
    is_finite = False
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise FieldError(f"cannot coerce {v!r} into Q")

    def __contains__(self, v):
        return isinstance(v, (int, Fraction))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def rational_sqrt(a: Fraction):
    """Exact square root in Q, or None."""
    if a < 0:
        return None
    rn = math.isqrt(a.numerator)
    rd = math.isqrt(a.denominator)
    if rn * rn != a.numerator or rd * rd != a.denominator:
        return None
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z/p on plain int lists (internal helpers)


def _gf_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gf_trim(out)


def _gf_rem(a, b, p):
    """a mod b for int coefficient lists over F_p."""
    a = list(a)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("gf division by zero")
    inv_lb = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        c = a[-1] * inv_lb % p
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _gf_trim(a)
    return a


def _gf_pow_mod(a, e, mod, p):
    result = [1]
    a = _gf_rem(a, mod, p)
    while e:
        if e & 1:
            result = _gf_rem(_gf_mul(result, a, p), mod, p)
        a = _gf_rem(_gf_mul(a, a, p), mod, p)
        e >>= 1
    return result


def _gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_rem(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _gf_is_irreducible(f, p):
    """Frobenius-power test: x^(p^k) = x mod f and gcd conditions at k/d."""
    k = len(f) - 1
    if k < 1:
        return False
    x = [0, 1]
    for d in factorize(k):
        t = _gf_pow_mod(x, p ** (k // d), f, p)
        g = _gf_gcd(_gf_trim([(t[i] if i < len(t) else 0) - (x[i] if i < len(x) else 0) for i in range(max(len(t), len(x)))]), f, p)
        if len(g) - 1 != 0:
            return False
    t = _gf_pow_mod(x, p**k, f, p)
    return _gf_trim([(t[i] if i < len(t) else 0) - (x[i] if i < len(x) else 0) for i in range(max(len(t), len(x)))]) == []


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p.

    Candidates x^k + a_{k-1} x^{k-1} + ... + a_0 are scanned in increasing
    order of the base-p integer a_0 + a_1 p + ... .
    """
    for n in range(p**k):
        digits = []
        t = n
        for _ in range(k):
            digits.append(t % p)
            t //= p
        f = digits + [1]
        if _gf_is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# finite fields


class FFElement:
    """Element of F_{p^k}, a reduced coefficient vector (little-endian)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- predicates

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def in_prime_field(self):
        return not any(self.coeffs[1:])

    def lift_int(self):
        """Integer representative; only valid for prime-field values."""
        if not self.in_prime_field():
            raise FieldError("element not in the prime field")
        return self.coeffs[0]

    # -- arithmetic

    def _coerce_other(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FFElement or other.field is not f:
            other = self._coerce_other(other)
            if other is None:
                return NotImplemented
        p = f.p
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return FFElement(f, ((a[0] + b[0]) % p,))
        return FFElement(f, tuple([(u + v) % p for u, v in zip(a, b)]))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not FFElement or other.field is not f:
            other = self._coerce_other(other)
            if other is None:
                return NotImplemented
        p = f.p
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return FFElement(f, ((a[0] - b[0]) % p,))
        return FFElement(f, tuple([(u - v) % p for u, v in zip(a, b)]))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FFElement or other.field is not f:
            other = self._coerce_other(other)
            if other is None:
                return NotImplemented
        if f.k == 1:
            return FFElement(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        if f.k == 2:
            # (a0 + a1 t)(b0 + b1 t) with t^2 = -m1 t - m0
            (a0, a1), (b0, b1), (m0, m1, _) = self.coeffs, other.coeffs, f.modulus
            hi = a1 * b1
            return FFElement(f, ((a0 * b0 - m0 * hi) % f.p, (a0 * b1 + a1 * b0 - m1 * hi) % f.p))
        prod = [0] * (2 * f.k - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod[i + j] += ai * bj
        return f.reduce(prod)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        f = self.field
        if f.k == 1:
            return FFElement(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        return self ** (f.order - 2)

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
        f = self.field
        if f.k == 1:
            return FFElement(f, (pow(self.coeffs[0], e, f.p),))
        if e >= 8 and f.order <= f.LOG_TABLE_BOUND:
            if self.is_zero():
                return self
            exp, log = f._log_tables()
            return FFElement(f, exp[(log[self.coeffs] * e) % (f.order - 1)])
        return power(self, e, f.one)

    def frobenius(self, n: int = 1):
        """The field automorphism a -> a^(p^n)."""
        f = self.field
        n %= f.k
        return self ** (f.p**n)

    # -- hashing / display

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.coeffs == other.coeffs and (self.field is other.field or self.field == other.field)
        if isinstance(other, int):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        return "(" + ",".join(map(str, self.coeffs)) + ")"

    def to_json(self):
        return list(self.coeffs)


class FiniteField:
    """F_{p^k} with a deterministic defining modulus."""

    char = None  # instance attribute below
    is_finite = True

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k < 1:
            raise FieldError("degree must be >= 1")
        # p >= 2, so a long degree alone decides without forming p^k
        if k >= DESK_CARDINALITY_BOUND.bit_length() or p**k > DESK_CARDINALITY_BOUND:
            raise FieldError(f"cardinality {p}^{k} exceeds the desk-scale bound {DESK_CARDINALITY_BOUND}")
        self.p = p
        self.k = k
        self.char = p
        self.order = p**k
        if k == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = least_irreducible(p, k)
            else:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1 or not _gf_is_irreducible(list(modulus), p):
                    raise FieldError("modulus must be monic irreducible of the stated degree")
            self.modulus = modulus
        self._exp = None
        self._log = None

    LOG_TABLE_BOUND = 1 << 16

    # zero and one are built on each use and the log tables store coefficient
    # tuples: an element refers to its field, so a stored element would make
    # the field a reference cycle, freed only by the cyclic garbage collector
    @property
    def zero(self):
        return FFElement(self, (0,) * self.k)

    @property
    def one(self):
        return FFElement(self, (1,) + (0,) * (self.k - 1))

    def _log_tables(self):
        """Lazy discrete exp/log tables; they make pow and inverse O(1).

        Only built for small fields (full enumeration of the cyclic group),
        exactly the ones the sweeps iterate over anyway.  The generator test
        calls power, not **, which would ask for the tables being built.
        """
        if self._exp is None:
            q = self.order
            fac = factorize(q - 1)
            gen = None
            for cand in self:
                if cand.is_zero():
                    continue
                if all(power(cand, (q - 1) // ell, self.one) != self.one for ell in fac):
                    gen = cand
                    break
            exp = []
            log = {}
            acc = self.one
            for i in range(q - 1):
                exp.append(acc.coeffs)
                log[acc.coeffs] = i
                acc = acc * gen
            self._exp = exp
            self._log = log
        return self._exp, self._log

    def element(self, coeffs) -> FFElement:
        if self.k == 1 and len(coeffs) > 1:
            raise FieldError(f"an element of F_{self.p} takes one coefficient, got {len(coeffs)}")
        if len(coeffs) > self.k:
            return self.reduce(list(coeffs))
        return FFElement(self, tuple([c % self.p for c in coeffs]) + (0,) * (self.k - len(coeffs)))

    def reduce(self, digits: list[int]) -> FFElement:
        """The residue of sum digits[i] x^i mod (p, modulus), for any ints.

        One top-down pass against the monic modulus clears the digits from
        the top down to x^k, then each of the k left is taken mod p; the
        list is overwritten.  Element products for k >= 3, Poly products
        over F_q and element() all reduce here.
        """
        k = self.k
        mod = self.modulus
        for top in range(len(digits) - 1, k - 1, -1):
            c = digits[top]
            if c:
                for j in range(k):
                    digits[top - k + j] -= c * mod[j]
        p = self.p
        return FFElement(self, tuple([d % p for d in digits[:k]]) + (0,) * (k - len(digits)))

    def coerce(self, v) -> FFElement:
        if v.__class__ is int:
            return FFElement(self, (v % self.p,) + (0,) * (self.k - 1))
        if isinstance(v, FFElement):
            if v.field == self:
                return v
            if v.field.p == self.p and v.in_prime_field():
                return self.element([v.coeffs[0]])
            raise FieldError("cannot coerce element from a different field")
        if isinstance(v, int):
            return self.element([v])
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise FieldError(f"denominator of {v} not invertible mod {self.p}")
            return self.element([v.numerator * pow(v.denominator, -1, self.p)])
        raise FieldError(f"cannot coerce {v!r} into F_{self.p}^{self.k}")

    def __iter__(self):
        # ascending n = sum c_i p^i; product varies its last entry fastest, hence the reversal
        for digits in itertools.product(range(self.p), repeat=self.k):
            yield FFElement(self, digits[::-1])

    def gen(self):
        """The residue of x (k > 1) or 1."""
        if self.k == 1:
            return self.one
        return self.element([0, 1])

    def sqrt(self, a: FFElement):
        """Tonelli-Shanks in F_q; returns the lexicographically least root."""
        a = self.coerce(a)
        if a.is_zero():
            return a
        q = self.order
        if self.p == 2:
            return a ** (q // 2)
        if a ** ((q - 1) // 2) != self.one:
            return None
        # write q-1 = 2^s * t
        t, s = q - 1, 0
        while t % 2 == 0:
            t //= 2
            s += 1
        if s == 1:
            r = a ** ((q + 1) // 4)
        else:
            # first non-residue in canonical order
            for z in self:
                if not z.is_zero() and z ** ((q - 1) // 2) != self.one:
                    break
            c = z**t
            r = a ** ((t + 1) // 2)
            u = a**t
            m = s
            while not u.is_one():
                # least i with u^(2^i) = 1
                i, u2 = 0, u
                while not u2.is_one():
                    u2 = u2 * u2
                    i += 1
                b = c ** (2 ** (m - i - 1))
                r = r * b
                c = b * b
                u = u * c
                m = i
        return min(r, -r, key=lambda e: e.coeffs)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def to_json(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus) if self.modulus else []}

    @classmethod
    def from_json(cls, data):
        return cls(data["p"], data["k"], modulus=data["modulus"] or None)


class QuadExtElement:
    """a + b*T with T^2 = u over the base field; y-coordinate extensions."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def _coerce_other(self, other):
        if isinstance(other, QuadExtElement):
            if other.field != self.field:
                raise FieldError("field mismatch")
            return other
        if isinstance(other, (int, Fraction, FFElement)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return QuadExtElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return QuadExtElement(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        u = self.field.nonsquare
        return QuadExtElement(
            self.field,
            self.a * o.a + u * (self.b * o.b),
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self):
        u = self.field.nonsquare
        norm = self.a * self.a - u * (self.b * self.b)
        if norm.is_zero():
            raise ZeroDivisionError("inverting zero")
        ninv = norm.inverse()
        return QuadExtElement(self.field, self.a * ninv, -self.b * ninv)

    def __truediv__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.field.one)

    def __eq__(self, other):
        if isinstance(other, QuadExtElement):
            return self.field == other.field and self.a == other.a and self.b == other.b
        if isinstance(other, (int, FFElement)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(("quadext", self.a, self.b))

    def __repr__(self):
        return f"({self.a}+{self.b}*T)"


class QuadExtField:
    """Relative quadratic extension base(T)/(T^2 - u), u a non-square.

    Used to house y-coordinates of curve points whose x lives in the base
    field; group orders over it come from the trace recurrence, never from
    enumeration.
    """

    is_finite = True

    def __init__(self, base: FiniteField, nonsquare: FFElement):
        if base.sqrt(nonsquare) is not None:
            raise FieldError("defining element is a square in the base field")
        self.base = base
        self.nonsquare = nonsquare
        self.p = base.p
        self.char = base.p
        self.k = 2 * base.k
        self.order = base.order**2

    # built on each use: a stored element would refer back to its field
    @property
    def zero(self):
        return QuadExtElement(self, self.base.zero, self.base.zero)

    @property
    def one(self):
        return QuadExtElement(self, self.base.one, self.base.zero)

    def gen(self):
        return QuadExtElement(self, self.base.zero, self.base.one)

    def coerce(self, v):
        if isinstance(v, QuadExtElement):
            if v.field == self:
                return v
            raise FieldError("cannot coerce between quadratic extensions")
        return QuadExtElement(self, self.base.coerce(v), self.base.zero)

    def __eq__(self, other):
        return (
            isinstance(other, QuadExtField)
            and other.base == self.base
            and other.nonsquare == self.nonsquare
        )

    def __hash__(self):
        return hash(("quadext", self.base, self.nonsquare))

    def __repr__(self):
        return f"{self.base!r}[T]/(T^2-{self.nonsquare})"


# ---------------------------------------------------------------------------
# embeddings


def embed(a: FFElement, target: FiniteField) -> FFElement:
    """Embed a in F_{p^j} into target F_{p^k}, j | k, j <= 2.

    Prime-field values embed as constants; quadratic values go to the
    lexicographically least root of their minimal polynomial, found with
    the quadratic formula (the only case the artifact needs).
    """
    if a.field == target:
        return a
    if a.field.p != target.p:
        raise FieldError("characteristic mismatch")
    if a.in_prime_field():
        return target.element([a.coeffs[0]])
    if a.field.k != 2 or target.k % 2 != 0:
        raise FieldError("only prime-field and quadratic embeddings are supported")
    # minimal polynomial x^2 - tr*x + nm over F_p
    conj = a.frobenius(1)
    tr = a + conj
    nm = a * conj
    t = target.element([tr.lift_int()])
    n = target.element([nm.lift_int()])
    disc = t * t - 4 * n
    r = target.sqrt(disc)
    if r is None:
        raise FieldError("minimal polynomial has no root in the target field")
    inv2 = target.coerce(2).inverse()
    roots = sorted(((t + r) * inv2, (t - r) * inv2), key=lambda e: e.coeffs)
    return roots[0]
