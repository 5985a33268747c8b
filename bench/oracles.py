"""Independent reference arithmetic for checking lattes outputs.

Nothing here imports lattes.  Finite fields are F_p and F_{p^2} with
elements as pairs (a, b) = a + b*t mod p, where t^2 + c1*t + c0 = 0 and
x^2 + c1*x + c0 is the least monic irreducible quadratic in the order
lattes documents (a0 + a1*p increasing), so coefficient lists mean the
same element on both sides.  Curves are y^2 = x(x-1)(x-lambda) with the
textbook chord-and-tangent law; points are (x, y) tuples and None is O.
Quadratic twists d*y^2 = f(x) are handled through the isomorphic model
Y^2 = X^3 + a*d*X^2 + b*d^2*X with X = d*x, which keeps x-coordinate
dynamics and point orders.  Rational curves use Fraction coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction


def least_quadratic_modulus(p: int) -> tuple[int, int]:
    """(c0, c1) of the least monic irreducible x^2 + c1*x + c0 over F_p."""
    for n in range(p * p):
        c0, c1 = n % p, n // p
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            return c0, c1
    raise ValueError(f"no irreducible quadratic over F_{p}")


class PairField:
    """F_p (k = 1) or F_{p^2} (k = 2) with elements as pairs of residues."""

    def __init__(self, p: int, k: int):
        if k not in (1, 2):
            raise ValueError("only F_p and F_{p^2}")
        self.p, self.k = p, k
        self.c0, self.c1 = least_quadratic_modulus(p) if k == 2 else (0, 0)
        self.zero, self.one = (0, 0), (1, 0)
        self._roots = None

    def elements(self):
        p = self.p
        if self.k == 1:
            return [(a, 0) for a in range(p)]
        return [(a, b) for b in range(p) for a in range(p)]

    def add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x, y):
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def neg(self, x):
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def mul(self, x, y):
        p = self.p
        a, b = x
        c, d = y
        bd = b * d
        # t^2 = -c1*t - c0
        return ((a * c - self.c0 * bd) % p, (a * d + b * c - self.c1 * bd) % p)

    def inv(self, x):
        a, b = x
        p = self.p
        norm = (a * a - self.c1 * a * b + self.c0 * b * b) % p
        if norm == 0:
            raise ZeroDivisionError("inverting zero")
        n = pow(norm, -1, p)
        # conjugate of a + b*t is (a - c1*b) - b*t
        return ((a - self.c1 * b) * n % p, -b * n % p)

    def sqrt_roots(self, x):
        """All square roots of x, from a table of squares built once."""
        if self._roots is None:
            roots = {}
            for y in self.elements():
                roots.setdefault(self.mul(y, y), []).append(y)
            self._roots = roots
        return self._roots.get(x, [])

    def nonsquare(self):
        for x in self.elements():
            if x != self.zero and not self.sqrt_roots(x):
                return x
        raise ValueError("no non-square")


class PairCurve:
    """y^2 = x^3 + a*x^2 + b*x over a PairField."""

    def __init__(self, F: PairField, a, b):
        self.F, self.a, self.b = F, a, b

    @classmethod
    def legendre(cls, F: PairField, lam):
        """y^2 = x(x-1)(x-lam) = x^3 - (1+lam)x^2 + lam*x."""
        if lam in (F.zero, F.one):
            raise ValueError("lambda must avoid 0 and 1")
        return cls(F, F.neg(F.add(F.one, lam)), lam)

    def twist(self, d):
        """The model Y^2 = X^3 + a*d*X^2 + b*d^2*X of d*y^2 = x^3 + a*x^2 + b*x."""
        F = self.F
        return PairCurve(F, F.mul(self.a, d), F.mul(self.b, F.mul(d, d)))

    def f(self, x):
        F = self.F
        return F.mul(x, F.add(F.mul(x, F.add(x, self.a)), self.b))

    def count(self) -> int:
        """#C(F) including O, by enumerating x."""
        n = 1
        for x in self.F.elements():
            n += len(self.F.sqrt_roots(self.f(x)))
        return n

    def points(self):
        pts = [None]
        for x in self.F.elements():
            for y in self.F.sqrt_roots(self.f(x)):
                pts.append((x, y))
        return pts

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        F = self.F
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if F.add(y1, y2) == F.zero:
                return None
            # tangent slope (3x^2 + 2ax + b) / 2y
            num = F.add(F.add(F.mul((3, 0), F.mul(x1, x1)), F.mul((2, 0), F.mul(self.a, x1))), self.b)
            s = F.mul(num, F.inv(F.mul((2, 0), y1)))
        else:
            s = F.mul(F.sub(y2, y1), F.inv(F.sub(x2, x1)))
        x3 = F.sub(F.sub(F.sub(F.mul(s, s), self.a), x1), x2)
        y3 = F.sub(F.mul(s, F.sub(x1, x3)), y1)
        return (x3, y3)

    def mul(self, m: int, P):
        R = None
        while m:
            if m & 1:
                R = self.add(R, P)
            P = self.add(P, P)
            m >>= 1
        return R

    def order(self, P) -> int:
        """Least m >= 1 with [m]P = O, by repeated addition."""
        m, Q = 1, P
        while Q is not None:
            Q = self.add(Q, P)
            m += 1
        return m


class KummerLine:
    """x-coordinate dynamics of a Legendre curve over F_p or F_{p^2}.

    Every x in F lifts to the curve or to its quadratic twist over F, so
    x([m]P) and the order of a lift are computed there.
    """

    def __init__(self, F: PairField, lam):
        self.F = F
        self.lam = lam
        self.curve = PairCurve.legendre(F, lam)
        self.d = F.nonsquare()
        self.twist = self.curve.twist(self.d)
        self.d_inv = F.inv(self.d)

    def lift(self, x):
        """(curve, point) with the point's x mapping to x."""
        F = self.F
        fx = self.curve.f(x)
        roots = F.sqrt_roots(fx)
        if roots:
            return self.curve, (x, roots[0])
        # d*y^2 = f(x): Y^2 = d^3 f(x) at X = d*x
        d = self.d
        X = F.mul(d, x)
        Y = F.sqrt_roots(F.mul(F.mul(d, F.mul(d, d)), fx))[0]
        return self.twist, (X, Y)

    def mult_x(self, m: int, x):
        """x([m]P) for a lift P of x; None stands for infinity."""
        if x is None:
            return None
        E, P = self.lift(x)
        Q = E.mul(m, P)
        if Q is None:
            return None
        return Q[0] if E is self.curve else self.F.mul(Q[0], self.d_inv)

    def order(self, x) -> int:
        if x is None:
            return 1
        E, P = self.lift(x)
        return E.order(P)


def functional_graph(points, succ):
    """({periodic point: its period}, {period: number of points}) of a map
    on a finite set."""
    index = {pt: i for i, pt in enumerate(points)}
    nxt = [index[succ(pt)] for pt in points]
    period = {}
    state = [0] * len(points)  # 0 new, 1 on the current path, 2 done
    for start in range(len(points)):
        path = []
        i = start
        while state[i] == 0:
            state[i] = 1
            path.append(i)
            i = nxt[i]
        if state[i] == 1:
            cycle = path[path.index(i):]
            for j in cycle:
                period[points[j]] = len(cycle)
        for j in path:
            state[j] = 2
    histogram = {}
    for f in period.values():
        histogram[f] = histogram.get(f, 0) + 1
    return period, histogram


def orbit_of(succ, z):
    """(tail, period) of z under succ."""
    seen = {}
    w = z
    while w not in seen:
        seen[w] = len(seen)
        w = succ(w)
    return seen[w], len(seen) - seen[w]


# ---------------------------------------------------------------------------
# rational points


def rational_sqrt(v: Fraction):
    """The non-negative rational square root of v, or None."""
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def q_f(lam: Fraction, x: Fraction) -> Fraction:
    return x * (x - 1) * (x - lam)


def q_add(lam: Fraction, P, Q):
    """Chord-and-tangent sum on y^2 = x(x-1)(x-lam) over Q; None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    a = -(1 + lam)
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        s = (3 * x1 * x1 + 2 * a * x1 + lam) / (2 * y1)
    else:
        s = (y2 - y1) / (x2 - x1)
    x3 = s * s - a - x1 - x2
    return (x3, s * (x1 - x3) - y1)


def q_mul(lam: Fraction, m: int, P):
    R = None
    while m:
        if m & 1:
            R = q_add(lam, R, P)
        P = q_add(lam, P, P)
        m >>= 1
    return R
