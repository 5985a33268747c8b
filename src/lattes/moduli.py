"""Dynamics of the multiplication-by-p map on the moduli line P^1.

The moduli space of rank-2 parabolic Higgs bundles on P^1 with punctures
{0, 1, lambda, infinity} and weight 1/2 at infinity is identified with P^1
by sending a Higgs field to its zero.  The self-map induced on it by
reduction mod p is realized directly as the [p]-Lattes map of the Legendre
curve (the flow on Higgs bundles itself is not implemented; the two maps
agree).  This module classifies orbits over finite fields, checks the
x^{p^2} collapse at supersingular parameters, and compares torsion orders
of lifted points against the orbit period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FFElement, FiniteField, embed
from .legendre import INF, CurveError, LegendreCurve, check_enumeration, is_supersingular, mult_x_map
from .poly import PolyRing, RationalFunction
from .serialize import value_to_json


@dataclass(frozen=True)
class ParabolicData:
    """The fixed parabolic structure: weight 1/2 at infinity, 0 elsewhere.

    The underlying bundle is O + O(-1) with a nonzero Higgs map
    O -> O(-1) (x) Omega^1(log D); these numbers never vary here.
    """

    punctures: tuple = ("0", "1", "lambda", "infinity")
    weights: tuple = (Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2))
    bundle_degrees: tuple = (0, -1)

    @property
    def sub_slope(self) -> Fraction:
        # the theta-invariant sub-line-bundle O(-1) picks up the weight at infinity
        return Fraction(self.bundle_degrees[1]) + self.weights[3]

    @property
    def total_slope(self) -> Fraction:
        # the weight-1/2 jump at infinity sits on the full rank-2 fiber,
        # so it enters the parabolic degree twice: -1 + 2*(1/2) = 0
        pardeg = Fraction(sum(self.bundle_degrees)) + 2 * self.weights[3]
        return pardeg / 2


PARABOLIC = ParabolicData()


@dataclass(frozen=True)
class ModuliPoint:
    """A point of the moduli line: the zero z of the Higgs field, plus lambda."""

    z: object  # field element or INF
    lam: object

    def to_json(self):
        return {"z": value_to_json(self.z), "lambda": value_to_json(self.lam)}


def stability_check(point: ModuliPoint | None = None) -> dict:
    """Parabolic stability of the bundles the moduli line parametrizes.

    The unique invariant sub-line-bundle has parabolic slope -1/2 < 0 =
    total slope, for every z including infinity; this records the slope
    arithmetic rather than deciding anything point-dependent.
    """
    data = PARABOLIC
    stable = data.sub_slope < data.total_slope
    return {
        "stable": stable,
        "sub_slope": data.sub_slope,
        "total_slope": data.total_slope,
        "weights": list(data.weights),
        "z": value_to_json(point.z) if point is not None else None,
    }


class SelfMap:
    """The [p]-map on P^1 over the field of lambda, stored fully reduced.

    In supersingular characteristic the separable degree collapses; both
    the generic degree p^2 and the reduced fraction are kept so the
    x^{p^2} identity can be stated about the reduced form.
    """

    __slots__ = ("p", "lam", "map", "curve", "supersingular")

    def __init__(self, p: int, lam: FFElement, mp: RationalFunction, curve: LegendreCurve, supersingular: bool):
        self.p = p
        self.lam = lam
        self.map = mp
        self.curve = curve
        self.supersingular = supersingular

    @property
    def generic_degree(self) -> int:
        return self.p * self.p

    @property
    def reduced_degree(self) -> int:
        return self.map.degree

    def is_pth_power_monomial(self) -> bool:
        """True when the reduced map is exactly x^{p^2}."""
        num, den = self.map.num, self.map.den
        if den.degree != 0 or not den.lc.is_one():
            return False
        e = self.p * self.p
        return num.degree == e and num.lc.is_one() and all(num.coeff(i).is_zero() for i in range(e))

    def __call__(self, z):
        return self.map.eval_proj(z)

    def to_json(self):
        return {
            "p": self.p,
            "lambda": value_to_json(self.lam),
            "field": self.lam.field.to_json(),
            "supersingular": self.supersingular,
            "generic_degree": self.generic_degree,
            "reduced_degree": self.reduced_degree,
            "map": self.map.to_json(),
        }


def build_selfmap(lam: FFElement, p: int | None = None) -> SelfMap:
    """The reduced [p]-Lattes map at lambda; p defaults to the characteristic."""
    field = lam.field
    if p is None:
        p = field.p
    if p != field.p:
        raise CurveError(f"p = {p} must be the characteristic of the field of lambda")
    if p == 2 or p < 3:
        raise CurveError("p must be an odd prime")
    curve = LegendreCurve(field, lam)
    mp = mult_x_map(p, curve)
    return SelfMap(p, lam, mp, curve, is_supersingular(lam))


@dataclass
class OrbitReport:
    z: object
    tail: int
    period: int
    torsion_order: int
    divides_pf_minus_1: bool
    divides_pf_plus_1: bool
    equals_pf_minus_1: bool
    gcd_with_p: int
    cycle: list

    def to_json(self):
        return {
            "z": value_to_json(self.z),
            "tail": self.tail,
            "period": self.period,
            "torsion_order": self.torsion_order,
            "div_pf_minus_1": self.divides_pf_minus_1,
            "div_pf_plus_1": self.divides_pf_plus_1,
            "equal_pf_minus_1": self.equals_pf_minus_1,
            "gcd_with_p": self.gcd_with_p,
        }


def _selfmap_over(sm: SelfMap, field: FiniteField) -> SelfMap:
    """The same map with its coefficients pushed into a larger field.

    The coefficients lie in F_p(lambda); they go through the embedding
    fixed by lambda -> embed(lambda, field).  A reduced fraction stays
    reduced under a field extension and its monic denominator stays monic,
    so the map is not rebuilt, and the curve's point count is lifted from
    the field of lambda, not enumerated again.
    """
    if field == sm.lam.field:
        return sm
    lam = embed(sm.lam, field)
    gen = None
    if not sm.lam.in_prime_field():
        # lambda = l0 + l1*g generates F_{p^2} = F_p(g), so g goes to (lam - l0)/l1
        l0, l1 = sm.lam.coeffs
        gen = (lam - l0) * pow(l1, -1, sm.p)

    def phi(c):
        if gen is None:
            return field.element([c.lift_int()])
        return field.element([c.coeffs[0]]) + c.coeffs[1] * gen

    ring = PolyRing(field, "x")
    mp = RationalFunction(sm.map.num.map_coeffs(phi, ring), sm.map.den.map_coeffs(phi, ring), reduce=False)
    return SelfMap(sm.p, lam, mp, sm.curve.base_change(field, lam), sm.supersingular)


def _proj_points(field: FiniteField):
    yield INF
    yield from field


def _walk(z, step, seen: dict):
    """Follow step from z until it reaches a point of seen, numbering each new
    point in seen as it goes.  Returns the new points in order and the
    position among them of the point the walk closed on, or None when the
    walk ran into a point of an earlier walk sharing seen."""
    start = len(seen)
    path = []
    while z not in seen:
        seen[z] = start + len(path)
        path.append(z)
        z = step(z)
    first = seen[z] - start
    return path, first if first >= 0 else None


def _torsion_flags(m: int, p: int, f: int):
    """Whether m divides p^f - 1, divides p^f + 1, and equals p^f - 1."""
    q = p**f
    return (q - 1) % m == 0, (q + 1) % m == 0, m == q - 1


def orbit(z, sm: SelfMap, field: FiniteField | None = None) -> OrbitReport:
    """Iterate the self-map from z until a repeat; attach torsion data.

    The torsion order is that of a lift of z itself, over a quadratic
    extension when f(z) is a non-square, read off z by
    LegendreCurve.x_order.  Flags compare it against p^f -+ 1 for the
    period f of the cycle the orbit falls into.
    """
    if field is None:
        field = sm.lam.field if z is INF else z.field
    sm = _selfmap_over(sm, field)
    if z is not INF:
        z = field.coerce(z)
    path, first = _walk(z, sm, {})
    period = len(path) - first
    m = sm.curve.x_order(z)
    flags = _torsion_flags(m, sm.p, period)
    return OrbitReport(z, first, period, m, *flags, gcd_with_p=sm.p if m % sm.p == 0 else 1, cycle=path[first:])


VERDICT_KEYS = ("div_pf_minus_1", "div_pf_plus_1", "equal_pf_minus_1")


def classify_field(lam: FFElement, p: int | None = None, n: int = 1, with_torsion: bool = False) -> dict:
    """Full functional-graph census of the self-map on P^1(F_{p^{2n}}).

    Every point of a finite set is preperiodic; the census splits them into
    periodic (tail 0) and strictly preperiodic, builds the period
    histogram, and compares the periodic count against #P^1 = p^{2n} + 1.
    """
    deg = 2 * n
    char = lam.field.p
    # each point is one Horner pass over at most p^2 + 1 coefficients of the map
    check_enumeration(f"census of P^1(F_{{{char}^{deg}}})", char, deg, char**2 + 1)
    sm = build_selfmap(lam, p)
    p = sm.p
    k = lam.field.k
    if deg % k != 0:
        raise CurveError(f"lambda lives in F_p^{k}, which does not embed in F_p^{deg}")
    target = FiniteField(p, deg) if deg > k else lam.field
    sm_t = _selfmap_over(sm, target)

    # walk from each point not yet seen; a walk that meets itself closes a new cycle
    seen = {}
    periodic = 0
    histogram: dict[int, int] = {}
    verdicts = dict.fromkeys(VERDICT_KEYS, 0)
    for z in _proj_points(target):
        path, first = _walk(z, sm_t, seen)
        if first is None:
            continue
        cycle = path[first:]
        f = len(cycle)
        periodic += f
        histogram[f] = histogram.get(f, 0) + f
        if with_torsion:
            for w in cycle:
                for key, hit in zip(VERDICT_KEYS, _torsion_flags(sm_t.curve.x_order(w), p, f)):
                    verdicts[key] += hit

    expected = p**deg + 1
    out = {
        "p": p,
        "lambda": value_to_json(lam),
        "n": n,
        "supersingular": sm.supersingular,
        "periodic": periodic,
        "preperiodic": len(seen) - periodic,
        "expected": expected,
        "period_histogram": {str(f): c for f, c in sorted(histogram.items())},
    }
    if with_torsion:
        out["verdicts"] = verdicts
    return out


def supersingular_identity_check(lam: FFElement, p: int | None = None) -> dict:
    """Check the reduced [p]-map equals x^{p^2}, symbolically and pointwise.

    The symbolic comparison inspects the reduced fraction over the field
    of lambda; the pointwise sweep runs over all of P^1(F_{p^4}).  A
    failure returns the first counterexample point.
    """
    sm = build_selfmap(lam, p)
    p = sm.p
    if not sm.supersingular:
        raise CurveError(f"lambda = {lam} is ordinary for p = {p}; identity check needs supersingular input")
    symbolic_ok = sm.is_pth_power_monomial()

    target = FiniteField(p, 4)
    lam4 = embed(lam, target)
    curve4 = LegendreCurve(target, lam4)
    mp4 = mult_x_map(p, curve4)
    counterexample = None
    for z in _proj_points(target):
        lhs = mp4.eval_proj(z)
        rhs = INF if z is INF else z.frobenius(2)
        if lhs != rhs:
            counterexample = z
            break
    return {
        "p": p,
        "lambda": value_to_json(lam),
        "symbolic": symbolic_ok,
        "pointwise": counterexample is None,
        "ok": symbolic_ok and counterexample is None,
        "counterexample": value_to_json(counterexample) if counterexample is not None else None,
    }
