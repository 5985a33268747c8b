"""Torsion loci of the Legendre family as plane curves Psi_m(x, lambda) = 0,
their etaleness away from lambda in {0, 1}, and exact verification that the
algebraic functions x(lambda) they cut out solve the Painleve VI equation
with the Picard parameters (0, 0, 0, 1/2).

Everything runs in Frac(Q[lambda])[x]/(Psi_m): the implicit first and second
derivatives of x(lambda) are quotient-ring elements, and "the residual is
zero" is an exact statement, not a numeric tolerance.  Inverses that hit a
factor of the modulus surface it via ZeroDivisorFound; nothing is factored
up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, FiniteField, is_prime
from .legendre import SYMBOLIC_LAMBDA_RING, SYMBOLIC_X_RING, division_polynomial
from .poly import (
    FracField,
    Poly,
    PolyRing,
    QuotientElement,
    QuotientRing,
    discriminant,
    integer_normalize,
    poly_gcd,
    to_fraction_coeffs,
)

TORSION_LOCUS_BOUND = 12
# the exact residual in Frac(Q[lambda])[x]/(Psi_m) does not finish for m = 5
PVI_EXACT_BOUND = 4

LAMBDA_FRAC = FracField(SYMBOLIC_LAMBDA_RING)
QUOTIENT_X_RING = PolyRing(LAMBDA_FRAC, "x")


class SingularSolution(ArithmeticError):
    """The candidate sits identically on the Painleve VI singular locus."""


@dataclass(frozen=True)
class PVIParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma, self.delta)

    def to_json(self):
        from .serialize import value_to_json

        names = ("alpha", "beta", "gamma", "delta")
        return {n: value_to_json(QQ.coerce(v)) for n, v in zip(names, self.as_tuple())}


def picard_params() -> PVIParams:
    """The parameter tuple whose PVI equation the torsion loci solve.

    This is the classical Picard normalization (unipotent monodromy at
    0, 1, lambda; eigenvalues {-1,-1} at infinity).  It is configuration
    validated at test time - the residuals of Psi_3 and Psi_4 vanish for
    it and for no other tuple in a rational grid - rather than assumed.
    """
    return PVIParams(Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2))


@dataclass(frozen=True)
class TorsionLocus:
    """The locus of x-coordinates of m-torsion as a primitive squarefree
    integer polynomial in (x, lambda).

    ``separable_at`` = (p, lambda_0) names the specialisation at which
    Psi_m mod p keeps its x-degree and has simple roots, the proof that
    disc_x(Psi_m) is not identically zero; it is not part of the JSON.
    """

    m: int
    psi: Poly  # over Z (as Fractions), x outer, lambda inner
    separable_at: tuple[int, int]

    def to_json(self):
        return {"m": self.m, "psi": self.psi.to_json(), "deg_x": self.psi.degree}


_LOCUS_CACHE: dict[int, TorsionLocus] = {}


def torsion_locus(m: int) -> TorsionLocus:
    """Psi_m: for m = 2 the branch locus x(x-1)(x-lambda); for m >= 3 the
    x-only division polynomial psihat_m scaled to integer content 1.

    No gcd is taken: in characteristic 0 the map [m] is separable, so
    psihat_m has simple roots.  `certify_separable` proves it for this
    polynomial, and raises if it cannot.
    """
    if m < 2 or m > TORSION_LOCUS_BOUND:
        raise ValueError(f"torsion locus needs 2 <= m <= {TORSION_LOCUS_BOUND}")
    if m in _LOCUS_CACHE:
        return _LOCUS_CACHE[m]
    if m == 2:
        x = SYMBOLIC_X_RING.gen()
        lam = SYMBOLIC_X_RING.coerce(SYMBOLIC_LAMBDA_RING.gen())
        psi = x * (x - 1) * (x - lam)
    else:
        psi = integer_normalize(division_polynomial(m))
    locus = TorsionLocus(m, psi, certify_separable(psi, m))
    _LOCUS_CACHE[m] = locus
    return locus


def certify_separable(psi: Poly, m: int) -> tuple[int, int]:
    """Prove an integer polynomial Psi(x, lambda) squarefree and primitive
    over Q[lambda]; return the (p, lambda_0) the proof used.

    The x-leading coefficient must be a nonzero integer, so the content of
    Psi in Q[lambda] is a unit.  With p the least odd prime not dividing
    2*m*lc, Psi(x, lambda_0) mod p must keep its x-degree and be coprime to
    its derivative: then disc_x(Psi) is nonzero at lambda_0 mod p, hence
    not identically zero.  For a torsion locus this always succeeds, since
    for p prime to 2m the reduced curve has m^2 distinct m-torsion points
    (Washington, Elliptic Curves, 2nd ed., Ch. 3).  Raises ArithmeticError
    when either condition fails.
    """
    lc = psi.lc
    if lc.degree != 0 or lc.lc.denominator != 1:
        raise ArithmeticError(f"x-leading coefficient {lc} of Psi_{m} is not a nonzero integer")
    bad = 2 * m * lc.lc.numerator
    p = 3
    while bad % p == 0 or not is_prime(p):
        p += 2
    ring = PolyRing(FiniteField(p), "x")
    lam0 = 2  # not 0 or 1 modulo any odd prime, so the reduced curve is smooth
    reduced = ring.from_coeffs([c.evaluate(Fraction(lam0)) for c in psi.coeffs])
    if reduced.degree != psi.degree:
        raise ArithmeticError(f"Psi_{m} drops x-degree mod {p} at lambda_0 = {lam0}")
    if poly_gcd(reduced, reduced.derivative()).degree != 0:
        raise ArithmeticError(f"Psi_{m} has a repeated root mod {p} at lambda_0 = {lam0}")
    return (p, lam0)


def etale_check(m: int) -> dict:
    """disc_x(Psi_m) must vanish only at lambda in {0, 1}.

    Returns the multiplicities of lambda and (lambda - 1) in the
    discriminant and whatever factor remains; etale means the remainder is
    a nonzero constant.
    """
    if m < 3:
        raise ValueError("etale check applies to m >= 3 (m = 2 lies in the punctures)")
    locus = torsion_locus(m)
    disc = discriminant(locus.psi)
    if not isinstance(disc, Poly):
        disc = SYMBOLIC_LAMBDA_RING.coerce(disc)
    if disc.is_zero():
        return {"m": m, "etale": False, "reason": "discriminant vanishes identically"}
    a = 0
    while disc.coeff(0) == QQ.zero:
        disc = Poly(disc.ring, disc.coeffs[1:])
        a += 1
    lam_minus_1 = SYMBOLIC_LAMBDA_RING.from_coeffs([-1, 1])
    b = 0
    while True:
        q, r = disc.divrem(lam_minus_1)
        if not r.is_zero():
            break
        disc = q
        b += 1
    etale = disc.degree == 0
    report = {
        "m": m,
        "etale": etale,
        "lambda_multiplicity": a,
        "lambda_minus_1_multiplicity": b,
        "residual_constant": str(disc.coeff(0)) if etale else None,
    }
    if not etale:
        report["offending_factor"] = disc.to_json()
    return report


class AlgebraicSolutionCandidate:
    """x(lambda) cut out by a squarefree F(x, lambda), with its implicit
    lambda-derivatives as elements of Frac(Q[lambda])[x]/(F)."""

    def __init__(self, modulus: Poly, x, xprime, xsecond):
        self.modulus = modulus
        self.ring = x.ring
        self.x = x
        self.xprime = xprime
        self.xsecond = xsecond
        self._components = None

    def lam(self):
        """lambda as a scalar of the quotient ring."""
        return self.ring.coerce(LAMBDA_FRAC.gen())


def _lift_to_fraction(F: Poly) -> Poly:
    if F.ring == QUOTIENT_X_RING:
        return F
    return to_fraction_coeffs(F, LAMBDA_FRAC)


def _lambda_derivative(g: Poly) -> Poly:
    """Coefficient-wise d/d lambda of a polynomial in x over Frac(Q[lambda])."""
    return Poly(g.ring, tuple(c.derivative() for c in g.coeffs))


def implicit_derivatives(F: Poly) -> AlgebraicSolutionCandidate:
    """x' = -F_lambda / F_x and x'' = d(x')/d lambda along the curve F = 0.

    F may be given with integer or fraction coefficients; it must be
    squarefree so that F_x is invertible modulo F (a shared factor raises
    ZeroDivisorFound carrying that factor).
    """
    F = _lift_to_fraction(F)
    if F.degree < 1:
        raise ArithmeticError("modulus must have positive x-degree")
    ring = QuotientRing(F.monic())
    Fx = ring.element(F.derivative())
    Flam = ring.element(_lambda_derivative(F))
    xprime = -Flam * Fx.inverse()
    # total lambda-derivative of x' = g(x, lambda): dg/dlambda + dg/dx * x'
    g = xprime.poly
    xsecond = ring.element(_lambda_derivative(g)) + ring.element(g.derivative()) * xprime
    x = ring.element(ring.polyring.gen())
    return AlgebraicSolutionCandidate(F, x, xprime, xsecond)


def _residual_components(cand: AlgebraicSolutionCandidate):
    """Split the PVI residual as base - (a*Ca + b*Cb + g*Cg + d*Cd).

    The residual is affine in the four parameters, so computing the
    parameter-free part and the four coefficient elements once makes grid
    scans over parameter tuples cheap.
    """
    if cand._components is not None:
        return cand._components
    ring = cand.ring
    x = cand.x
    xp = cand.xprime
    xpp = cand.xsecond
    lam = cand.lam()
    one = ring.one

    x1 = x - one
    xl = x - lam
    for name, elt in (("0", x), ("1", x1), ("lambda", xl)):
        if elt.is_zero():
            raise SingularSolution(f"x is identically {name}; Painleve VI singular locus")
    inv_x = x.inverse()
    inv_x1 = x1.inverse()
    inv_xl = xl.inverse()

    lam_inv = LAMBDA_FRAC.one / LAMBDA_FRAC.gen()
    lam1_inv = LAMBDA_FRAC.one / (LAMBDA_FRAC.gen() - LAMBDA_FRAC.polyring.one)
    half = ring.coerce(LAMBDA_FRAC.coerce(Fraction(1, 2)))

    base = (
        xpp
        - half * (inv_x + inv_x1 + inv_xl) * xp * xp
        + (ring.coerce(lam_inv) + ring.coerce(lam1_inv) + inv_xl) * xp
    )
    prefactor = x * x1 * xl * ring.coerce(lam_inv * lam_inv * lam1_inv * lam1_inv)
    comps = (
        base,
        prefactor,
        prefactor * ring.coerce(LAMBDA_FRAC.gen()) * inv_x * inv_x,
        prefactor * ring.coerce(LAMBDA_FRAC.gen() - LAMBDA_FRAC.polyring.one) * inv_x1 * inv_x1,
        prefactor * ring.coerce(LAMBDA_FRAC.gen() * (LAMBDA_FRAC.gen() - LAMBDA_FRAC.polyring.one)) * inv_xl * inv_xl,
    )
    cand._components = comps
    return comps


def pvi_residual(cand: AlgebraicSolutionCandidate, params: PVIParams) -> QuotientElement:
    """The Painleve VI residual of the candidate, exactly in the quotient.

    With t = lambda and y = x the equation is

        y'' = 1/2 (1/y + 1/(y-1) + 1/(y-t)) (y')^2
              - (1/t + 1/(t-1) + 1/(y-t)) y'
              + y(y-1)(y-t)/(t^2 (t-1)^2)
                * (alpha + beta t/y^2 + gamma (t-1)/(y-1)^2
                   + delta t(t-1)/(y-t)^2)

    and the returned element is the left side minus the right side; the
    candidate solves PVI(params) iff the result is zero.
    """
    base, ca, cb, cg, cd = _residual_components(cand)
    ring = cand.ring

    def scalar(v):
        return ring.coerce(LAMBDA_FRAC.coerce(Fraction(v)))

    return base - (scalar(params.alpha) * ca + scalar(params.beta) * cb + scalar(params.gamma) * cg + scalar(params.delta) * cd)


def parameter_grid_scan(cand: AlgebraicSolutionCandidate, values) -> list[PVIParams]:
    """All tuples from the given value grid whose residual vanishes."""
    base, ca, cb, cg, cd = _residual_components(cand)
    ring = cand.ring
    coerced = {v: ring.coerce(LAMBDA_FRAC.coerce(Fraction(v))) for v in values}
    hits = []
    for a in values:
        ta = base - coerced[a] * ca
        for b in values:
            tb = ta - coerced[b] * cb
            for g in values:
                tg = tb - coerced[g] * cg
                for d in values:
                    if (tg - coerced[d] * cd).is_zero():
                        hits.append(PVIParams(Fraction(a), Fraction(b), Fraction(g), Fraction(d)))
    return hits
