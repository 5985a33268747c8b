"""Torsion loci of the Legendre family as plane curves Psi_m(x, lambda) = 0,
their etaleness away from lambda in {0, 1}, and exact verification that the
algebraic functions x(lambda) they cut out solve the Painleve VI equation
with the Picard parameters (0, 0, 0, 1/2).

Everything is a ring operation in Q[lambda][x] followed by a remainder
modulo Psi_m, whose x-leading coefficient is a nonzero constant: the
implicit derivatives of x(lambda) are (numerator, denominator) pairs, the
PVI residual is cleared of its denominator D, and "the residual is zero" is
the exact statement that the cleared numerator is 0 mod Psi_m, with D proved
a unit there by gcds rather than inverted.  A common factor of the modulus
with D surfaces via ZeroDivisorFound; nothing is factored up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, FiniteField, is_prime
from .legendre import SYMBOLIC_LAMBDA_RING, SYMBOLIC_X_RING, division_polynomial
from .poly import (
    Poly,
    PolyRing,
    QuotientElement,
    QuotientRing,
    ZeroDivisorFound,
    discriminant,
    integer_normalize,
    poly_gcd,
)

TORSION_LOCUS_BOUND = 12
# pvi-check at m = 7 takes about a minute: gcd(Psi_7, d/dx Psi_7) and
# disc_x(Psi_7), one subresultant sequence each, take half a minute apiece
PVI_EXACT_BOUND = 6


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
    """x(lambda) cut out by a squarefree F(x, lambda) with constant x-leading
    coefficient; x' and x'' are (numerator, denominator) pairs of elements
    of Q[lambda][x]/(F)."""

    def __init__(self, modulus: Poly, x, xprime, xsecond):
        self.modulus = modulus
        self.ring = x.ring
        self.x = x
        self.xprime = xprime
        self.xsecond = xsecond
        self._components = None


def _lambda_derivative(g: Poly) -> Poly:
    """Coefficient-wise d/d lambda of a polynomial in x over Q[lambda]."""
    return Poly(g.ring, tuple(c.derivative() for c in g.coeffs))


def implicit_derivatives(F: Poly) -> AlgebraicSolutionCandidate:
    """x' = -v/u and x'' = -A/u^3 along the curve F = 0, where u = F_x,
    v = F_lambda and A = F_xx v^2 - 2 F_x,lambda u v + F_lambda,lambda u^2.

    F is a polynomial in x over Q[lambda]; its x-leading coefficient must
    be a nonzero constant, so that remainders mod F stay in Q[lambda][x],
    and F must be squarefree, so that u is a unit mod F (a common factor
    of F and u raises ZeroDivisorFound carrying that factor).
    """
    if F.degree < 1:
        raise ArithmeticError("modulus must have positive x-degree")
    if F.lc.degree != 0:
        raise ArithmeticError(f"x-leading coefficient {F.lc} of the modulus is not a nonzero constant")
    u = F.derivative()
    g = poly_gcd(F, u)
    if g.degree > 0:
        raise ZeroDivisorFound(g)
    v = _lambda_derivative(F)
    A = u.derivative() * v * v - 2 * _lambda_derivative(u) * u * v + _lambda_derivative(v) * u * u
    ring = QuotientRing(F)
    U = ring.element(u)
    x = ring.element(F.ring.gen())
    return AlgebraicSolutionCandidate(F, x, (ring.element(-v), U), (ring.element(-A), U * U * U))


def _residual_components(cand: AlgebraicSolutionCandidate):
    """Split the cleared PVI residual as N0 - (a*Ca + b*Cb + g*Cg + d*Cd).

    With P = x(x-1)(x-lambda), T = lambda(lambda-1) and x' = a1/b1,
    x'' = a2/b1^3, the residual times D = 2 b1^3 P T^2 is

        N = 2 a2 P T^2 - b1 a1^2 T^2 P_x + 2 b1^2 a1 T ((2 lambda - 1) P + T x(x-1))
            - 2 b1^3 (alpha P^2 + beta lambda (x-1)^2 (x-lambda)^2
                      + gamma (lambda-1) x^2 (x-lambda)^2 + delta T x^2 (x-1)^2),

    and D is a unit mod F once b1 is and F(0), F(1), F(lambda) are
    nonzero.  N is affine in the four parameters, so the parameter-free
    part and the four coefficients are computed once, which makes grid
    scans over parameter tuples cheap.
    """
    if cand._components is not None:
        return cand._components
    F = cand.modulus
    X = F.ring
    x = X.gen()
    lam = SYMBOLIC_LAMBDA_RING.gen()
    for name, root in (("0", 0), ("1", 1), ("lambda", lam)):
        if F(SYMBOLIC_LAMBDA_RING.coerce(root)).is_zero():
            if F.degree == 1:
                raise SingularSolution(f"x is identically {name}; Painleve VI singular locus")
            raise ZeroDivisorFound(x - X.coerce(root))
    a1, b1 = cand.xprime
    a2, b1_cubed = cand.xsecond
    lam_x = X.coerce(lam)
    x0, x1, xl = cand.x, cand.x - 1, cand.x - lam_x
    P = x * (x - 1) * (x - lam_x)
    P, Px = cand.ring.element(P), cand.ring.element(P.derivative())  # P_x of P itself, not of P mod F
    T = lam * (lam - 1)
    comps = (
        a2 * P * (2 * T * T)
        - b1 * a1 * a1 * Px * (T * T)
        + b1 * b1 * a1 * (P * (2 * lam - 1) + x0 * x1 * T) * (2 * T),
        b1_cubed * P * P * 2,
        b1_cubed * x1 * x1 * xl * xl * (2 * lam),
        b1_cubed * x0 * x0 * xl * xl * (2 * lam - 2),
        b1_cubed * x0 * x0 * x1 * x1 * (2 * T),
    )
    cand._components = comps
    return comps


def pvi_residual(cand: AlgebraicSolutionCandidate, params: PVIParams) -> QuotientElement:
    """The Painleve VI residual of the candidate, cleared of its
    denominator, exactly in the quotient.

    With t = lambda and y = x the equation is

        y'' = 1/2 (1/y + 1/(y-1) + 1/(y-t)) (y')^2
              - (1/t + 1/(t-1) + 1/(y-t)) y'
              + y(y-1)(y-t)/(t^2 (t-1)^2)
                * (alpha + beta t/y^2 + gamma (t-1)/(y-1)^2
                   + delta t(t-1)/(y-t)^2)

    and the returned element is D times the left side minus the right side,
    for the unit D of `_residual_components`; the candidate solves
    PVI(params) iff the result is zero.
    """
    base, ca, cb, cg, cd = _residual_components(cand)
    return base - (params.alpha * ca + params.beta * cb + params.gamma * cg + params.delta * cd)


def parameter_grid_scan(cand: AlgebraicSolutionCandidate, values) -> list[PVIParams]:
    """All tuples from the given value grid whose residual vanishes."""
    base, ca, cb, cg, cd = _residual_components(cand)
    hits = []
    for a in values:
        ta = base - Fraction(a) * ca
        for b in values:
            tb = ta - Fraction(b) * cb
            for g in values:
                tg = tb - Fraction(g) * cg
                for d in values:
                    if (tg - Fraction(d) * cd).is_zero():
                        hits.append(PVIParams(Fraction(a), Fraction(b), Fraction(g), Fraction(d)))
    return hits
