"""Exact arithmetic for the multiplication maps of Legendre elliptic curves
acting on the x-line: finite fields, division polynomials, supersingular
loci, orbit census, torsion certificates over Q, and residual checks of the
Painleve VI equation on torsion loci.
"""

from .fields import QQ, FFElement, FieldError, FiniteField, QuadExtField, factorize, is_prime
from .legendre import (
    INF,
    CurveError,
    CurvePoint,
    LegendreCurve,
    division_polynomial,
    hasse_polynomial,
    is_supersingular,
    mult_x_map,
    psihat_eval,
    supersingular_lambdas,
    verify_composition,
)
from .poly import Poly, PolyRing, RationalFunction, ZeroDivisorFound, discriminant, poly_gcd, resultant

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "FFElement",
    "FieldError",
    "FiniteField",
    "QuadExtField",
    "factorize",
    "is_prime",
    "INF",
    "CurveError",
    "CurvePoint",
    "LegendreCurve",
    "division_polynomial",
    "hasse_polynomial",
    "is_supersingular",
    "mult_x_map",
    "psihat_eval",
    "supersingular_lambdas",
    "verify_composition",
    "Poly",
    "PolyRing",
    "RationalFunction",
    "ZeroDivisorFound",
    "discriminant",
    "poly_gcd",
    "resultant",
    "__version__",
]
