"""JSON-friendly encoding of the exact values used across the package.

Rationals become "num/den" strings (plain "n" when integral), finite-field
elements become their coefficient lists, and the point at infinity of P^1
is the string "inf".  A finite-field value is read back with
FiniteField.element, a rational with Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def value_to_json(v):
    from .legendre import INF

    if v is INF:
        return "inf"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if hasattr(v, "coeffs"):  # FFElement
        return list(v.coeffs)
    if hasattr(v, "to_json"):
        return v.to_json()
    raise TypeError(f"cannot serialize {type(v).__name__}")

