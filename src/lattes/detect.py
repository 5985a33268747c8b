"""Certified torsion detection for rational points on the moduli line.

Given lambda, z in Q, decide whether a lift of z to the Legendre curve
C_lambda is torsion.  Local orders at several good primes pin down the only
possible order m; the verdict "torsion of order m" is then witnessed by the
exact rational vanishing of the x-only division polynomial at (z, lambda).
Refutations are honest about their search bound: a NonTorsion certificate
rules out torsion of order up to B only.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .fields import FiniteField, is_prime
from .legendre import INF, LegendreCurve, psihat_eval

DEFAULT_BOUND = 64
GOOD_PRIME_COUNT = 5
_PRIME_SEARCH_LIMIT = 10_000


@dataclass(frozen=True)
class TorsionQuery:
    lam: Fraction
    z: object  # Fraction or INF
    bound: int = DEFAULT_BOUND

    def __post_init__(self):
        lam = self.lam
        if lam * (lam - 1) == 0:
            raise ValueError("lambda must avoid 0 and 1")
        if self.bound < 1:
            raise ValueError(f"search bound must be >= 1, got {self.bound}")


@dataclass
class TorsionCertificate:
    verdict: str  # "torsion" | "non-torsion" | "inconclusive"
    order: int | None = None
    witness: str | None = None
    primes: list = dataclass_field(default_factory=list)
    local_orders: list = dataclass_field(default_factory=list)
    bound: int = DEFAULT_BOUND

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "order": self.order,
            "witness": self.witness,
            "primes": self.primes,
            "local_orders": self.local_orders,
            "bound": self.bound,
        }
        return out


def is_good_prime(lam: Fraction, z, p: int) -> bool:
    """p is odd, lambda reduces to F_p - {0, 1}, and z reduces to A^1."""
    if p == 2 or not is_prime(p):
        return False
    if lam.denominator % p == 0 or lam.numerator % p == 0 or (lam - 1).numerator % p == 0:
        return False
    if z is not INF and z.denominator % p == 0:
        return False
    return True


def good_primes(lam: Fraction, z) -> list[int]:
    """The smallest GOOD_PRIME_COUNT good odd primes, deterministically."""
    out = []
    p = 3
    while len(out) < GOOD_PRIME_COUNT and p < _PRIME_SEARCH_LIMIT:
        if is_good_prime(lam, z, p):
            out.append(p)
        p += 2
    return out


def local_order(lam: Fraction, z, p: int) -> int:
    """Order of (a lift of) the reduction of z in C_lambda over F_p or F_{p^2}."""
    if not is_good_prime(lam, z, p):
        raise ValueError(f"{p} is a bad prime for (lambda={lam}, z={z})")
    return LegendreCurve(FiniteField(p), lam).x_order(z)


def _prime_to(p: int, m: int) -> int:
    while m % p == 0:
        m //= p
    return m


def detect(query: TorsionQuery) -> TorsionCertificate:
    """Three-way torsion verdict with a re-checkable certificate.

    Branch points and infinity are torsion outright.  Otherwise the local
    orders m_i at the first good primes p_i constrain any torsion order m
    <= bound to have the same prime-to-p_i part as m_i for every i;
    surviving candidates are confirmed or killed by the exact vanishing of
    psihat_m(z; lambda) over Q.
    """
    lam, z, bound = query.lam, query.z, query.bound
    if z is INF:
        return TorsionCertificate("torsion", order=1, witness="z is the point at infinity", bound=bound)
    z = Fraction(z)
    if z in (Fraction(0), Fraction(1), lam):
        return TorsionCertificate("torsion", order=2, witness="z is a branch point (2-torsion lift)", bound=bound)

    primes = good_primes(lam, z)
    if len(primes) < 2:
        return TorsionCertificate("inconclusive", primes=primes, bound=bound)
    orders = [local_order(lam, z, p) for p in primes]

    candidates = []
    for m in range(3, bound + 1):
        if all(_prime_to(p, m) == _prime_to(p, mi) for p, mi in zip(primes, orders)):
            candidates.append(m)

    for m in candidates:
        if psihat_eval(m, lam, z) == 0:
            return TorsionCertificate(
                "torsion",
                order=_exact_order(lam, z, m),
                witness=f"psihat_{m}(z; lambda) = 0",
                primes=primes,
                local_orders=orders,
                bound=bound,
            )
    return TorsionCertificate("non-torsion", primes=primes, local_orders=orders, bound=bound)


def _exact_order(lam: Fraction, z: Fraction, m: int) -> int:
    """Shrink a vanishing index m to the exact order of the lift.

    psihat_d vanishes at z exactly when the lift's order o >= 3 divides d,
    so the exact order is the least divisor d >= 3 of m with
    psihat_d(z; lambda) = 0 (orders 1 and 2 are handled upstream).
    """
    for d in sorted(_divisors(m)):
        if d >= 3 and psihat_eval(d, lam, z) == 0:
            return d
    return m


def _divisors(m: int) -> list[int]:
    out = []
    for d in range(1, m + 1):
        if m % d == 0:
            out.append(d)
    return out
