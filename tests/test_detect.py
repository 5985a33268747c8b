import random
from fractions import Fraction

import pytest

from lattes.detect import (
    TorsionQuery,
    _candidates,
    detect,
    good_primes,
    is_good_prime,
    local_order,
)
from lattes.fields import is_prime
from lattes.legendre import INF, psihat_eval


def test_query_validation():
    with pytest.raises(ValueError):
        TorsionQuery(Fraction(0), Fraction(3))
    with pytest.raises(ValueError):
        TorsionQuery(Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        TorsionQuery(Fraction(2), Fraction(3), bound=0)  # would refute nothing
    q = TorsionQuery(Fraction(2), Fraction(3))
    assert q.bound == 64


def test_good_primes():
    lam, z = Fraction(27, 32), Fraction(9, 8)
    ps = good_primes(lam, z)
    assert ps == [7, 11, 13, 17, 19]  # 2 | den, 3 | num lam, 5 | num(lam-1)
    assert not is_good_prime(lam, z, 2)
    assert not is_good_prime(lam, z, 3)
    assert not is_good_prime(lam, z, 5)
    assert is_good_prime(lam, z, 7)
    # lam = 2, z = 3: both integers, num lam = 2 and num(lam-1) = 1 have no odd
    # prime factors, so the first five odd primes are all good
    assert good_primes(Fraction(2), Fraction(3)) == [3, 5, 7, 11, 13]
    assert is_good_prime(Fraction(2), Fraction(3), 3)


def test_good_prime_test_agrees_with_the_fraction_form():
    # (lambda - 1)'s numerator read as n - d against Fraction arithmetic
    def reference(lam, z, p):
        if p == 2 or not is_prime(p):
            return False
        if lam.denominator % p == 0 or lam.numerator % p == 0 or (lam - 1).numerator % p == 0:
            return False
        return z is INF or z.denominator % p != 0

    zs = [INF, Fraction(0), Fraction(-7, 3), Fraction(9, 8), Fraction(25, 21)]
    for n in range(-30, 31):
        for d in range(1, 16):
            lam = Fraction(n, d)
            if lam in (0, 1):
                continue
            for z in zs:
                for p in range(51):
                    assert is_good_prime(lam, z, p) == reference(lam, z, p), (lam, z, p)


def test_candidates_match_the_filter_over_every_m():
    # the walk over p_0-power multiples against the filter on 3..bound
    def prime_to(p, m):
        while m % p == 0:
            m //= p
        return m

    rng = random.Random(5)
    for _ in range(600):
        primes = rng.choice([[3, 5, 7, 11, 13], [7, 11, 13, 17, 19], [5, 13, 17, 19, 23]])
        # one order m, at some primes with a factor p dropped, and at times
        # one local order off by a factor 2 that only its own prime sees
        m = rng.randint(3, 80)
        orders = [m // p if m % p == 0 and rng.random() < 0.5 else m for p in primes]
        if rng.random() < 0.5:
            orders[rng.randrange(len(primes))] *= 2
        for bound in (1, 3, 12, 64, 200):
            want = [m for m in range(3, bound + 1) if all(prime_to(p, m) == prime_to(p, o) for p, o in zip(primes, orders))]
            assert _candidates(primes, orders, bound) == want, (primes, orders, bound)


def test_local_order_examples():
    lam, z = Fraction(27, 32), Fraction(9, 8)
    for p in [7, 11, 13, 17, 19]:
        assert local_order(lam, z, p) == 3
    with pytest.raises(ValueError):
        local_order(lam, z, 2)
    with pytest.raises(ValueError):
        local_order(lam, z, 5)


def test_detect_torsion_order_3():
    cert = detect(TorsionQuery(Fraction(27, 32), Fraction(9, 8)))
    assert cert.verdict == "torsion"
    assert cert.order == 3
    assert "psihat_3" in cert.witness
    # witness re-check: exact rational evaluation
    assert psihat_eval(3, Fraction(27, 32), Fraction(9, 8)) == 0


def test_detect_branch_point():
    cert = detect(TorsionQuery(Fraction(2), Fraction(0)))
    assert cert.verdict == "torsion" and cert.order == 2
    cert = detect(TorsionQuery(Fraction(2), Fraction(1)))
    assert cert.verdict == "torsion" and cert.order == 2
    cert = detect(TorsionQuery(Fraction(2), Fraction(2)))  # z = lambda
    assert cert.verdict == "torsion" and cert.order == 2


def test_detect_infinity():
    cert = detect(TorsionQuery(Fraction(2), INF))
    assert cert.verdict == "torsion" and cert.order == 1


def test_detect_non_torsion():
    cert = detect(TorsionQuery(Fraction(2), Fraction(3)))
    assert cert.verdict == "non-torsion"
    assert cert.bound == 64
    assert len(cert.primes) == 5
    assert len(cert.local_orders) == 5
    # soundness data: local orders rule out every candidate <= 64
    assert cert.order is None


def test_detect_4_torsion():
    # lambda = x^2 makes (x, ...) a 4-torsion point: [2](x,.) = (0,0)
    x = Fraction(3)
    cert = detect(TorsionQuery(x * x, x))
    assert cert.verdict == "torsion"
    assert cert.order == 4
    assert psihat_eval(4, x * x, x) == 0


def test_detect_certificate_shrinks_to_exact_order():
    # psihat_12 also vanishes at a 4-torsion x; the certificate must say 4
    x = Fraction(5)
    cert = detect(TorsionQuery(x * x, x, bound=64))
    assert cert.order == 4


def test_bound_lowering():
    # with bound < 3 no candidate order is ever tested; the 3-torsion sample
    # escapes detection and the verdict honestly reports only the bound
    cert = detect(TorsionQuery(Fraction(27, 32), Fraction(9, 8), bound=2))
    assert cert.verdict == "non-torsion"
    assert cert.bound == 2


def test_detect_takes_query_object():
    cert = detect(TorsionQuery(Fraction(27, 32), Fraction(9, 8)))
    assert cert.order == 3


def test_certificate_serialization():
    cert = detect(TorsionQuery(Fraction(2), Fraction(3)))
    data = cert.to_json()
    assert data["verdict"] == "non-torsion"
    assert data["primes"] == cert.primes
    assert data["bound"] == 64
