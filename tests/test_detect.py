from fractions import Fraction

import pytest

from lattes.detect import (
    TorsionQuery,
    detect,
    good_primes,
    is_good_prime,
    local_order,
)
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
