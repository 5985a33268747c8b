import random
from fractions import Fraction

import pytest

from lattes.fields import (
    QQ,
    FieldError,
    FiniteField,
    QuadExtField,
    embed,
    factorize,
    is_prime,
    least_irreducible,
    power,
    rational_sqrt,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 3 * 3 * 25) == {2: 1, 3: 2, 5: 2}
    with pytest.raises(ValueError):
        factorize(0)


def test_rationals():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(FieldError):
        QQ.coerce("x")
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_least_irreducible_known():
    # x^2 + 1 is the least irreducible over F_3 and F_7 (p = 3 mod 4)
    assert least_irreducible(3, 2) == (1, 0, 1)
    assert least_irreducible(7, 2) == (1, 0, 1)
    # over F_5, x^2 + 1 = (x-2)(x-3); the least is x^2 + 2
    assert least_irreducible(5, 2) == (2, 0, 1)
    f = least_irreducible(2, 4)
    assert len(f) == 5 and f[-1] == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    F = FiniteField(p, k)
    elements = list(F)
    assert len(elements) == p**k
    zero, one = F.zero, F.one
    for a in elements:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero
        if not a.is_zero():
            assert a * a.inverse() == one
            assert a.inverse() * a == one
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("p", [3, 5])
def test_quadratic_field_with_linear_term(p):
    """F_{p^2} = F_p[t]/(t^2 + t + 2): the default moduli have no t term."""
    F = FiniteField(p, 2, modulus=(2, 1, 1))
    t = F.gen()
    assert t * t == -t - 2
    elements = list(F)
    for a in elements:
        if not a.is_zero():
            assert a * a.inverse() == F.one
        for b in elements:
            assert (a + b) * (a - b) == a * a - b * b


def test_coerce_and_fractions():
    F7 = FiniteField(7)
    assert F7.coerce(Fraction(1, 2)) == F7.coerce(4)
    with pytest.raises(FieldError):
        F7.coerce(Fraction(1, 7))
    F49 = FiniteField(7, 2)
    assert F49.coerce(F7.coerce(3)) == F49.element([3])
    with pytest.raises(FieldError):
        F7.coerce(F49.gen())


def test_coerce_fraction_without_field_inverse():
    # a/b goes to a * b^-1 mod p in the prime field: no log tables are built
    F = FiniteField(13, 2)
    assert F.coerce(Fraction(3)) == F.element([3])
    assert F._exp is None
    F25 = FiniteField(5, 2)
    for a in range(-6, 7):
        for b in range(1, 7):
            if b % 5:
                assert F25.coerce(Fraction(a, b)) == F25.element([a]) / F25.element([b])


def test_pow_matches_repeated_multiplication():
    rng = random.Random(1)
    for p, k in [(3, 2), (13, 2), (5, 3)]:
        F = FiniteField(p, k)
        for _ in range(50):
            a = F.element([rng.randrange(p) for _ in range(k)])
            e = rng.randrange(0, 2 * F.order)
            slow = F.one
            for _ in range(e):
                slow = slow * a
            assert a**e == slow


def test_sqrt_all_elements():
    for p, k in [(3, 1), (5, 1), (7, 2), (13, 1), (2, 3)]:
        F = FiniteField(p, k)
        squares = {a * a for a in F}
        for a in F:
            r = F.sqrt(a)
            if a in squares:
                assert r is not None and r * r == a
                # deterministic tie-break: least coefficient vector
                if not r.is_zero():
                    assert list(r.coeffs) <= list((-r).coeffs)
            else:
                assert r is None
        assert F.sqrt(F.one) == F.one


def test_frobenius():
    F = FiniteField(3, 4)
    a = F.gen() + F.one
    assert a.frobenius(4) == a
    assert a.frobenius(1) == a**3
    assert a.frobenius(1).frobenius(1) == a.frobenius(2)
    for c in [F.gen(), a, a * a + F.one]:
        assert c.frobenius(2) == power(c, 9, F.one)


def _schoolbook(a, b, modulus, p):
    """(a * b) mod (p, modulus) on int lists: a convolution, then long
    division by the monic modulus, as written out by hand."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * modulus[j]) % p
    return tuple(prod[:k]) + (0,) * (k - len(prod))


@pytest.mark.parametrize("p,k", [(5, 3), (3, 4), (2, 6), (3, 6)])
def test_extension_products_match_schoolbook(p, k):
    F = FiniteField(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(200):
        a = [rng.randrange(p) for _ in range(k)]
        b = [rng.randrange(p) for _ in range(k)]
        assert (F.element(a) * F.element(b)).coeffs == _schoolbook(a, b, F.modulus, p)
        long = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(k + 1, 3 * k + 2))]
        assert F.element(long).coeffs == _schoolbook(long, [1], F.modulus, p)


def test_inverse_every_element():
    for p, k in [(5, 2), (3, 4)]:
        F = FiniteField(p, k)
        one = F.one.coeffs
        for a in F:
            if not a.is_zero():
                assert _schoolbook(a.coeffs, a.inverse().coeffs, F.modulus, p) == one
    # above LOG_TABLE_BOUND: the inverse is a square-and-multiply power
    F = FiniteField(3, 11)
    assert F.order > F.LOG_TABLE_BOUND
    rng = random.Random(11)
    for _ in range(40):
        a = F.element([rng.randrange(3) for _ in range(11)])
        if not a.is_zero():
            assert _schoolbook(a.coeffs, a.inverse().coeffs, F.modulus, 3) == F.one.coeffs
    assert F._exp is None
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_log_tables_match_square_and_multiply():
    for p, k in [(7, 2), (3, 4)]:
        F = FiniteField(p, k)
        q = F.order
        for a in F:
            for e in (8, 9, 13, q - 2, q - 1, q, 3 * q + 5):
                assert a**e == power(a, e, F.one)
        assert F._exp is not None


def test_embed():
    F9 = FiniteField(3, 2)
    F81 = FiniteField(3, 4)
    a = F9.gen()
    img = embed(a, F81)
    # same minimal polynomial: x^2 + 1 over F_3
    assert img * img + F81.one == F81.zero
    # prime-field values embed as constants
    assert embed(F9.coerce(2), F81) == F81.coerce(2)
    assert embed(a, F9) == a
    with pytest.raises(FieldError):
        embed(a, FiniteField(5, 2))


def test_embed_multiplicative():
    # the chosen root gives a field homomorphism on powers of the element itself
    F25 = FiniteField(5, 2)
    F625 = FiniteField(5, 4)
    a = F25.gen() + F25.one
    img = embed(a, F625)
    tr, nm = a + a.frobenius(), a * a.frobenius()
    assert img * img - F625.coerce(tr.lift_int()) * img + F625.coerce(nm.lift_int()) == F625.zero


def test_quad_ext():
    F7 = FiniteField(7)
    u = F7.coerce(3)  # 3 is a non-square mod 7
    assert F7.sqrt(u) is None
    E = QuadExtField(F7, u)
    t = E.gen()
    assert t * t == E.coerce(3)
    a = t + E.one
    assert a * a.inverse() == E.one
    assert (a - a).is_zero()
    assert a**48 == E.one  # multiplicative group order 7^2 - 1
    with pytest.raises(FieldError):
        QuadExtField(F7, F7.coerce(2))  # 2 = 3^2 - 7 is a square mod 7


def test_cardinality_bound_and_errors():
    with pytest.raises(FieldError):
        FiniteField(4)
    with pytest.raises(FieldError):
        FiniteField(3, 0)
    with pytest.raises(FieldError):
        FiniteField(2, 50)
    with pytest.raises(FieldError):
        FiniteField(3, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(FieldError):
        FiniteField(5, 2, modulus=(1, 0, 1))  # reducible over F_5
    with pytest.raises(FieldError):
        FiniteField(3).element([1, 0, 0])  # F_3 has no modulus to reduce by
    assert FiniteField(3, 2).element([1, 0, 1]) == FiniteField(3, 2).element([0])  # x^2 = -1


def test_serialization_round_trip():
    F = FiniteField(3, 2)
    data = F.to_json()
    G = FiniteField.from_json(data)
    assert G == F
    a = F.element([2, 1])
    assert F.element(a.to_json()) == a


def test_lift_int():
    F = FiniteField(11, 2)
    assert F.coerce(7).lift_int() == 7
    with pytest.raises(FieldError):
        F.gen().lift_int()
