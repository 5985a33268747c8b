import random
from fractions import Fraction

import pytest

from lattes.fields import QQ, FiniteField
from lattes.poly import (
    Poly,
    PolyRing,
    QuotientRing,
    RationalFunction,
    ZeroDivisorFound,
    discriminant,
    integer_normalize,
    map_coefficients,
    poly_gcd,
    resultant,
    squarefree_part,
    swap_variables,
)

QX = PolyRing(QQ, "x")
x = QX.gen()


def P(*coeffs):
    """Polynomial from ascending rational coefficients."""
    return QX.from_coeffs([Fraction(c) for c in coeffs])


def test_construction_and_degree():
    f = P(1, 2, 3)  # 3x^2 + 2x + 1
    assert f.degree == 2
    assert f.lc == 3
    assert f.coeff(0) == 1 and f.coeff(5) == 0
    assert QX.coerce(0).is_zero()
    assert QX.coerce(0).degree == -1


def test_arithmetic():
    f, g = P(1, 1), P(-1, 1)  # x+1, x-1
    assert f * g == P(-1, 0, 1)
    assert f + g == P(0, 2)
    assert f - f == QX.coerce(0)
    assert f**3 == P(1, 3, 3, 1)
    assert (2 * f) == P(2, 2)
    assert f(Fraction(3)) == 4
    assert (f * g)(Fraction(2)) == 3


def test_sparse_evaluation():
    # exercise the gap-powering path in evaluate()
    f = x**100 + x**7 + 1
    assert f(Fraction(1)) == 3
    assert f(Fraction(2)) == 2**100 + 2**7 + 1
    F = FiniteField(101)
    fmod = map_coefficients(f, F)
    for a in range(0, 101, 17):
        assert fmod(F.coerce(a)) == F.coerce(pow(a, 100, 101) + pow(a, 7, 101) + 1)


def test_divrem():
    f = P(2, 0, 6, 0, 1)  # x^4 + 6x^2 + 2
    g = P(1, 0, 1)  # x^2 + 1
    q, r = f.divrem(g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert f % g == r and f // g == q
    with pytest.raises(ZeroDivisionError):
        f.divrem(QX.coerce(0))
    assert (f * g).exact_div(g) == f
    with pytest.raises(ArithmeticError):
        P(1, 1).exact_div(P(0, 1))


def test_gcd_rationals_and_finite():
    f = P(-1, 0, 1) * P(1, 1, 1)
    g = P(-1, 0, 1) * P(2, 1)
    assert poly_gcd(f, g) == P(-1, 0, 1)
    F5 = FiniteField(5)
    R = PolyRing(F5, "x")
    a = R.from_coeffs([F5.coerce(c) for c in [1, 1]])
    b = R.from_coeffs([F5.coerce(c) for c in [4, 0, 1]])  # x^2 - 1 = (x-1)(x+1)
    assert poly_gcd(a, b) == a.monic()
    assert poly_gcd(a, R.coerce(0)) == a.monic()


def test_gcd_integer_like_content():
    # subresultant path: gcd over Q of integer polynomials stays monic
    f = P(6, 0, 6)  # 6(x^2+1)
    g = P(3, 3)  # 3(x+1)
    h = poly_gcd(f * g, g * P(1, 0, 0, 1))
    assert h == P(1, 1)


def test_resultant_oracles():
    # Res(x^2-1, x^2-4) = product of (a_i - b_j) over roots = (1-2)(1+2)(-1-2)(-1+2) = 9
    assert resultant(P(-1, 0, 1), P(-4, 0, 1)) == 9
    # Res(f, g) = lc(f)^deg g * prod g(roots of f): f = x-3, g = x^2+1 -> 10
    assert resultant(P(-3, 1), P(1, 0, 1)) == 10
    assert resultant(P(1, 1), P(2, 1)) == 1
    # multiplicativity
    f, g, h = P(1, 2, 1), P(-2, 1), P(1, 0, 3)
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)
    # shared root => zero
    assert resultant(P(-1, 1) * P(1, 1), P(-1, 1) * P(3, 1)) == 0


def _to_sympy(F, x, l):
    """A polynomial in x over Q[l] as a sympy expression."""
    import sympy

    return sum(sympy.Rational(c.numerator, c.denominator) * x**i * l**j for i, cf in enumerate(F.coeffs) for j, c in enumerate(cf.coeffs))


def test_bivariate_resultant_matches_sympy():
    # the subresultant resultant over Q[l] against sympy on seeded random pairs
    sympy = pytest.importorskip("sympy")
    x, l = sympy.symbols("x l")
    L = PolyRing(QQ, "l")
    RX = PolyRing(L, "x")
    rng = random.Random(11)

    def rand_poly(dx):
        rows = [L.from_coeffs([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]) for _ in range(dx)]
        return RX.from_coeffs(rows + [L.from_coeffs([rng.choice([-3, -1, 1, 2]), rng.randint(-2, 2)])])

    pairs = [(rand_poly(rng.randint(1, 4)), rand_poly(rng.randint(1, 4))) for _ in range(12)]
    f, g, h = rand_poly(2), rand_poly(1), rand_poly(2)
    pairs.append((f * g, g * h))  # a common factor: resultant zero
    # remainder degrees 5, 3, 2, 0: the last step skips a degree, so the
    # final scale factor h = l^3 enters the resultant
    b = RX.from_coeffs([1, L.gen()]) * RX.from_coeffs([1, 0, 1]) + 5
    pairs.append((RX.from_coeffs([0, 0, 1]) * b + RX.from_coeffs([1, 0, 1]), b))
    for a, b in pairs:
        # sympy 1.14 returns Res(b, a) when deg a < deg b (Res(x - 2, x^3 + 1)
        # comes out -9, the Sylvester determinant is 9): pass the larger first
        sign = -1 if a.degree < b.degree and a.degree * b.degree % 2 else 1
        big, small = (a, b) if a.degree >= b.degree else (b, a)
        theirs = sign * sympy.resultant(_to_sympy(big, x, l), _to_sympy(small, x, l), x)
        assert sympy.expand(_to_sympy(RX.coerce(resultant(a, b)), x, l) - theirs) == 0
    assert sympy.Matrix([[1, -2, 0, 0], [0, 1, -2, 0], [0, 0, 1, -2], [1, 0, 0, 1]]).det() == 9
    assert resultant(RX.from_coeffs([-2, 1]), RX.from_coeffs([1, 0, 0, 1])) == 9
    assert resultant(f * g, g * h) == 0


def test_discriminant_of_torsion_loci_matches_sympy():
    # the repository's disc is Res(f, f')/lc, sympy's carries (-1)^(n(n-1)/2) more
    sympy = pytest.importorskip("sympy")
    from lattes.pvi import torsion_locus

    x, l = sympy.symbols("x l")
    for m in (3, 4, 5):
        psi = torsion_locus(m).psi
        n = psi.degree
        ours = _to_sympy(psi.ring.coerce(discriminant(psi)), x, l)
        assert sympy.expand(ours - (-1) ** (n * (n - 1) // 2) * sympy.discriminant(_to_sympy(psi, x, l), x)) == 0


def test_resultant_finite_field():
    F7 = FiniteField(7)
    R = PolyRing(F7, "x")
    f = R.from_coeffs([F7.coerce(c) for c in [6, 0, 1]])  # x^2 - 1
    g = R.from_coeffs([F7.coerce(c) for c in [3, 0, 1]])  # x^2 + 3
    assert resultant(f, g) == F7.coerce((1 + 3) * (1 + 3))
    assert resultant(f, R.from_coeffs([F7.coerce(6), F7.one])).is_zero()


def test_discriminant():
    # disc(x^2 + bx + c) ~ b^2 - 4c up to our sign convention (|disc| fixed)
    d = discriminant(P(-2, 1, 1))  # x^2 + x - 2, disc 9
    assert abs(d) == 9
    assert discriminant(P(-1, 0, 1) * P(-1, 1)) == 0  # repeated root
    # disc(x^3 + px + q) = -4p^3 - 27q^2 up to sign: p=-1, q=0 -> 4
    assert abs(discriminant(P(0, -1, 0, 1))) == 4


def test_squarefree_part():
    f = P(-1, 1) ** 3 * P(1, 1) ** 2 * P(1, 0, 1)
    s = squarefree_part(f)
    expect = (P(-1, 1) * P(1, 1) * P(1, 0, 1)).monic()
    assert s.monic() == expect
    # characteristic p: p-th powers are handled
    F3 = FiniteField(3)
    R = PolyRing(F3, "x")
    t = R.gen()
    g = (t + R.coerce(1)) ** 3 * (t + R.coerce(2))
    assert squarefree_part(g).monic() == ((t + R.coerce(1)) * (t + R.coerce(2))).monic()


def test_content_primitive_normalize():
    f = P(Fraction(2, 3), Fraction(4, 3))
    prim = f.primitive()
    assert prim == P(1, 2)
    g = integer_normalize(P(Fraction(1, 2), 0, Fraction(3, 2)))
    assert g == P(1, 0, 3)
    assert integer_normalize(P(-2, 0, -4)) == P(1, 0, 2) or integer_normalize(P(-2, 0, -4)) == P(-1, 0, -2)


def test_rational_function():
    num, den = P(-1, 0, 1), P(-1, 1)  # (x^2-1)/(x-1) reduces to x+1
    r = RationalFunction(num, den)
    assert r == RationalFunction(P(1, 1), QX.coerce(1))
    assert r.is_polynomial()
    s = RationalFunction(P(1), P(0, 1))  # 1/x
    assert (s * s).evaluate(Fraction(2)) == Fraction(1, 4)
    assert (s + s) == RationalFunction(P(2), P(0, 1))
    assert s.inverse() == RationalFunction(P(0, 1), P(1))
    assert (s - s).is_zero()
    assert s**3 == RationalFunction(P(1), P(0, 0, 0, 1))
    d = RationalFunction(P(1), P(0, 1)).derivative()  # d/dx 1/x = -1/x^2
    assert d == RationalFunction(P(-1), P(0, 0, 1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(P(1), QX.coerce(0))


def test_eval_proj():
    from lattes.legendre import INF

    F5 = FiniteField(5)
    R = PolyRing(F5, "x")
    one = F5.one
    # phi(z) = (z^2 + 1) / z on P^1(F_5)
    phi = RationalFunction(
        R.from_coeffs([one, F5.zero, one]), R.from_coeffs([F5.zero, one])
    )
    assert phi.eval_proj(INF) is INF  # deg num > deg den
    assert phi.eval_proj(F5.zero) is INF  # pole
    assert phi.eval_proj(F5.coerce(2)) == F5.coerce(0)
    assert phi.eval_proj(F5.coerce(1)) == F5.coerce(2)


def _plain_horner(coeffs, value, zero):
    acc = zero
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


def test_evaluate_matches_plain_horner():
    rng = random.Random(9)
    Fp, F = FiniteField(7), FiniteField(7, 2)
    R, Rp = PolyRing(F, "x"), PolyRing(Fp, "x")
    values = [F.element([rng.randrange(7), rng.randrange(7)]) for _ in range(8)] + [F.zero, F.one]
    for _ in range(25):
        n = rng.randrange(0, 60)
        # sparse runs exercise the gap powers; n = 0 is the zero polynomial
        dense = [F.element([rng.randrange(7), rng.randrange(7)]) if rng.random() < 0.3 else F.zero for _ in range(n)]
        prime = [Fp.coerce(rng.randrange(7)) if rng.random() < 0.3 else Fp.zero for _ in range(n)]
        for v in values:
            # coefficients in the value's field
            assert R.from_coeffs(dense).evaluate(v) == _plain_horner(dense, v, F.zero)
            # F_p coefficients at F_{p^2} values, as supersingular_lambdas evaluates H_p
            want = _plain_horner([F.coerce(c) for c in prime], v, F.zero)
            assert Rp.from_coeffs(prime).evaluate(v, ring=F) == want
            assert Rp.from_coeffs(prime).evaluate(v) == want
    # Q coefficients at a Fraction, as certify_separable reduces Psi_m at lambda_0
    for _ in range(25):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(rng.randrange(0, 12))]
        v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        assert QX.from_coeffs(coeffs).evaluate(v) == _plain_horner(coeffs, v, Fraction(0))


def test_eval_proj_matches_plain_horner():
    from lattes.legendre import INF

    F = FiniteField(5, 2)
    R = PolyRing(F, "x")
    g = F.gen()
    maps = {
        ">": ([F.one, g, F.zero, g + 1], [g, F.one]),
        "=": ([g, F.zero, 3 * g], [F.one, F.zero, F.one]),
        "<": ([g + 2], [F.zero, F.one, F.one]),
        "den 1": ([F.zero] * 25 + [F.one], [F.one]),  # the supersingular x^{p^2}/1
    }
    at_inf = {">": INF, "=": 3 * g, "<": F.zero, "den 1": INF}
    poles = 0
    for kind, (num, den) in maps.items():
        phi = RationalFunction(R.from_coeffs(num), R.from_coeffs(den))
        assert phi.eval_proj(INF) == at_inf[kind]
        for z in F:
            dv = _plain_horner(den, z, F.zero)
            got = phi.eval_proj(z)
            if dv.is_zero():
                assert got is INF
                poles += 1
            else:
                assert got == _plain_horner(num, z, F.zero) / dv
    assert poles == 5  # x = -g for ">", x = +-2 for "=" (x^2 + 1 splits over F_5), x = 0, -1 for "<"


def test_quotient_ring():
    Q = QuotientRing(P(1, 0, 1))  # Q[x]/(x^2+1)
    i = Q.element(P(0, 1))
    assert i * i == Q.coerce(-1)
    assert (i + 1) * (i - 1) == Q.coerce(-2)
    assert i.inverse() * i == Q.coerce(1)
    assert i**4 == Q.coerce(1)
    assert (Q.coerce(1) / i) == -i


def test_quotient_zero_divisor():
    Q = QuotientRing(P(-1, 0, 1))  # x^2 - 1, not a field
    a = Q.element(P(-1, 1))  # x - 1 is a zero divisor
    with pytest.raises(ZeroDivisorFound) as ei:
        a.inverse()
    assert ei.value.factor == P(-1, 1).monic()


def test_map_coefficients():
    F5 = FiniteField(5)
    f = P(Fraction(1, 2), 3)
    g = map_coefficients(f, F5)
    assert g.coeffs[0] == F5.coerce(3)  # 1/2 = 3 mod 5
    assert g.coeffs[1] == F5.coerce(3)


def test_swap_variables():
    L = PolyRing(QQ, "l")
    RX = PolyRing(PolyRing(QQ, "l"), "x")
    lam = L.gen()
    # F(x, l) = x^2 * l + x + 1
    F = RX.from_coeffs([L.coerce(1), L.coerce(1), lam])
    G = swap_variables(F)
    # G(l, x) should have degree 1 in the outer variable
    assert G.degree == 1
    # double swap is identity
    assert swap_variables(G) == F


def test_derivative_and_monic():
    f = P(1, 2, 3, 4)
    assert f.derivative() == P(2, 6, 12)
    assert f.monic().lc == 1
    assert f.monic() * QX.coerce(4) == f
    F2 = FiniteField(2)
    R = PolyRing(F2, "x")
    g = R.from_coeffs([F2.one, F2.zero, F2.one])  # x^2 + 1
    assert g.derivative().is_zero()


def test_to_json():
    f = P(1, Fraction(1, 2))
    data = f.to_json()
    assert data == ["1", "1/2"]


def test_random_ring_axioms():
    rng = random.Random(7)
    F = FiniteField(11)
    R = PolyRing(F, "x")

    def rand_poly():
        return R.from_coeffs([F.coerce(rng.randrange(11)) for _ in range(rng.randrange(1, 6))])

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not b.is_zero():
            q, r = a.divrem(b)
            assert q * b + r == a


def _schoolbook_mul(a, b):
    zero = a.ring.base.zero
    out = [zero] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ai * bj
    return Poly(a.ring, out)


def _schoolbook_divrem(a, b):
    rem, zero = list(a.coeffs), a.ring.base.zero
    dq = len(rem) - len(b.coeffs)
    quot = [zero] * (dq + 1)
    inv = b.lc.inverse()
    for shift in range(dq, -1, -1):
        c = rem[shift + b.degree] * inv
        quot[shift] = c
        for i, bc in enumerate(b.coeffs):
            rem[shift + i] = rem[shift + i] - c * bc
    return Poly(a.ring, quot), Poly(a.ring, rem[: b.degree])


@pytest.mark.parametrize("p,k", [(3, 1), (13, 1), (79, 1), (3, 2), (13, 2), (3, 3), (5, 4)])
def test_finite_field_products_match_schoolbook(p, k):
    """The packed-integer product and the F_p integer division agree with
    coefficient-by-coefficient arithmetic, long polynomials included."""
    rng = random.Random(p * 10 + k)
    F = FiniteField(p, k)
    R = PolyRing(F, "x")

    def rand_poly(n):
        return R.from_coeffs([F.element([rng.randrange(p) for _ in range(k)]) for _ in range(n)])

    for _ in range(40):
        a, b = rand_poly(rng.randrange(1, 60)), rand_poly(rng.randrange(1, 60))
        prod = a * b
        assert prod.coeffs == _schoolbook_mul(a, b).coeffs
        full = R.from_coeffs([F.element([p - 1] * k)] * 40)
        assert (full * full).coeffs == _schoolbook_mul(full, full).coeffs
        if b.degree >= 1 and a.degree >= b.degree:
            q, r = a.divrem(b)
            qs, rs = _schoolbook_divrem(a, b)
            assert q.coeffs == qs.coeffs and r.coeffs == rs.coeffs


def test_rational_products_match_schoolbook():
    """Integer-valued rational coefficients take an integer path; others do not."""
    rng = random.Random(3)
    for _ in range(60):
        den = rng.choice((1, 1, 3))
        a = QX.from_coeffs([Fraction(rng.randrange(-99, 99)) for _ in range(rng.randrange(1, 12))])
        b = QX.from_coeffs([Fraction(rng.randrange(-99, 99), den) for _ in range(rng.randrange(1, 12))])
        n = max(len(a.coeffs), len(b.coeffs))
        total = Poly(QX, [a.coeff(i) + b.coeff(i) for i in range(n)])
        for got, want in ((a * b, _schoolbook_mul(a, b)), (a + b, total), (a - a, QX.zero)):
            assert got.coeffs == want.coeffs
            assert all(type(c) is Fraction for c in got.coeffs)
