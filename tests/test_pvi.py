from fractions import Fraction

import pytest

from lattes.fields import FiniteField, is_prime
from lattes.legendre import (
    SYMBOLIC_LAMBDA_RING,
    SYMBOLIC_X_RING,
    LegendreCurve,
    division_polynomial,
)
from lattes.poly import Poly, ZeroDivisorFound, integer_normalize, map_coefficients, poly_gcd, squarefree_part
from lattes.pvi import (
    PVIParams,
    SingularSolution,
    certify_separable,
    etale_check,
    implicit_derivatives,
    parameter_grid_scan,
    picard_params,
    pvi_residual,
    torsion_locus,
)

L = SYMBOLIC_LAMBDA_RING
X = SYMBOLIC_X_RING


def test_picard_params():
    p = picard_params()
    assert p.as_tuple() == (0, 0, 0, Fraction(1, 2))


def test_torsion_locus_m2():
    loc = torsion_locus(2)
    x = X.gen()
    lam = X.coerce(L.gen())
    assert loc.psi == x * (x - 1) * (x - lam)


def test_torsion_locus_m3_exact():
    loc = torsion_locus(3)
    l = L.gen()
    expect = X.from_coeffs([-(l * l), L.coerce(0), 6 * l, -4 * (1 + l), L.coerce(3)])
    assert loc.psi == expect  # psi-hat_3 is already squarefree and primitive


def test_torsion_locus_m4_squarefree_primitive():
    loc = torsion_locus(4)
    psi = loc.psi
    # content 1 (integer-primitive): no common integer factor > 1
    from fractions import Fraction as Fr

    nums = [c for cc in psi.coeffs for c in cc.coeffs]
    assert all(c.denominator == 1 for c in nums)
    from math import gcd

    g = 0
    for c in nums:
        g = gcd(g, abs(c.numerator))
    assert g == 1
    # squarefree in x over Frac(Q(lambda)): gcd(psi, psi') constant
    assert poly_gcd(psi, psi.derivative()).degree == 0
    # psi-hat_4 has no x(x-1)(x-lam) factor: the locus keeps all six roots
    raw = division_polynomial(4)
    assert raw.degree == 6 and psi.degree == 6


def test_torsion_locus_equals_squarefree_part():
    # the gcd-free locus against the generic subresultant squarefree part
    for m in range(3, 7):
        assert torsion_locus(m).psi == integer_normalize(squarefree_part(division_polynomial(m)))


def test_torsion_locus_degree_and_certificate():
    # deg_x psi-hat_m is (m^2 - 1)/2 for odd m and (m^2 - 4)/2 for even m
    for m in range(3, 13):
        loc = torsion_locus(m)
        assert loc.psi.degree == ((m * m - 1) // 2 if m % 2 else (m * m - 4) // 2)
        p, lam0 = loc.separable_at
        lc = loc.psi.lc.lc
        assert lam0 == 2 and is_prime(p) and p > 2 and (2 * m * lc) % p != 0
        assert all((2 * m * lc) % q == 0 for q in range(3, p, 2) if is_prime(q))


def test_separability_check_rejects_non_squarefree_and_non_integral_lead():
    psi3 = torsion_locus(3).psi
    with pytest.raises(ArithmeticError, match="repeated root"):
        certify_separable(psi3 * psi3, 3)
    with pytest.raises(ArithmeticError, match="not a nonzero integer"):
        certify_separable(psi3 * X.coerce(L.gen()), 3)


def test_torsion_locus_bounds():
    with pytest.raises(ValueError):
        torsion_locus(1)
    with pytest.raises(ValueError):
        torsion_locus(13)


def test_etale_m3():
    out = etale_check(3)
    assert out["etale"] is True
    # disc_x(psi_3) = c * lambda^4 (lambda-1)^4
    assert out["lambda_multiplicity"] == 4
    assert out["lambda_minus_1_multiplicity"] == 4


def test_etale_m4():
    out = etale_check(4)
    assert out["etale"] is True
    with pytest.raises(ValueError):
        etale_check(2)


def test_implicit_derivatives_linear():
    # F = x - lambda: x(lambda) = lambda, x' = 1, x'' = 0
    x = X.gen()
    lam = X.coerce(L.gen())
    cand = implicit_derivatives(x - lam)
    num, den = cand.xprime
    assert num == den
    num, den = cand.xsecond
    assert num.is_zero() and not den.is_zero()


def test_implicit_derivatives_quadratic():
    # F = x^2 - lambda: x' = 1/(2x), x'' = -1/(4 x^3), as cross-multiplied identities
    x = X.gen()
    lam = X.coerce(L.gen())
    cand = implicit_derivatives(x * x - lam)
    num, den = cand.xprime
    assert cand.x * 2 * num == den
    num, den = cand.xsecond
    cube = cand.x * cand.x * cand.x
    assert (cube * 4 * num + den).is_zero()


def test_implicit_derivatives_rejects_non_squarefree():
    x = X.gen()
    lam = X.coerce(L.gen())
    F = (x - lam) * (x - lam)
    with pytest.raises(ZeroDivisorFound):
        implicit_derivatives(F)


def test_singular_candidate_rejected():
    # x identically 0 lies in the PVI singular locus
    cand = implicit_derivatives(X.gen())
    with pytest.raises(SingularSolution):
        pvi_residual(cand, picard_params())


def test_residual_needs_a_unit_denominator():
    x = X.gen()
    lam = X.coerce(L.gen())
    # x = 0, 1 or lambda on one branch: the factor comes back, not a verdict
    for root in (X.zero, X.one, lam):
        cand = implicit_derivatives((x - root) * (x - lam - 2))
        with pytest.raises(ZeroDivisorFound) as ei:
            pvi_residual(cand, picard_params())
        assert ei.value.factor == x - root
    # remainders mod F stay polynomial only for a constant x-leading coefficient
    with pytest.raises(ArithmeticError, match="not a nonzero constant"):
        implicit_derivatives(lam * x - 1)


def test_residual_vanishes_for_torsion_loci():
    for m in [3, 4]:
        cand = implicit_derivatives(torsion_locus(m).psi)
        assert pvi_residual(cand, picard_params()).is_zero()


def test_residual_control_nonzero():
    cand = implicit_derivatives(torsion_locus(3).psi)
    zero_params = PVIParams(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    assert not pvi_residual(cand, zero_params).is_zero()


def test_residual_nonzero_for_non_solution():
    # x = lambda^2 is not a PVI(Picard) solution
    x = X.gen()
    l = L.gen()
    cand = implicit_derivatives(x - X.coerce(l * l))
    assert not pvi_residual(cand, picard_params()).is_zero()


def test_residual_matches_sympy():
    # sympy builds x'' by implicit differentiation; the residual is zero when
    # its numerator is 0 mod F over QQ(lambda), and times D = 2 F_x^3 P T^2
    # it is a polynomial whose remainder mod F must equal ours exactly
    sympy = pytest.importorskip("sympy")
    xs, ls = sympy.symbols("x l")

    def to_sympy(F):
        return sum(sympy.Rational(c.numerator, c.denominator) * xs**i * ls**j for i, cf in enumerate(F.coeffs) for j, c in enumerate(cf.coeffs))

    def sympy_residual(Fs, params):
        a, b, g, d = (sympy.Rational(v.numerator, v.denominator) for v in params.as_tuple())
        xp = -sympy.diff(Fs, ls) / sympy.diff(Fs, xs)
        xpp = sympy.diff(xp, ls) + sympy.diff(xp, xs) * xp
        y, t = xs, ls
        rhs = (
            sympy.Rational(1, 2) * (1 / y + 1 / (y - 1) + 1 / (y - t)) * xp**2
            - (1 / t + 1 / (t - 1) + 1 / (y - t)) * xp
            + y * (y - 1) * (y - t) / (t**2 * (t - 1) ** 2) * (a + b * t / y**2 + g * (t - 1) / (y - 1) ** 2 + d * t * (t - 1) / (y - t) ** 2)
        )
        return xpp - rhs

    def rem(e, Fs):
        return sympy.rem(sympy.expand(e), Fs, xs, domain=sympy.QQ.frac_field(ls))

    x = X.gen()
    l = L.gen()
    control = PVIParams(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    generic = PVIParams(Fraction(1), Fraction(-2), Fraction(3), Fraction(1, 5))
    for F in (torsion_locus(3).psi, x - X.coerce(l * l)):
        Fs = to_sympy(F)
        cand = implicit_derivatives(F)
        for params in (picard_params(), control):
            num, _ = sympy.fraction(sympy.together(sympy_residual(Fs, params)))
            assert pvi_residual(cand, params).is_zero() == (rem(num, Fs) == 0)
        D = 2 * sympy.diff(Fs, xs) ** 3 * xs * (xs - 1) * (xs - ls) * (ls * (ls - 1)) ** 2
        N = sympy.cancel(D * sympy_residual(Fs, generic))
        assert sympy.expand(to_sympy(pvi_residual(cand, generic).poly) - rem(N, Fs)) == 0


def test_grid_scan_uniqueness():
    cand = implicit_derivatives(torsion_locus(3).psi)
    values = [0, 1, Fraction(1, 2), -Fraction(1, 2)]
    hits = parameter_grid_scan(cand, values)
    assert hits == [picard_params()]


def test_locus_roots_are_torsion_x_coordinates():
    # reduce psi_m mod p and check each root is the x of an m'-torsion point, m' | m
    F11 = FiniteField(11)
    for m in [3, 4]:
        psi = torsion_locus(m).psi
        for a in range(2, 11):
            lam = F11.coerce(a)
            curve = LegendreCurve(F11, lam)
            # substitute lambda, reduce coefficients mod 11
            coeffs = [map_coefficients(c, F11)(lam) for c in psi.coeffs]
            from lattes.poly import PolyRing

            fx = PolyRing(F11, "x").from_coeffs(coeffs)
            for xv in F11:
                if fx(xv).is_zero():
                    try:
                        P = curve.lift_x(xv, extend=True)[0]
                    except Exception:
                        continue
                    order = P.curve.torsion_order(P)
                    assert m % order == 0
