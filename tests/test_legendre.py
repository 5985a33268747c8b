import gc
import random
import weakref
from fractions import Fraction

import pytest

from lattes.fields import QQ, FiniteField, QuadExtField
from lattes.legendre import (
    INF,
    SYMBOLIC_LAMBDA_RING,
    SYMBOLIC_X_RING,
    CurveError,
    LegendreCurve,
    division_polynomial,
    extension_order,
    hasse_polynomial,
    is_supersingular,
    mult_x_map,
    psihat_eval,
    supersingular_lambdas,
    verify_composition,
    _composition_holds,
)
from lattes.poly import PolyRing, QuotientRing, RationalFunction


def brute_points(curve):
    """All affine points by direct substitution, plus infinity."""
    pts = [curve.infinity]
    F = curve.base
    for xv in F:
        rhs = curve.f(xv)
        for yv in F:
            if yv * yv == rhs:
                pts.append(curve.point(xv, yv))
    return pts


def small_curves():
    out = []
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]:
        F = FiniteField(p, k)
        for lam in F:
            if lam.is_zero() or lam.is_one():
                continue
            out.append(LegendreCurve(F, lam))
    return out


def test_curve_validation():
    F5 = FiniteField(5)
    with pytest.raises(CurveError):
        LegendreCurve(F5, F5.zero)
    with pytest.raises(CurveError):
        LegendreCurve(F5, F5.one)
    c = LegendreCurve(F5, F5.coerce(2))
    with pytest.raises(CurveError):
        c.point(F5.coerce(2), F5.coerce(1))  # not on the curve


def test_point_membership_and_negation():
    F7 = FiniteField(7)
    c = LegendreCurve(F7, F7.coerce(2))
    P = c.point(F7.coerce(5), F7.coerce(2))
    assert (-P) == c.neg(P)
    assert c.neg(P) == c.point(F7.coerce(5), F7.coerce(-2))
    assert c.neg(c.infinity) == c.infinity


def test_count_oracles():
    cases = [(5, 2, 8, -2), (3, 2, 4, 0), (7, 2, 8, 0)]
    for p, lam, count, trace in cases:
        F = FiniteField(p)
        c = LegendreCurve(F, F.coerce(lam))
        n, t = c.count_and_trace()
        assert n == count and t == trace
        assert len(brute_points(c)) == count


def test_group_axioms_small_curves():
    rng = random.Random(3)
    for c in small_curves()[:12]:
        pts = brute_points(c)
        O = c.infinity
        for P in pts:
            assert c.add(P, O) == P
            assert c.add(P, c.neg(P)) == O
            assert c.add(P, P) == c.double(P)
        for _ in range(40):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert c.add(P, Q) == c.add(Q, P)
            assert c.add(c.add(P, Q), R) == c.add(P, c.add(Q, R))
        # closure: sums land back in the enumerated set
        sample = pts if len(pts) <= 10 else pts[:10]
        for P in sample:
            for Q in sample:
                assert c.add(P, Q) in pts


def test_scalar_mul_vs_repeated_addition():
    F7 = FiniteField(7)
    c = LegendreCurve(F7, F7.coerce(3))
    for P in brute_points(c):
        acc = c.infinity
        for m in range(0, 12):
            assert c.scalar_mul(m, P) == acc
            assert c.scalar_mul(-m, P) == c.neg(acc)
            acc = c.add(acc, P)
    P = c.point(*_some_affine(c))
    assert c.scalar_mul(3, P) == c.add(c.double(P), P)


def _some_affine(curve):
    for P in brute_points(curve):
        if not P.is_infinity:
            return P.x, P.y
    raise AssertionError


def test_known_doubling():
    F7 = FiniteField(7)
    c = LegendreCurve(F7, F7.coerce(2))
    P = c.point(F7.coerce(5), F7.coerce(2))
    D = c.double(P)
    assert D == c.point(F7.coerce(2), F7.coerce(0))


def test_torsion_order_matches_brute_force():
    for c in small_curves()[:10]:
        for P in brute_points(c):
            m = c.torsion_order(P)
            assert c.scalar_mul(m, P).is_infinity
            for d in range(1, m):
                if m % d == 0:
                    assert not c.scalar_mul(d, P).is_infinity


def test_lift_x():
    F5 = FiniteField(5)
    c = LegendreCurve(F5, F5.coerce(2))
    pts = c.lift_x(F5.coerce(3))
    assert len(pts) == 2 and all(P.x == F5.coerce(3) for P in pts)
    assert pts[0] == c.neg(pts[1])
    # branch points lift to the single 2-torsion point
    assert c.lift_x(F5.zero) == [c.point(F5.zero, F5.zero)]
    # x with non-square f(x): no lift without an extension
    c = LegendreCurve(F5, F5.coerce(3))
    missing = F5.coerce(4)  # f(4) = 4*3*1 = 2, a non-square mod 5
    with pytest.raises(CurveError):
        c.lift_x(missing)
    Q = c.lift_x(missing, extend=True)[0]
    assert isinstance(Q.curve.base, QuadExtField)
    assert Q.curve.scalar_mul(Q.curve.torsion_order(Q), Q).is_infinity
    assert c.lift_x(INF) == [c.infinity]


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (11, 1), (5, 2)])
def test_x_order_matches_group_law(p, k):
    # every z in P^1(F_q) for every admissible lambda, q in {5, 7, 9, 11, 25}:
    # branch points, square f(z) (points of C(F_q)) and non-square f(z)
    # (twist points over F_{q^2}) against the scalar_mul oracle on a lift
    F = FiniteField(p, k)
    kinds = set()
    for lam in F:
        if lam.is_zero() or lam.is_one():
            continue
        c = LegendreCurve(F, lam)
        for z in [INF] + list(F):
            P = c.lift_x(z, extend=True)[0]
            assert c.x_order(z) == P.curve.torsion_order(P), (lam, z)
            if z is INF:
                kinds.add("infinity")
            elif isinstance(P.curve.base, QuadExtField):
                kinds.add("twist")
            else:
                kinds.add("branch" if P.y.is_zero() else "rational")
    assert kinds == {"infinity", "twist", "branch", "rational"}


def test_group_order_and_extension():
    F7 = FiniteField(7)
    c = LegendreCurve(F7, F7.coerce(2))
    n, t = c.count_and_trace()
    assert n == 7 + 1 - t
    assert extension_order(7, t, 1) == n
    assert extension_order(7, 0, 2) == 64
    # #C(F_{q^2}) via the trace recurrence matches brute force over the big field
    F49 = FiniteField(7, 2)
    c2 = LegendreCurve(F49, F49.coerce(2))
    assert len(brute_points(c2)) == extension_order(7, t, 2)


def test_hasse_bound_all_small_curves():
    for c in small_curves():
        q = c.base.order
        n, t = c.count_and_trace()
        assert t * t <= 4 * q
        assert n == q + 1 - t


def test_division_polynomial_bases():
    l = SYMBOLIC_LAMBDA_RING.gen()
    xr = SYMBOLIC_X_RING
    one = SYMBOLIC_LAMBDA_RING.one

    p3 = division_polynomial(3)
    expect3 = xr.from_coeffs(
        [-(l * l), SYMBOLIC_LAMBDA_RING.coerce(0), 6 * l, -4 * (one + l), 3 * one]
    )
    assert p3 == expect3
    assert division_polynomial(1) == xr.one
    assert division_polynomial(2) == xr.one
    with pytest.raises(ValueError):
        division_polynomial(0)
    p4 = division_polynomial(4)
    assert p4.degree == 6
    assert p4.lc == 2 * one


def test_psihat_eval_known_values():
    assert psihat_eval(3, Fraction(27, 32), Fraction(9, 8)) == 0
    assert psihat_eval(3, Fraction(2), Fraction(3)) == 23


def test_division_polynomial_characterizes_torsion():
    # psi-hat_m(x(P)) = 0  <=>  [m]P = O, for P neither infinity nor 2-torsion
    rng = random.Random(11)
    curves = small_curves()
    for c in rng.sample(curves, 8):
        branch = set(c.branch_xs())
        for P in brute_points(c):
            if P.is_infinity or P.x in branch:
                continue
            m = c.torsion_order(P)
            for k in range(3, 13):
                poly = division_polynomial(k, c)
                vanish = poly(P.x).is_zero()
                assert vanish == (k % m == 0)


def test_mult_x_map_degree_and_doubling():
    # generic symbolic doubling map: (x^2 - lam)^2 / (4 x (x-1)(x-lam))
    phi2 = mult_x_map(2)
    l = SYMBOLIC_LAMBDA_RING.gen()
    xr = SYMBOLIC_X_RING
    xpoly = xr.gen()
    num = (xpoly * xpoly - xr.coerce(l)) ** 2
    den = 4 * xpoly * (xpoly - xr.one) * (xpoly - xr.coerce(l))
    assert phi2.num * den == phi2.den * num
    for m in range(2, 7):
        phi = mult_x_map(m)
        assert max(phi.num.degree, phi.den.degree) == m * m


def test_mult_x_map_pointwise():
    rng = random.Random(5)
    for _ in range(60):
        c = rng.choice(small_curves())
        pts = [P for P in brute_points(c) if not P.is_infinity]
        P = rng.choice(pts)
        m = rng.randrange(2, 9)
        phi = mult_x_map(m, c)
        Q = c.scalar_mul(m, P)
        img = phi.eval_proj(P.x)
        if Q.is_infinity:
            assert img is INF
        else:
            assert img == Q.x


def test_group_law_dispatcher():
    F5 = FiniteField(5)
    c = LegendreCurve(F5, F5.coerce(2))
    P = c.lift_x(F5.coerce(3))[0]
    assert c.add(P, P) == c.double(P)
    assert c.add(P, c.neg(P)).is_infinity


def test_hasse_polynomial_oracles():
    for p, coeffs in [(3, [1, 1]), (5, [1, 4, 1]), (7, [1, 2, 2, 1])]:
        H = hasse_polynomial(p)
        F = FiniteField(p)
        assert [c.lift_int() for c in H.coeffs] == coeffs
    with pytest.raises(ValueError):
        hasse_polynomial(2)
    with pytest.raises(ValueError):
        hasse_polynomial(9)


def test_supersingular_counts():
    expected = {3: 1, 5: 2, 7: 3, 11: 5, 13: 6}
    for p, n in expected.items():
        field, lams = supersingular_lambdas(p)
        assert field.order == p * p
        assert len(lams) == n
        for lam in lams:
            assert is_supersingular(lam)


def test_is_supersingular_vs_brute_force():
    # trace == 0 over F_p is the classical supersingularity test for p >= 5
    for p in [5, 7, 11]:
        F = FiniteField(p)
        for a in range(2, p):
            lam = F.coerce(a)
            c = LegendreCurve(F, lam)
            _, t = c.count_and_trace()
            assert is_supersingular(lam) == (t % p == 0)


def test_supersingular_full_field_sweep():
    # over F_{p^2}: #C = p^2 + 1 +/- 2p exactly at supersingular lambda
    p = 5
    field, lams = supersingular_lambdas(p)
    ss = set(lams)
    for lam in field:
        if lam.is_zero() or lam.is_one():
            continue
        c = LegendreCurve(field, lam)
        n = len(brute_points(c))
        if lam in ss:
            assert n in (p * p + 1 + 2 * p, p * p + 1 - 2 * p)
        else:
            assert n not in (p * p + 1 + 2 * p, p * p + 1 - 2 * p)


def test_verify_composition_small():
    assert verify_composition(2, 2)
    assert verify_composition(2, 3)
    assert verify_composition(1, 5)
    # the proof must also be able to fail: phi_2 o phi_2 is not phi_3 or phi_5
    phi = {m: mult_x_map(m) for m in (2, 3, 4, 5)}
    assert _composition_holds(phi[2], phi[2], phi[4])
    assert not _composition_holds(phi[2], phi[2], phi[3])
    assert not _composition_holds(phi[2], phi[2], phi[5])
    near = RationalFunction(phi[4].num + SYMBOLIC_X_RING.one, phi[4].den, reduce=False)
    assert not _composition_holds(phi[2], phi[2], near)


def test_temporaries_are_freed_without_the_cycle_collector():
    """Fields, polynomial rings, quotient rings and curves hold no reference
    cycles, so what a sweep builds (log tables included) goes as soon as it
    is dropped."""
    gc.disable()
    try:
        F = FiniteField(7, 2)
        F.gen() ** 10  # builds the log tables
        curve = LegendreCurve(F, F.element([3, 1]))
        curve.scalar_mul(5, curve.random_point(random.Random(1)))
        R = PolyRing(F, "x")
        (R.gen() + R.one) ** 3 % (R.gen() ** 2 + R.one)
        # the ring pvi-check works in: Q[l][x]/(x^2 - l)
        K = PolyRing(QQ, "l")
        Q = QuotientRing(PolyRing(K, "x").from_coeffs([-K.gen(), K.zero, K.one]))
        t = Q.element(Q.polyring.gen())
        assert t**3 * t == Q.element(K.gen() * K.gen()) and (t + Q.one) * (t - Q.one) == Q.element(K.gen() - 1)
        E = QuadExtField(FiniteField(7), FiniteField(7).coerce(3))
        assert (E.gen() + E.one) ** 48 == E.one and E.gen() * E.gen().inverse() == E.one
        refs = [weakref.ref(o) for o in (F, curve, R, K, Q, E)]
        del F, curve, R, K, Q, t, E
        assert [r() for r in refs] == [None] * 6
    finally:
        gc.enable()


def test_point_serialization():
    F5 = FiniteField(5)
    c = LegendreCurve(F5, F5.coerce(2))
    P = c.lift_x(F5.coerce(3))[0]
    data = P.to_json()
    assert isinstance(data, dict) and set(data) == {"x", "y"}
    assert c.infinity.to_json() == "inf"
