from fractions import Fraction

import pytest

from lattes.fields import FiniteField, embed
from lattes.legendre import INF, CurveError, LegendreCurve
from lattes.moduli import (
    ModuliPoint,
    _selfmap_over,
    build_selfmap,
    classify_field,
    orbit,
    stability_check,
    supersingular_identity_check,
)


def test_parabolic_stability():
    out = stability_check()
    assert out["stable"] is True
    assert out["sub_slope"] == Fraction(-1, 2)
    assert out["total_slope"] == 0
    assert out["weights"] == [0, 0, 0, Fraction(1, 2)]
    F5 = FiniteField(5)
    withpt = stability_check(ModuliPoint(z=F5.coerce(3), lam=F5.coerce(2)))
    assert withpt["stable"] is True


def test_build_selfmap_basics():
    F3 = FiniteField(3)
    sm = build_selfmap(F3.coerce(2))  # lambda = 2 = -1 is supersingular for p = 3
    assert sm.p == 3
    assert sm.generic_degree == 9
    assert sm.supersingular
    assert sm.is_pth_power_monomial()
    assert sm.reduced_degree == 9
    # acting on P^1(F_3): fixes everything (z^9 = z)
    for z in [INF, F3.zero, F3.one, F3.coerce(2)]:
        assert sm(z) == z


def test_build_selfmap_ordinary():
    F5 = FiniteField(5)
    sm = build_selfmap(F5.coerce(2))  # ordinary: H_5(2) = 1 + 8 + 4 = 13 != 0 mod 5
    assert not sm.supersingular
    assert not sm.is_pth_power_monomial()
    # still the x-coordinate action of [5]: check against the curve directly
    c = LegendreCurve(F5, F5.coerce(2))
    for xv in F5:
        try:
            P = c.lift_x(xv)[0]
        except CurveError:
            continue
        Q = c.scalar_mul(5, P)
        expect = INF if Q.is_infinity else Q.x
        assert sm(xv) == expect


def test_build_selfmap_errors():
    F5 = FiniteField(5)
    with pytest.raises(CurveError):
        build_selfmap(F5.coerce(2), p=7)
    F2 = FiniteField(2)
    # characteristic 2 is outside the family's good locus
    with pytest.raises(CurveError):
        LegendreCurve(F2, F2.one)


def test_orbit_documented_example():
    F5 = FiniteField(5)
    sm = build_selfmap(F5.coerce(2))
    rep = orbit(F5.coerce(3), sm)
    assert rep.tail == 0
    assert rep.period == 1
    assert rep.torsion_order == 4
    assert rep.divides_pf_minus_1  # 4 | 5^1 - 1
    assert rep.equals_pf_minus_1
    assert rep.gcd_with_p == 1


def test_orbit_branch_point():
    F5 = FiniteField(5)
    sm = build_selfmap(F5.coerce(2))
    rep = orbit(F5.zero, sm)
    assert rep.torsion_order == 2
    assert rep.divides_pf_minus_1  # 2 | 4
    rep_inf = orbit(INF, sm)
    assert rep_inf.torsion_order == 1
    assert rep_inf.period == 1  # INF is fixed


def test_orbit_matches_manual_iteration():
    F7 = FiniteField(7)
    sm = build_selfmap(F7.coerce(3))
    for z in [INF, F7.zero, F7.coerce(2), F7.coerce(5)]:
        rep = orbit(z, sm)
        # replay: after `tail` steps the orbit enters a cycle of length `period`
        w = z
        for _ in range(rep.tail):
            w = sm(w)
        start = w
        for _ in range(rep.period):
            w = sm(w)
        assert w == start
        assert len(rep.cycle) == rep.period


def test_orbit_in_extension_field():
    F5 = FiniteField(5)
    F25 = FiniteField(5, 2)
    sm = build_selfmap(F5.coerce(2))
    rep = orbit(F25.gen(), sm, field=F25)
    assert rep.period >= 1
    m = rep.torsion_order
    q = 5**rep.period
    assert (q - 1) % m == 0 or (q + 1) % m == 0


@pytest.mark.parametrize("p,k,deg", [(3, 1, 2), (5, 1, 2), (3, 2, 4), (5, 2, 4)])
def test_embedded_selfmap_equals_fresh_build(p, k, deg):
    # pushing the reduced map of lambda into F_{p^deg} coefficientwise gives
    # exactly the map built from scratch at the embedded lambda
    F, target = FiniteField(p, k), FiniteField(p, deg)
    for lam in F:
        if lam.is_zero() or lam.is_one() or (k == 2 and lam.in_prime_field()):
            continue
        pushed = _selfmap_over(build_selfmap(lam), target)
        fresh = build_selfmap(embed(lam, target))
        assert pushed.lam == fresh.lam and pushed.curve == fresh.curve
        assert pushed.supersingular == fresh.supersingular
        assert (pushed.map.num, pushed.map.den) == (fresh.map.num, fresh.map.den)
        assert pushed.map.den.lc.is_one()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lifted_point_count_matches_brute_force(p):
    # _selfmap_over carries the count of lambda's curve by the trace
    # recurrence; a fresh curve over the target field counts by enumeration
    F, F2, F4 = FiniteField(p), FiniteField(p, 2), FiniteField(p, 4)
    cases = [(F.coerce(a), target) for a in range(2, p) for target in (F2, F4)]
    cases += [(lam, F4) for lam in F2 if not lam.in_prime_field()][:8]
    for lam, target in cases:
        curve = _selfmap_over(build_selfmap(lam), target).curve
        assert curve.base is target and curve._count is not None
        assert curve.count_and_trace() == LegendreCurve(target, curve.lam).count_and_trace()


def test_period_torsion_report_wrapper():
    F5 = FiniteField(5)
    rep = orbit(F5.coerce(3), build_selfmap(F5.coerce(2)))
    assert rep.period == 1 and rep.torsion_order == 4


@pytest.mark.parametrize("p", [3, 5, 7])
def test_census_matches_per_point_orbits(p):
    # the census's single walk against a tally of orbit() from every point
    # of P^1(F_{p^2}), at every lambda in F_{p^2}, ordinary and supersingular
    target = FiniteField(p, 2)
    kinds = set()
    for lam in target:
        if lam.is_zero() or lam.is_one():
            continue
        lam = FiniteField(p).coerce(lam.lift_int()) if lam.in_prime_field() else lam
        census = classify_field(lam, n=1, with_torsion=True)
        kinds.add(census["supersingular"])
        sm = build_selfmap(lam)
        periodic, histogram = 0, {}
        verdicts = {"div_pf_minus_1": 0, "div_pf_plus_1": 0, "equal_pf_minus_1": 0}
        for z in [INF] + list(target):
            rep = orbit(z, sm, field=target)
            if rep.tail == 0:
                periodic += 1
                histogram[str(rep.period)] = histogram.get(str(rep.period), 0) + 1
                verdicts["div_pf_minus_1"] += rep.divides_pf_minus_1
                verdicts["div_pf_plus_1"] += rep.divides_pf_plus_1
                verdicts["equal_pf_minus_1"] += rep.equals_pf_minus_1
        assert census["periodic"] == periodic
        assert census["preperiodic"] == p * p + 1 - periodic
        assert census["period_histogram"] == dict(sorted(histogram.items(), key=lambda kv: int(kv[0])))
        assert census["verdicts"] == verdicts
    assert kinds == {True, False}


def test_census_supersingular_counts():
    F3 = FiniteField(3)
    out = classify_field(F3.coerce(2), n=1)
    assert out["supersingular"] is True
    assert out["periodic"] == out["expected"] == 3**2 + 1
    assert out["preperiodic"] == 0
    # histogram point-counts sum to the full projective line
    assert sum(out["period_histogram"].values()) == out["expected"]


def test_census_ordinary_has_preperiodic_points():
    F5 = FiniteField(5)
    out = classify_field(F5.coerce(2), n=1)
    assert out["supersingular"] is False
    # the generically 25:1 map cannot be injective on 26 points
    assert out["preperiodic"] > 0
    assert out["periodic"] + out["preperiodic"] == 5**2 + 1


def test_census_torsion_verdicts():
    F5 = FiniteField(5)
    out = classify_field(F5.coerce(2), n=1, with_torsion=True)
    v = out["verdicts"]
    assert v["div_pf_minus_1"] + v["div_pf_plus_1"] >= out["periodic"]


def test_identity_check_supersingular():
    F3 = FiniteField(3)
    out = supersingular_identity_check(F3.coerce(2))
    assert out["ok"] and out["symbolic"] and out["pointwise"]
    assert out["counterexample"] is None


def test_identity_check_rejects_ordinary():
    F5 = FiniteField(5)
    with pytest.raises(CurveError):
        supersingular_identity_check(F5.coerce(2))


def test_selfmap_commutes_with_frobenius():
    # phi(z^p) = phi(z)^p: the map has coefficients in F_p
    F9 = FiniteField(3, 2)
    sm = build_selfmap(F9.coerce(2), p=3)
    for z in list(F9) + [INF]:
        lhs = sm(INF if z is INF else z**3)
        rhs = sm(z)
        rhs = INF if rhs is INF else rhs**3
        assert lhs == rhs


def test_selfmap_serialization():
    F3 = FiniteField(3)
    sm = build_selfmap(F3.coerce(2))
    data = sm.to_json()
    assert data["p"] == 3
    assert data["generic_degree"] == 9
    assert data["supersingular"] is True
