"""Hand-checkable cases for the benchmark's reference arithmetic.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import unittest
from fractions import Fraction

import oracles as orc
from workloads import QCertificates, deg_x_psi, three_torsion


class FieldTests(unittest.TestCase):
    def test_least_moduli(self):
        # x^2 + 1 has no root mod 3; mod 5, x^2 + 1 has the root 2 and x^2 + 2 is the first without one
        self.assertEqual(orc.least_quadratic_modulus(3), (1, 0))
        self.assertEqual(orc.least_quadratic_modulus(5), (2, 0))
        # mod 7: x^2 + 1 (-1 is a non-residue since 7 = 3 mod 4)
        self.assertEqual(orc.least_quadratic_modulus(7), (1, 0))

    def test_f9_arithmetic(self):
        F = orc.PairField(3, 2)  # t^2 = -1
        t = (0, 1)
        self.assertEqual(F.mul(t, t), (2, 0))
        self.assertEqual(F.inv(t), (0, 2))  # t * 2t = 2t^2 = -2 = 1
        for x in F.elements():
            if x != F.zero:
                self.assertEqual(F.mul(x, F.inv(x)), F.one)
        # exactly half of the nonzero elements are squares
        self.assertEqual(sum(1 for x in F.elements() if x != F.zero and F.sqrt_roots(x)), 4)


class CurveTests(unittest.TestCase):
    def test_count_f5(self):
        # lambda = 2 over F_5: x = 0, 1, 2 give one point each; f(3) = 1 and
        # f(4) = 4 are squares, two points each; plus O
        F = orc.PairField(5, 1)
        self.assertEqual(orc.PairCurve.legendre(F, (2, 0)).count(), 8)

    def test_count_supersingular_f9(self):
        # lambda = -1 over F_3: f = x^3 - x vanishes on F_3, #C(F_3) = 4, trace 0,
        # so #C(F_9) = 9 + 1 + 2*3 = 16
        self.assertEqual(orc.PairCurve.legendre(orc.PairField(3, 1), (2, 0)).count(), 4)
        self.assertEqual(orc.PairCurve.legendre(orc.PairField(3, 2), (2, 0)).count(), 16)

    def test_doubling_and_order_f5(self):
        # P = (3, 1) on lambda = 2 mod 5: slope (27 - 18 + 2)/2 = 1/2 = 3,
        # x(2P) = 9 + 3 - 6 = 1 and y(2P) = 3*(3 - 1) - 1 = 0, so P has order 4
        E = orc.PairCurve.legendre(orc.PairField(5, 1), (2, 0))
        P = ((3, 0), (1, 0))
        self.assertEqual(E.add(P, P), ((1, 0), (0, 0)))
        self.assertEqual(E.order(P), 4)
        self.assertIsNone(E.mul(4, P))
        self.assertEqual(E.mul(5, P), P)

    def test_group_axioms_small_curve(self):
        E = orc.PairCurve.legendre(orc.PairField(7, 2), (3, 0))
        pts = E.points()
        self.assertEqual(len(pts), E.count())
        for P in pts[:12]:
            for Q in pts[:12]:
                self.assertEqual(E.add(P, Q), E.add(Q, P))
                self.assertIn(E.add(P, Q), pts)
                self.assertIsNone(E.mul(len(pts), P))

    def test_twist_counts(self):
        # #C + #C^d = 2(q + 1): every x gives two points on one of them or one on each
        for p, lam in ((5, (2, 0)), (7, (3, 0)), (11, (4, 0))):
            line = orc.KummerLine(orc.PairField(p, 1), lam)
            self.assertEqual(line.curve.count() + line.twist.count(), 2 * (p + 1))

    def test_kummer_line(self):
        line = orc.KummerLine(orc.PairField(5, 1), (2, 0))
        self.assertEqual(line.mult_x(2, (3, 0)), (1, 0))
        self.assertIsNone(line.mult_x(2, (1, 0)))  # a 2-torsion point
        self.assertEqual(line.order((3, 0)), 4)
        self.assertEqual(line.order(None), 1)

    def test_functional_graph(self):
        # 0 -> 1 -> 2 -> 1, 3 -> 3: periodic {1, 2} (period 2) and {3} (period 1)
        succ = {0: 1, 1: 2, 2: 1, 3: 3}
        period, hist = orc.functional_graph([0, 1, 2, 3], succ.__getitem__)
        self.assertEqual(period, {1: 2, 2: 2, 3: 1})
        self.assertEqual(hist, {2: 2, 1: 1})
        self.assertEqual(orc.orbit_of(succ.__getitem__, 0), (1, 2))


class RationalTests(unittest.TestCase):
    def test_rational_sqrt(self):
        self.assertEqual(orc.rational_sqrt(Fraction(81, 2048 * 2)), Fraction(9, 64))
        self.assertIsNone(orc.rational_sqrt(Fraction(81, 2048)))
        self.assertIsNone(orc.rational_sqrt(Fraction(-4)))

    def test_four_torsion_over_q(self):
        # lambda = 1 - u^2 with u = 2: P = (3, 6) lies on y^2 = x(x-1)(x+3) and
        # 2P = (1, 0): slope f'(3)/12 = 36/12 = 3, x = 9 - 2 - 6 = 1
        lam = Fraction(-3)
        P = (Fraction(3), Fraction(6))
        self.assertEqual(orc.q_f(lam, P[0]), 36)
        self.assertEqual(orc.q_add(lam, P, P), (Fraction(1), Fraction(0)))
        self.assertIsNone(orc.q_mul(lam, 4, P))

    def test_nagell_lutz_witness(self):
        # (9, 12) on lambda = 7: f(9) = 9*8*2 = 144; 2P has x = 1369/144,
        # not an integer, so P has infinite order
        lam = Fraction(7)
        P = (Fraction(9), Fraction(12))
        self.assertEqual(orc.q_f(lam, P[0]), 144)
        self.assertEqual(orc.q_add(lam, P, P)[0], Fraction(1369, 144))

    def test_three_torsion_family(self):
        # t = 2, x = 9/8: sign -1 gives the certificate example lambda = 27/32;
        # both signs are roots of psihat_3 = 3x^4 - 4(1+l)x^3 + 6l x^2 - l^2
        self.assertEqual(three_torsion(Fraction(2), -1), (Fraction(27, 32), Fraction(9, 8)))
        for t in (Fraction(2), Fraction(7, 3)):
            for sign in (1, -1):
                lam, x = three_torsion(t, sign)
                self.assertEqual(3 * x**4 - 4 * (1 + lam) * x**3 + 6 * lam * x**2 - lam**2, 0)

    def test_generated_queries(self):
        q = QCertificates(None, seed=3)
        self.assertEqual(len(q.queries), sum(QCertificates.COUNTS.values()) + QCertificates.NON_TORSION)
        for lam, z, order in q.queries:
            if order is None:
                self.assertEqual(lam.denominator, 1)
                self.assertNotEqual(z.denominator, 1)
                self.assertIsNotNone(orc.rational_sqrt(orc.q_f(lam, z)))
            elif order == 4 and orc.rational_sqrt(orc.q_f(lam, z)) is not None:
                P = (z, orc.rational_sqrt(orc.q_f(lam, z)))
                self.assertIsNone(orc.q_mul(lam, 4, P))
                self.assertIsNotNone(orc.q_mul(lam, 2, P))

    def test_deg_x_psi(self):
        # Psi_3 = 3x^4 - ..., Psi_4 has degree (16 - 4)/2 = 6
        self.assertEqual([deg_x_psi(m) for m in (3, 4, 5, 6)], [4, 6, 12, 16])


if __name__ == "__main__":
    unittest.main()
