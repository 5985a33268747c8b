"""The benchmark's workloads: seeded inputs, the operations, and their checks.

A workload is a list of operations that one round runs in order.  Almost
every operation is a `lattes` command line handed to `lattes.cli.main` in
this process.  Two have no subcommand of their own and call the library
directly: `verify_composition` and `supersingular_identity_check` (the
latter is otherwise reachable only inside `verify-all`, which would bring
symbolic Q[lambda] work into a finite-field workload).

Every check recomputes the answer with `oracles` or tests a property the
mathematics forces; none compares against stored output.  Oracle results
are memoized on the workload object, so checks cost little after the
first round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import oracles as orc


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One timed operation: a CLI argv or a direct library call."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def cli_op(lattes, label, argv, codes, check):
    """An operation running `lattes argv`; check(report) sees the parsed JSON."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lattes.cli.main(argv)
        return code, buf.getvalue()

    def checked(result):
        code, text = result
        expect(code in codes, f"{' '.join(argv)}: exit {code}, expected one of {sorted(codes)}")
        check(json.loads(text))

    return Op(label, run, checked)


# ---------------------------------------------------------------------------
# fq-dynamics


class FqDynamics:
    """Censuses, orbits, scans and x^{p^2} identities at small odd p.

    Few fields and few lambda, each used many times, so the per-(field,
    lambda) caches of `legendre` are hit; all the time is F_q arithmetic,
    point counting and torsion orders.
    """

    CENSUS_ORDINARY = (5, 7, 11)  # lambda in F_p, over F_{p^2}
    CENSUS_SUPERSINGULAR = (5, 7)  # lambda in F_{p^2}, over F_{p^2}
    ORBIT_PRIMES = (11, 13)  # every z in F_p and inf, over F_{p^2}
    SCAN_PRIMES = (5, 7, 11, 13, 17)
    IDENTITY_PRIMES = (5, 7)

    def __init__(self, lattes, seed: int):
        self.lattes = lattes
        rng = random.Random(f"fq-dynamics/{seed}")
        self._fields = {}
        self._lines = {}
        self._ss = {}
        self._census = {}
        p_set = sorted(set(self.CENSUS_ORDINARY + self.CENSUS_SUPERSINGULAR + self.ORBIT_PRIMES + self.SCAN_PRIMES))
        for p in p_set:
            self.supersingular_set(p)
        self.census_inputs = []  # (p, k, lambda pair)
        for p in self.CENSUS_ORDINARY:
            self.census_inputs.append((p, 1, (rng.choice(self.ordinary_in_fp(p)), 0)))
        for p in self.CENSUS_SUPERSINGULAR:
            self.census_inputs.append((p, 2, rng.choice(sorted(self.supersingular_set(p)))))
        self.orbit_inputs = []  # (p, lambda, [z ...]); None is inf
        for p in self.ORBIT_PRIMES:
            zs = [None] + list(range(p))
            rng.shuffle(zs)
            self.orbit_inputs.append((p, rng.choice(self.ordinary_in_fp(p)), zs))
        self.identity_inputs = [(p, lam) for p in self.IDENTITY_PRIMES for lam in sorted(self.supersingular_set(p))]
        rng.shuffle(self.identity_inputs)

    # -- oracle side

    def field(self, p):
        if p not in self._fields:
            self._fields[p] = orc.PairField(p, 2)
        return self._fields[p]

    def line(self, p, lam):
        key = (p, lam)
        if key not in self._lines:
            self._lines[key] = orc.KummerLine(self.field(p), lam)
        return self._lines[key]

    def supersingular_set(self, p):
        """lambda in F_{p^2} - {0, 1} with #C(F_{p^2}) = p^2 + 1 -+ 2p."""
        if p not in self._ss:
            F = self.field(p)
            q = p * p
            out = set()
            for lam in F.elements():
                if lam in (F.zero, F.one):
                    continue
                if orc.PairCurve.legendre(F, lam).count() in (q + 1 + 2 * p, q + 1 - 2 * p):
                    out.add(lam)
            self._ss[p] = out
        return self._ss[p]

    def ordinary_in_fp(self, p):
        return [a for a in range(2, p) if (a, 0) not in self.supersingular_set(p)]

    def census_oracle(self, p, lam):
        """The full census of the x-map of [p] on P^1(F_{p^2})."""
        key = (p, lam)
        if key not in self._census:
            line = self.line(p, lam)
            points = [None] + self.field(p).elements()
            period, hist = orc.functional_graph(points, lambda z: line.mult_x(p, z))
            verdicts = {"div_pf_minus_1": 0, "div_pf_plus_1": 0, "equal_pf_minus_1": 0}
            for z, f in period.items():
                m, q = line.order(z), p**f
                verdicts["div_pf_minus_1"] += (q - 1) % m == 0
                verdicts["div_pf_plus_1"] += (q + 1) % m == 0
                verdicts["equal_pf_minus_1"] += m == q - 1
            self._census[key] = {
                "periodic": len(period),
                "preperiodic": len(points) - len(period),
                "period_histogram": {str(f): c for f, c in sorted(hist.items())},
                "verdicts": verdicts,
            }
        return self._census[key]

    # -- operations

    def ops(self):
        L = self.lattes
        out = []
        for p, k, lam in self.census_inputs:
            arg = f"{lam[0]},{lam[1]}" if k == 2 else str(lam[0])
            argv = ["census", f"--p={p}", f"--k={k}", f"--lambda={arg}", "--n=1", "--verdicts"]
            out.append(cli_op(L, "census", argv, {0}, self._census_check(p, lam)))
        for p in self.SCAN_PRIMES:
            out.append(cli_op(L, "supersingular-scan", ["supersingular-scan", f"--p={p}"], {0}, self._scan_check(p)))
        for p, k, lam in self.census_inputs:
            arg = f"{lam[0]},{lam[1]}" if k == 2 else str(lam[0])
            argv = ["selfmap", f"--p={p}", f"--k={k}", f"--lambda={arg}"]
            out.append(cli_op(L, "selfmap", argv, {0}, self._selfmap_check(p, k, lam)))
        for p, a, zs in self.orbit_inputs:
            for z in zs:
                argv = ["orbit", f"--p={p}", f"--lambda={a}", "--z=" + ("inf" if z is None else str(z)), "--n=1"]
                out.append(cli_op(L, "orbit", argv, {0}, self._orbit_check(p, (a, 0), z)))
        for p, lam in self.identity_inputs:
            out.append(Op("supersingular-identity", self._identity_run(p, lam), self._identity_check(p, lam)))
        return out

    def _census_check(self, p, lam):
        def check(r):
            total = p**2 + 1
            expect(r["periodic"] + r["preperiodic"] == total, f"census p={p} lambda={lam}: count != {total}")
            ss = lam in self.supersingular_set(p)
            expect(r["supersingular"] == ss, f"census p={p} lambda={lam}: supersingular flag {r['supersingular']}")
            if ss:
                expect(r["preperiodic"] == 0, f"census p={p} lambda={lam}: preperiodic point at supersingular lambda")
            oracle = self.census_oracle(p, lam)
            for key, want in oracle.items():
                expect(r[key] == want, f"census p={p} lambda={lam}: {key} {r[key]} != oracle {want}")

        return check

    def _scan_check(self, p):
        def check(r):
            F = self.field(p)
            expect(r["field"]["modulus"] == [F.c0, F.c1, 1], f"scan p={p}: modulus {r['field']['modulus']}")
            got = {tuple(v) for v in r["lambdas"]}
            expect(len(got) == len(r["lambdas"]) == r["count"] == (p - 1) // 2, f"scan p={p}: count {r['count']}")
            expect(got == self.supersingular_set(p), f"scan p={p}: lambdas differ from the point-count oracle")

        return check

    def _selfmap_check(self, p, k, lam):
        def check(r):
            q = p * p
            expect(r["generic_degree"] == q and r["reduced_degree"] == q, f"selfmap p={p} lambda={lam}: degree")
            ss = lam in self.supersingular_set(p)
            expect(r["supersingular"] == ss, f"selfmap p={p} lambda={lam}: supersingular flag")
            num, den = r["map"]["num"], r["map"]["den"]
            monomial = len(den) == 1 and den[0] == [1] + [0] * (k - 1) and num[-1] == den[0] and len(num) == q + 1
            monomial = monomial and all(c == [0] * k for c in num[:-1])
            expect(monomial == ss, f"selfmap p={p} lambda={lam}: x^(p^2) form is {monomial}, supersingular is {ss}")

        return check

    def _orbit_check(self, p, lam, z):
        def check(r):
            line = self.line(p, lam)
            zz = None if z is None else (z, 0)
            tail, period = orc.orbit_of(lambda w: line.mult_x(p, w), zz)
            m = line.order(zz)
            expect((r["tail"], r["period"], r["torsion_order"]) == (tail, period, m),
                   f"orbit p={p} lambda={lam} z={z}: {(r['tail'], r['period'], r['torsion_order'])} != oracle {(tail, period, m)}")
            if r["tail"] == 0:
                q = p ** r["period"]
                expect((q - 1) % m == 0 or (q + 1) % m == 0, f"orbit p={p} z={z}: m={m} divides neither p^f -+ 1")
                expect(gcd(m, p) == 1 and r["gcd_with_p"] == 1, f"orbit p={p} z={z}: gcd(m, p) != 1")

        return check

    def _identity_run(self, p, lam):
        def run():
            F = self.lattes.fields.FiniteField(p, 2)
            return self.lattes.moduli.supersingular_identity_check(F.element(list(lam)), p)

        return run

    def _identity_check(self, p, lam):
        def check(r):
            expect(lam in self.supersingular_set(p), f"identity p={p} lambda={lam}: not supersingular by count")
            expect(r["symbolic"] and r["pointwise"] and r["ok"], f"identity p={p} lambda={lam}: x^(p^2) identity fails")

        return check


# ---------------------------------------------------------------------------
# symbolic-q


def deg_x_psi(m: int) -> int:
    return (m * m - 1) // 2 if m % 2 else (m * m - 4) // 2


class SymbolicQ:
    """Torsion loci, PVI residuals and composition proofs over Q[lambda].

    The program's inputs are fixed by the mathematics (which m, which
    pairs); the seed chooses the primes and lambda_0 at which the
    benchmark re-checks each Psi_m against its own group law.
    """

    # Psi_6 (8 s) and the pairs with mn = 8, 9 (4 to 9 s each) are left out:
    # a round of a few seconds lets every operation be timed several times
    # per run, which the best-of-rounds timing needs on a noisy machine
    LOCI = (3, 4, 5)
    PVI = (3, 4)
    PAIRS = ((2, 2), (2, 3), (3, 2))
    CHECK_PRIMES = (7, 11, 13, 17, 19)

    def __init__(self, lattes, seed: int):
        self.lattes = lattes
        rng = random.Random(f"symbolic-q/{seed}")
        self.specialisations = {}
        for m in self.LOCI:
            # a (p, lambda_0) with p prime to 2m whose curve or twist has m-torsion over F_{p^2}
            cands = [(p, a) for p in self.CHECK_PRIMES if (2 * m) % p for a in range(2, p)]
            rng.shuffle(cands)
            for p, a in cands:
                line = orc.KummerLine(orc.PairField(p, 2), (a, 0))
                roots = self._torsion_xs(line, m)
                if roots:
                    self.specialisations[m] = (line, roots)
                    break
            expect(m in self.specialisations, f"no specialisation with {m}-torsion")

    @staticmethod
    def _torsion_xs(line, m):
        """x in F_{p^2} of points P (on the curve or twist) with [m]P = O, 2P != O."""
        out = set()
        for x in line.F.elements():
            E, P = line.lift(x)
            if E.add(P, P) is not None and E.mul(m, P) is None:
                out.add(x)
        return out

    def ops(self):
        L = self.lattes
        out = []
        for m in self.LOCI:
            out.append(cli_op(L, "torsion-locus", ["torsion-locus", f"--m={m}"], {0}, self._locus_check(m)))
        for m in self.PVI:
            out.append(cli_op(L, "pvi-check", ["pvi-check", f"--m={m}"], {0}, self._pvi_check(m)))
        for m, n in self.PAIRS:
            out.append(Op("verify-composition", self._composition_run(m, n), self._composition_check(m, n)))
        return out

    def _locus_check(self, m):
        def check(r):
            psi = [[Fraction(c) for c in row] for row in r["psi"]]
            want = deg_x_psi(m)
            expect(r["m"] == m and r["deg_x"] == want == len(psi) - 1, f"Psi_{m}: deg_x {r['deg_x']} != {want}")
            expect(all(c.denominator == 1 for row in psi for c in row), f"Psi_{m}: non-integral coefficient")
            line, roots = self.specialisations[m]
            F = line.F
            p = F.p
            lam0 = line.lam

            def at(x):
                acc = F.zero
                for row in reversed(psi):
                    c = F.zero
                    for v in reversed(row):
                        c = F.add(F.mul(c, lam0), (int(v) % p, 0))
                    acc = F.add(F.mul(acc, x), c)
                return acc

            for x in F.elements():
                vanishes = at(x) == F.zero
                expect(vanishes == (x in roots),
                       f"Psi_{m} mod {p} at lambda_0={lam0[0]}, x={x}: vanishes={vanishes}, {m}-torsion={x in roots}")

        return check

    def _pvi_check(self, m):
        def check(r):
            expect(r["m"] == m, f"pvi-check m={m}: wrong m")
            expect(r["residual_zero"], f"pvi-check m={m}: residual nonzero at (0,0,0,1/2)")
            expect(r["control_nonzero"], f"pvi-check m={m}: control residual vanishes")
            expect(r["etale"] and set(r["disc_roots"]) <= {"0", "1"}, f"pvi-check m={m}: not etale off lambda in {{0,1}}")
            expect(r["params"] == {"alpha": "0", "beta": "0", "gamma": "0", "delta": "1/2"}, f"pvi-check m={m}: params")

        return check

    def _composition_run(self, m, n):
        def run():
            return self.lattes.legendre.verify_composition(m, n)

        return run

    def _composition_check(self, m, n):
        def check(ok):
            expect(ok is True, f"verify_composition({m}, {n}) is {ok}")

        return check


# ---------------------------------------------------------------------------
# q-certificates


def three_torsion(t: Fraction, sign: int):
    """(lambda, x) with x the coordinate of a 3-torsion point: x = (t+1)^2/(4t)
    makes x(x-1) = s^2 a square, and lambda solves psihat_3(x; lambda) = 0."""
    x = (t + 1) ** 2 / (4 * t)
    s = (t * t - 1) / (4 * t)
    return 3 * x * x - 2 * x**3 + 2 * sign * x * (x - 1) * s, x


def rational(rng, num, den):
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v not in (0, 1, -1):
            return v


class QCertificates:
    """is-torsion queries on rational (lambda, z), half torsion, half not.

    Torsion points come from families of known order: branch points (2),
    the 3-torsion parametrisation and its translate by (0, 0) (3 and 6),
    lambda = u^2 at z = u (4, no rational lift) and lambda = 1 - u^2 at
    z = 1 -+ u (4, rational lift).  Non-torsion points are sums of the
    integral point (x, x(x-1)k) on lambda = x - x(x-1)k^2 with itself or a
    2-torsion point, kept when their x is not an integer: at integral
    lambda Nagell-Lutz then rules torsion out.
    """

    COUNTS = {2: 15, 3: 40, 6: 40, "4a": 25, "4b": 30}
    NON_TORSION = 150

    def __init__(self, lattes, seed: int):
        self.lattes = lattes
        rng = random.Random(f"q-certificates/{seed}")
        queries = []  # (lambda, z, order or None, rational lift or None)
        for _ in range(self.COUNTS[2]):
            lam = rational(rng, 60, 20)
            queries.append((lam, rng.choice((Fraction(0), Fraction(1), lam)), 2))
        for order in (3, 6):
            made = 0
            while made < self.COUNTS[order]:
                t = Fraction(rng.randint(2, 40), rng.randint(1, 5))
                lam, x = three_torsion(t, 1 if order == 3 else -1)
                if lam in (0, 1) or x in (0, 1, lam):
                    continue
                queries.append((lam, x, 3) if order == 3 else (lam, lam / x, 6))
                made += 1
        for _ in range(self.COUNTS["4a"]):
            u = rational(rng, 30, 6)
            queries.append((u * u, u, 4))
        for _ in range(self.COUNTS["4b"]):
            u = rational(rng, 30, 6)
            queries.append((1 - u * u, 1 + rng.choice((1, -1)) * u, 4))
        pool = []
        for x in [v for v in range(-20, 21) if v not in (0, 1)]:
            for k in range(1, 6):
                lam = Fraction(x - x * (x - 1) * k * k)
                if lam in (0, 1):
                    continue
                P = (Fraction(x), Fraction(x * (x - 1) * k))
                for Q in (orc.q_add(lam, P, P), orc.q_add(lam, P, (Fraction(1), Fraction(0))), orc.q_add(lam, P, (lam, Fraction(0)))):
                    if Q is not None and Q[0].denominator != 1:
                        pool.append((lam, Q[0], None))
        pool = sorted(set(pool))
        queries += rng.sample(pool, self.NON_TORSION)
        rng.shuffle(queries)
        self.queries = queries

    def ops(self):
        out = []
        for lam, z, order in self.queries:
            argv = ["is-torsion", f"--lambda={lam}", f"--z={z}"]
            codes = {0} if order else {3}
            out.append(cli_op(self.lattes, "is-torsion", argv, codes, self._check(lam, z, order)))
        return out

    @staticmethod
    def _check(lam, z, order):
        def check(r):
            tag = f"is-torsion lambda={lam} z={z}"
            expect(Fraction(r["lambda"]) == lam and Fraction(r["z"]) == z, f"{tag}: echoed input differs")
            y = orc.rational_sqrt(orc.q_f(lam, z))
            if order is None:
                expect(lam.denominator == 1 and z.denominator != 1 and y is not None, f"{tag}: not a Nagell-Lutz witness")
                expect(r["verdict"] == "non-torsion", f"{tag}: verdict {r['verdict']} contradicts Nagell-Lutz")
                return
            expect(r["verdict"] == "torsion", f"{tag}: verdict {r['verdict']} for a point of order {order}")
            got = r["order"]
            expect(isinstance(got, int) and got >= 1 and order % got == 0, f"{tag}: order {got} does not divide {order}")
            if y is not None:
                P = (z, y)
                expect(orc.q_mul(lam, order, P) is None, f"{tag}: [{order}]P != O by the rational group law")
                expect(orc.q_mul(lam, got, P) is None, f"{tag}: [{got}]P != O by the rational group law")

        return check


WORKLOADS = {
    "fq-dynamics": FqDynamics,
    "symbolic-q": SymbolicQ,
    "q-certificates": QCertificates,
}
