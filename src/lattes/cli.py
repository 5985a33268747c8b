"""Command-line front end: reproducible scans and certificates as JSON.

Every subcommand emits a single JSON document (sorted keys, "schema": "1",
big integers as decimal strings) or a terse text rendering with --format
text.  Exit codes: 0 success/verified, 1 verification failed, 2 usage
error, 3 negative verdict, 4 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import detect as detect_mod
from . import moduli, pvi
from .fields import FieldError, FiniteField
from .legendre import CurveError, INF, hasse_polynomial, supersingular_lambdas
from .poly import ZeroDivisorFound
from .serialize import value_to_json

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4


def _int_in_range(low: int, high: int | None = None, why: str = ""):
    """An argparse type: an integer >= low and, if high is given, <= high;
    `why` names the upper bound in the error message."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be <= {high} ({why}), got {n}")
        return n

    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line on stderr; --help shows the usage."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str, flag: str) -> Fraction:
    """'a/b' or an integer; a malformed value or a zero denominator is a
    usage error that names the argument."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} {text}: zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag} {text!r}: expected a/b or an integer") from None


def _parse_lambda(text: str, field: FiniteField):
    """A field element from 'a/b', an integer, or a comma coefficient list."""
    if "," in text:
        return field.element([int(c) for c in text.split(",")])
    return field.coerce(_fraction(text, "--lambda"))


def _parse_proj(text: str, field=None):
    if text in ("inf", "oo", "infinity"):
        return INF
    v = _fraction(text, "--z")
    return v if field is None else field.coerce(v)


def _stringify(obj):
    """Decimal-string all ints beyond 2^53 so JSON consumers never overflow."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < 2**53 else str(obj)
    if isinstance(obj, Fraction):
        return value_to_json(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def _emit(report: dict, args) -> None:
    report = dict(report)
    report["schema"] = "1"
    report = _stringify(report)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(report.items()))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_selfmap(args) -> int:
    field = FiniteField(args.p, args.k)
    lam = _parse_lambda(args.lam, field)
    sm = moduli.build_selfmap(lam, args.p)
    _emit(sm.to_json(), args)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    field = FiniteField(args.p, args.k)
    lam = _parse_lambda(args.lam, field)
    sm = moduli.build_selfmap(lam, args.p)
    target = FiniteField(args.p, 2 * args.n) if 2 * args.n not in (0, args.k) else field
    z = _parse_proj(args.z, target)
    report = moduli.orbit(z, sm, field=target)
    _emit(report.to_json(), args)
    return EXIT_OK


def _cmd_census(args) -> int:
    field = FiniteField(args.p, args.k)
    lam = _parse_lambda(args.lam, field)
    report = moduli.classify_field(lam, args.p, n=args.n, with_torsion=args.verdicts)
    _emit(report, args)
    if report["supersingular"] and (report["periodic"] != report["expected"] or report["preperiodic"] != 0):
        return EXIT_FAILED
    return EXIT_OK


def _cmd_supersingular_scan(args) -> int:
    field, lams = supersingular_lambdas(args.p)
    report = {
        "p": args.p,
        "field": field.to_json(),
        "count": len(lams),
        "lambdas": [value_to_json(l) for l in lams],
        "in_prime_field": [str(l.lift_int()) for l in lams if l.in_prime_field()],
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_hasse_poly(args) -> int:
    h = hasse_polynomial(args.p)
    _emit({"p": args.p, "degree": h.degree, "coefficients": h.to_json()}, args)
    return EXIT_OK


def _cmd_torsion_locus(args) -> int:
    locus = pvi.torsion_locus(args.m)
    _emit(locus.to_json(), args)
    return EXIT_OK


def _pvi_verdict(m: int):
    """The PVI report for Psi_m and its verdict: the residual vanishes at the
    Picard parameters but not at (0, 0, 0, 0), and the locus is etale."""
    locus = pvi.torsion_locus(m)
    cand = pvi.implicit_derivatives(locus.psi)
    params = pvi.picard_params()
    residual = pvi.pvi_residual(cand, params)
    control = pvi.pvi_residual(cand, pvi.PVIParams(Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    etale = pvi.etale_check(m)
    report = {
        "m": m,
        "params": params.to_json(),
        "residual_zero": residual.is_zero(),
        "control_nonzero": not control.is_zero(),
        "etale": etale["etale"],
        "disc_roots": (["0"] if etale.get("lambda_multiplicity") else []) + (["1"] if etale.get("lambda_minus_1_multiplicity") else []),
    }
    return report, report["residual_zero"] and report["control_nonzero"] and report["etale"]


def _cmd_pvi_check(args) -> int:
    report, ok = _pvi_verdict(args.m)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_is_torsion(args) -> int:
    lam = _fraction(args.lam, "--lambda")
    z = _parse_proj(args.z)
    cert = detect_mod.detect(detect_mod.TorsionQuery(lam, z, args.bound))
    report = cert.to_json()
    report["lambda"] = value_to_json(lam)
    report["z"] = value_to_json(z)
    _emit(report, args)
    if cert.verdict == "torsion":
        return EXIT_OK
    if cert.verdict == "non-torsion":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def _cmd_verify_all(args) -> int:
    items = []

    def record(name, ok, detail=None):
        items.append({"item": name, "ok": bool(ok), "detail": detail})

    primes = [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if p <= args.pmax]
    for p in primes:
        _, lams = supersingular_lambdas(p)
        for lam in lams:
            r = moduli.supersingular_identity_check(lam, p)
            record(f"supersingular-identity p={p} lambda={value_to_json(lam)}", r["ok"])

    for p in (3, 5, 7):
        if p > args.pmax:
            continue
        _, lams = supersingular_lambdas(p)
        for lam in lams:
            c = moduli.classify_field(lam, p, n=1)
            record(
                f"census p={p} lambda={value_to_json(lam)} n=1",
                c["periodic"] == c["expected"] and c["preperiodic"] == 0,
                {"periodic": c["periodic"], "expected": c["expected"]},
            )

    for m in (3, 4):
        record(f"pvi-residual m={m}", _pvi_verdict(m)[1])

    for lam, z, expected, order in (
        (Fraction(27, 32), Fraction(9, 8), "torsion", 3),
        (Fraction(2), Fraction(0), "torsion", 2),
        (Fraction(2), Fraction(3), "non-torsion", None),
    ):
        cert = detect_mod.detect(detect_mod.TorsionQuery(lam, z))
        ok = cert.verdict == expected and (order is None or cert.order == order)
        record(f"is-torsion lambda={lam} z={z}", ok, {"verdict": cert.verdict, "order": cert.order})

    passed = sum(1 for it in items if it["ok"])
    report = {"pmax": args.pmax, "passed": passed, "total": len(items), "items": items}
    _emit(report, args)
    return EXIT_OK if passed == len(items) else EXIT_FAILED


# argparse takes "-5/4" after a space for an option flag, so negative fractions need "="
LAMBDA_HELP = "a/b, an integer, or a comma coefficient list over F_{p^k}; write a negative fraction as --lambda=-5/4"
Z_HELP = "a/b, an integer, or inf; write a negative fraction as --z=-5/4"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    parser = _Parser(prog="lattes", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("selfmap", _cmd_selfmap, help="the reduced [p]-map at lambda")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1, help="field degree of lambda")
    sp.add_argument("--lambda", dest="lam", required=True, help=LAMBDA_HELP)

    sp = add("orbit", _cmd_orbit, help="orbit and torsion report for one point")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", required=True, help=LAMBDA_HELP)
    sp.add_argument("--z", required=True, help=Z_HELP)
    sp.add_argument("--n", type=_int_in_range(0), default=0, help="iterate over F_{p^{2n}} (0: field of lambda)")

    sp = add("census", _cmd_census, help="periodicity census over P^1(F_{p^{2n}})")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", required=True, help=LAMBDA_HELP)
    sp.add_argument("--n", type=_int_in_range(1), default=1, help="census P^1(F_{p^{2n}}), n >= 1")
    sp.add_argument("--verdicts", action="store_true", help="include torsion-order verdict tallies")

    sp = add("supersingular-scan", _cmd_supersingular_scan, help="supersingular lambda in F_{p^2}")
    sp.add_argument("--p", type=int, required=True)

    sp = add("hasse-poly", _cmd_hasse_poly, help="the Deuring-Hasse polynomial over F_p")
    sp.add_argument("--p", type=int, required=True)

    sp = add("torsion-locus", _cmd_torsion_locus, help="Psi_m as an integer polynomial")
    sp.add_argument(
        "--m",
        type=_int_in_range(2, pvi.TORSION_LOCUS_BOUND, "TORSION_LOCUS_BOUND"),
        required=True,
        help=f"2 <= m <= {pvi.TORSION_LOCUS_BOUND}",
    )

    sp = add("pvi-check", _cmd_pvi_check, help="exact Painleve VI residual for Psi_m")
    sp.add_argument(
        "--m",
        type=_int_in_range(3, pvi.PVI_EXACT_BOUND, "PVI_EXACT_BOUND: beyond it the exact check takes about a minute"),
        required=True,
        help=f"3 <= m <= {pvi.PVI_EXACT_BOUND}; Psi_2 = x(x-1)(x-lambda) lies on the PVI singular locus",
    )

    sp = add("is-torsion", _cmd_is_torsion, help="certified torsion verdict for rational (lambda, z)")
    sp.add_argument("--lambda", dest="lam", required=True, help="a/b or an integer; write a negative fraction as --lambda=-5/4")
    sp.add_argument("--z", required=True, help=Z_HELP)
    sp.add_argument("--bound", type=_int_in_range(1), default=detect_mod.DEFAULT_BOUND, help="largest torsion order searched, >= 1")

    sp = add("verify-all", _cmd_verify_all, help="run the verification sweep")
    sp.add_argument(
        "--pmax", type=_int_in_range(3, 47, "the sweep's largest prime"), default=13, help="largest prime swept, 3 <= pmax <= 47"
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FieldError, CurveError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroDivisorFound, pvi.SingularSolution) as exc:
        # the parser admits no input that reaches these, so the verification failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
