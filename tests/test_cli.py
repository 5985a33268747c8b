import json

import pytest

from lattes import pvi
from lattes.cli import EXIT_FAILED, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, build_parser, main
from lattes.poly import ZeroDivisorFound


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def test_selfmap_supersingular(capsys):
    code, data = run_json(["selfmap", "--p", "3", "--lambda", "2"], capsys)
    assert code == EXIT_OK
    assert data["schema"] == "1"
    assert data["p"] == 3
    assert data["supersingular"] is True
    assert data["generic_degree"] == 9
    assert data["reduced_degree"] == 9


def test_selfmap_bad_characteristic(capsys):
    code = main(["selfmap", "--p", "2", "--lambda", "1"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_orbit_documented_example(capsys):
    code, data = run_json(
        ["orbit", "--p", "5", "--lambda", "2", "--z", "3"], capsys
    )
    assert code == EXIT_OK
    assert data["period"] == 1
    assert data["tail"] == 0
    assert data["torsion_order"] == 4
    assert data["div_pf_minus_1"] is True
    assert data["equal_pf_minus_1"] is True


def test_orbit_infinity(capsys):
    code, data = run_json(
        ["orbit", "--p", "5", "--lambda", "2", "--z", "inf"], capsys
    )
    assert code == EXIT_OK
    assert data["torsion_order"] == 1


def test_census_supersingular(capsys):
    code, data = run_json(["census", "--p", "3", "--lambda", "2", "--n", "1"], capsys)
    assert code == EXIT_OK
    assert data["periodic"] == 10
    assert data["preperiodic"] == 0
    assert data["expected"] == 10


def test_census_with_verdicts(capsys):
    code, data = run_json(
        ["census", "--p", "5", "--lambda", "2", "--n", "1", "--verdicts"], capsys
    )
    assert code == EXIT_OK
    assert "verdicts" in data


def test_supersingular_scan(capsys):
    code, data = run_json(["supersingular-scan", "--p", "7"], capsys)
    assert code == EXIT_OK
    assert data["count"] == 3
    assert sorted(data["in_prime_field"]) == ["2", "4", "6"]


def test_hasse_poly(capsys):
    code, data = run_json(["hasse-poly", "--p", "5"], capsys)
    assert code == EXIT_OK
    assert data["degree"] == 2
    assert data["coefficients"] == [[1], [4], [1]]


def test_hasse_poly_rejects_even(capsys):
    code = main(["hasse-poly", "--p", "4"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_torsion_locus(capsys):
    code, data = run_json(["torsion-locus", "--m", "3"], capsys)
    assert code == EXIT_OK
    assert data["m"] == 3
    assert data["deg_x"] == 4


def test_pvi_check_is_deterministic(capsys):
    _, first = run(["pvi-check", "--m", "3"], capsys)
    _, second = run(["pvi-check", "--m", "3"], capsys)
    assert first == second


def test_pvi_check(capsys):
    code, data = run_json(["pvi-check", "--m", "3"], capsys)
    assert code == EXIT_OK
    assert data["residual_zero"] is True
    assert data["control_nonzero"] is True
    assert data["etale"] is True
    assert data["params"] == {"alpha": "0", "beta": "0", "gamma": "0", "delta": "1/2"}


def test_pvi_check_m5(capsys):
    code, data = run_json(["pvi-check", "--m", "5"], capsys)
    assert code == EXIT_OK
    assert data["m"] == 5
    assert data["residual_zero"] is True
    assert data["control_nonzero"] is True
    assert data["etale"] is True


def test_is_torsion_positive(capsys):
    code, data = run_json(["is-torsion", "--lambda", "27/32", "--z", "9/8"], capsys)
    assert code == EXIT_OK
    assert data["verdict"] == "torsion"
    assert data["order"] == 3


def test_is_torsion_negative_exit_code(capsys):
    code, data = run_json(["is-torsion", "--lambda", "2", "--z", "3"], capsys)
    assert code == EXIT_NEGATIVE
    assert data["verdict"] == "non-torsion"


def test_verify_all_small(capsys):
    code, data = run_json(["verify-all", "--pmax", "5"], capsys)
    assert code == EXIT_OK
    assert data["passed"] == data["total"] > 0


def test_verify_all_runs_the_pvi_control(capsys, monkeypatch):
    """A residual that vanished at every parameter tuple fails verify-all,
    as it fails pvi-check: the control (0, 0, 0, 0) must be nonzero."""
    monkeypatch.setattr(pvi, "pvi_residual", lambda cand, params: cand.ring.zero)
    code = main(["pvi-check", "--m", "3"])
    capsys.readouterr()
    assert code == EXIT_FAILED
    code, data = run_json(["verify-all", "--pmax", "3"], capsys)
    assert code == EXIT_FAILED
    failed = [it["item"] for it in data["items"] if not it["ok"]]
    assert failed == ["pvi-residual m=3", "pvi-residual m=4"]


def test_text_format(capsys):
    code, out = run(["hasse-poly", "--p", "3", "--format", "text"], capsys)
    assert code == EXIT_OK
    assert "degree: 1" in out
    assert "schema" in out


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out = run(["hasse-poly", "--p", "3", "--out", str(dest)], capsys)
    assert code == EXIT_OK
    assert out == ""  # nothing on stdout
    data = json.loads(dest.read_text())
    assert data["p"] == 3


def test_determinism(capsys):
    _, first = run(["supersingular-scan", "--p", "13"], capsys)
    _, second = run(["supersingular-scan", "--p", "13"], capsys)
    assert first == second


def test_usage_error_exit(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["selfmap"])  # missing required flags
    capsys.readouterr()
    assert ei.value.code == EXIT_USAGE


def usage_error(argv, capsys):
    """The exit code and stderr of a command the parser must refuse."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    err = capsys.readouterr().err
    return ei.value.code, err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["census", "--p", "3", "--lambda", "2", "--n", "0"], "--n"),
        (["census", "--p", "3", "--lambda", "2", "--n", "-1"], "--n"),
        (["orbit", "--p", "5", "--lambda", "2", "--z", "3", "--n", "-1"], "--n"),
        (["is-torsion", "--lambda", "2", "--z", "3", "--bound", "0"], "--bound"),
        (["is-torsion", "--lambda", "2", "--z", "3", "--bound", "-5"], "--bound"),
        (["pvi-check", "--m", "2"], "--m"),
        (["torsion-locus", "--m", "1"], "--m"),
        (["verify-all", "--pmax", "-5"], "--pmax"),
        (["verify-all", "--pmax", "2"], "--pmax"),
        (["verify-all", "--pmax", "48"], "--pmax"),
    ],
)
def test_parser_rejects_out_of_range_counts(argv, flag, capsys):
    code, err = usage_error(argv, capsys)
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["pvi-check", "--m", str(pvi.PVI_EXACT_BOUND + 1)], "PVI_EXACT_BOUND"),
        (["pvi-check", "--m", "12"], "PVI_EXACT_BOUND"),
        (["torsion-locus", "--m", "13"], "TORSION_LOCUS_BOUND"),
    ],
)
def test_parser_names_the_upper_bound(argv, bound, capsys):
    code, err = usage_error(argv, capsys)
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and bound in err


@pytest.mark.parametrize("exc", [ZeroDivisorFound("x"), pvi.SingularSolution("x is identically 0")])
def test_pvi_failures_are_one_line_errors(exc, monkeypatch, capsys):
    def fail(_):
        raise exc

    monkeypatch.setattr(pvi, "implicit_derivatives", fail)
    code = main(["pvi-check", "--m", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_FAILED
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_parser_is_reused_without_leaking_options(tmp_path, capsys):
    assert build_parser() is build_parser()
    dest = tmp_path / "report.txt"
    code, out = run(["hasse-poly", "--p", "3", "--out", str(dest), "--format", "text"], capsys)
    assert code == EXIT_OK and out == "" and "degree: 1" in dest.read_text()
    # neither --out nor --format carries over to the next call
    code, data = run_json(["hasse-poly", "--p", "5"], capsys)
    assert code == EXIT_OK and data["degree"] == 2
    _, data = run_json(["census", "--p", "5", "--lambda", "2", "--verdicts"], capsys)
    assert "verdicts" in data
    _, data = run_json(["census", "--p", "5", "--lambda", "2"], capsys)
    assert "verdicts" not in data
    _, data = run_json(["torsion-locus", "--m", "3"], capsys)
    assert data["deg_x"] == 4
    for argv in (["--help"], ["census", "--help"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 0
        assert "usage: lattes" in capsys.readouterr().out
    code, data = run_json(["hasse-poly", "--p", "3"], capsys)
    assert code == EXIT_OK and data["degree"] == 1


def test_selfmap_rejects_coefficient_list_over_prime_field(capsys):
    code = main(["selfmap", "--p", "3", "--lambda", "1,0,0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_negative_fraction_needs_equals_sign(capsys):
    _, data = run_json(["is-torsion", "--lambda", "2", "--z=-5/4", "--bound", "4"], capsys)
    assert data["z"] == "-5/4"
    code, _ = usage_error(["is-torsion", "--lambda", "2", "--z", "-5/4"], capsys)
    assert code == EXIT_USAGE
