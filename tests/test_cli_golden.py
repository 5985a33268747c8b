"""CLI output pinned byte for byte: each command's stdout and exit code must
equal the file under tests/golden/ that was captured from an earlier
version.  A refactor that changes any JSON byte fails here.

To re-capture after a deliberate output change:
    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import pathlib
import re
import sys

import pytest

from lattes.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# (command line, exit code): the README examples except the slow
# `verify-all --pmax 13`, plus an extension-field census with verdicts, an
# orbit over a larger field, a short sweep and the PVI check at m = 3, 4
COMMANDS = [
    ("selfmap --p 3 --lambda 2", 0),
    ("orbit --p 5 --lambda 2 --z 3", 0),
    ("census --p 3 --lambda 2 --n 1", 0),
    ("supersingular-scan --p 13", 0),
    ("hasse-poly --p 7", 0),
    ("torsion-locus --m 3", 0),
    ("is-torsion --lambda 27/32 --z 9/8", 0),
    ("census --p 3 --k 2 --lambda 1,1 --n 2 --verdicts", 0),
    ("orbit --p 5 --lambda 2 --z 3 --n 2", 0),
    ("verify-all --pmax 5", 0),
    ("pvi-check --m 3", 0),
    ("pvi-check --m 4", 0),
]


def _path(command: str) -> pathlib.Path:
    return GOLDEN / (re.sub(r"[^0-9A-Za-z]+", "_", command).strip("_") + ".json")


def _run(command: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return code, out.getvalue()


@pytest.mark.parametrize("command,exit_code", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_cli_output_matches_golden(command, exit_code):
    code, out = _run(command)
    assert code == exit_code
    assert out == _path(command).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command, exit_code in COMMANDS:
        code, out = _run(command)
        if code != exit_code:
            sys.exit(f"{command}: exit {code}, expected {exit_code}")
        _path(command).write_text(out)
