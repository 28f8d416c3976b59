"""Golden outputs: every pinned `bsl` command line's stdout, stderr and exit
code, one file each under tests/golden/.

The test runs `cli.main` in process and compares the rendered bytes with the
file.  The files were written with the numpy, scipy and Python versions in
tests/golden/VERSIONS; on those versions the compare is exact.  On any other
version it compares cell by cell: the text between numbers must match
exactly, and each number may differ by one unit in its ninth significant
digit, the CLI's printed precision.  A failure there names both sets of
versions.

After a change that is meant to move output, rewrite every file (and
VERSIONS) with

    PYTHONPATH=src python tests/test_golden.py

and list the files that changed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from bloch_siegert_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = (
    "shift-table",
    "shift-table --A-range 0.5:100:0.5",
    "shift-table --A 0",
    "shift-table --A 1e-40",
    "shift-table --A 1",
    "shift-table --A 1e308",
    "shift-sweep",
    "shift-sweep --method chrw --A-range 0.5:30:0.5",
    "shift-sweep --A 0",
    "shift-sweep --A-range 0.5:1:0.5 --format tsv",
    "population",
    "population --A 0 --omega-range 0.99:1.01:0.005",
    "population --A 6 --omega-range 0.95:1.05:0.001",
    "population --mode rwa --A 0.3",
    "population --kappa 0.01 --A 0.5",
    "population --A 2 --kappa 0.01",
    "population --A 0.001 --omega-range 0.999:1.001:0.001",
    "spectrum",
    "spectrum --A 0.4",
    "spectrum --A 1",
    "spectrum --kappa 0.01 --A 0.4 --mode rwa",
    "spectrum --A 1e-5 --kappa 1e-12",
    "spectrum --A 1e-3",
    "validate --quick",
    "validate",
    # exit 2: a flag's converter refuses its value
    "shift-table --A nan",
    # exit 2: argparse refuses the command line itself
    "shift-table --A 1 --A-range 1:2:0.5",
    "validate --floquet-N -1",
    # exit 2: a given value breaks its flag's rule once divided by --omega0
    "spectrum --omega 1e-300 --omega0 1e300",
    # exit 2: the default probe window is empty
    "spectrum --A 0",
    # exit 2: --out cannot be written
    "shift-table --A 1 --out /nonexistent/table.csv",
    # exit 1: a numerical failure
    "spectrum --nu-range 5:6:0.5 --n-max 1",
)


def versions() -> str:
    return (
        f"python {sys.version_info.major}.{sys.version_info.minor}\n"
        f"numpy {np.__version__}\n"
        f"scipy {scipy.__version__}\n"
    )


def file_name(command: str) -> str:
    return re.sub(r"[^\w.\-]+", "_", command).strip("_") + ".txt"


def render(command: str) -> str:
    """The command line, its exit code, stdout and stderr as one text.

    Runs with a fixed terminal width, so argparse's usage lines do not
    depend on the terminal, and with every warning an error, so a warning
    that a fresh process would print cannot pass unseen.
    """
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "100"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(shlex.split(command))
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return f"$ bsl {command}\n==> exit {code}\n==> stdout\n{out.getvalue()}==> stderr\n{err.getvalue()}"


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _ninth_digit_mismatches(expected: str, actual: str) -> list:
    """Cells that differ by more than one unit in the ninth significant
    digit, or text that differs at all, as (expected, actual) pairs."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return [("a different number of cells", "")]
    bad = []
    # split with one group: text at even positions, numbers at odd ones
    for k, (a, b) in enumerate(zip(want, got)):
        if a == b:
            continue
        if k % 2 == 0:
            bad.append((a, b))
            continue
        x, y = float(a), float(b)
        size = max(abs(x), abs(y))
        unit = 10.0 ** (math.floor(math.log10(size)) - 8) if size > 0.0 else 0.0
        if not abs(x - y) <= unit * (1.0 + 1e-6):
            bad.append((a, b))
    return bad


def test_every_file_is_a_case():
    names = [file_name(c) for c in CASES]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("command", CASES)
def test_output_matches_golden_file(command):
    expected = (GOLDEN / file_name(command)).read_text(encoding="utf-8")
    actual = render(command)
    recorded = (GOLDEN / "VERSIONS").read_text(encoding="utf-8")
    if recorded == versions():
        assert actual == expected
        return
    bad = _ninth_digit_mismatches(expected, actual)
    assert not bad, (
        f"recorded with {recorded.strip()!r}, run with {versions().strip()!r}; "
        f"first differences beyond the ninth digit: {bad[:5]}"
    )


def test_ninth_digit_compare():
    assert not _ninth_digit_mismatches("a,0.0632237237,x", "a,0.0632237238,x")
    assert _ninth_digit_mismatches("a,0.0632237237,x", "a,0.0632237239,x")
    assert _ninth_digit_mismatches("a,0.0632237237,x", "b,0.0632237237,x")
    assert _ninth_digit_mismatches("1,2", "1,2,3")


if __name__ == "__main__":
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / file_name(case)).write_text(render(case), encoding="utf-8", newline="\n")
    (GOLDEN / "VERSIONS").write_text(versions(), encoding="utf-8", newline="\n")
    print(f"wrote {len(CASES)} files and VERSIONS under {GOLDEN.name}/")
