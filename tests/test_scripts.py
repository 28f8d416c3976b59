"""Smoke runs of the experiment scripts at small sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("population_peak_scan", ["--points", "21", "--amps", "0.1"]),
        ("spectrum_panel", ["--points", "201"]),
        # the default probe window must stay above nu = 0 at strong drive
        ("spectrum_panel", ["--amplitude", "1", "--points", "201"]),
    ],
)
def test_script_writes_csv(name, argv, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert _load(name).main(argv + ["--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) > 1
    assert "wrote" in capsys.readouterr().out
