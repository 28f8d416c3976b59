"""Start-up cost: importing the package loads no scipy subpackage it can skip."""

import os
import subprocess
import sys
from pathlib import Path

import bloch_siegert_lab


def _loaded_after(statement, modules):
    # which of modules a fresh interpreter has loaded once it has run statement
    src = str(Path(bloch_siegert_lab.__file__).resolve().parent.parent)
    code = f"import sys; {statement}; print(sorted(m for m in {modules!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_import_leaves_integrate_and_optimize_unloaded():
    # the root finder is the package's own Brent and scipy.integrate is
    # imported only where an oracle needs it, so neither pays at start-up
    loaded = _loaded_after("import bloch_siegert_lab", ("scipy.integrate", "scipy.optimize"))
    assert loaded == "[]"


def test_import_leaves_cli_and_validation_unloaded():
    # the check registry and the command line are loaded by `bsl` only
    modules = ("bloch_siegert_lab.cli", "bloch_siegert_lab.validation")
    assert _loaded_after("import bloch_siegert_lab", modules) == "[]"


def test_check_registry_leaves_integrate_and_optimize_unloaded():
    # every check of `bsl validate` runs on the package's own solvers, so
    # the command pays for neither subpackage
    statement = (
        "from bloch_siegert_lab import validation; "
        "results = [check() for _, check in validation.checks()]; "
        "assert all(r.ok for r in results)"
    )
    assert _loaded_after(statement, ("scipy.integrate", "scipy.optimize")) == "[]"
