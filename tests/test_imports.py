"""Start-up cost: importing the package loads no scipy subpackage it can skip."""

import os
import subprocess
import sys
from pathlib import Path

import bloch_siegert_lab


def test_import_leaves_integrate_and_optimize_unloaded():
    # the root finder is the package's own Brent and scipy.integrate is
    # imported only where an oracle needs it, so neither pays at start-up
    src = str(Path(bloch_siegert_lab.__file__).resolve().parent.parent)
    code = (
        "import sys, bloch_siegert_lab; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
