"""Start-up cost: importing the package loads no scipy subpackage it can
skip, and no module imports a name it never reads."""

import ast
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


def test_linalg_loaded_only_by_the_parity_chain():
    # dstebz and dstein are looked up when floquet._chain builds a chain, so
    # neither the import nor a population or a spectrum loads scipy.linalg;
    # a Floquet shift does, which keeps the check from passing vacuously
    unloaded = "assert 'scipy.linalg' not in sys.modules; "
    statement = (
        "import numpy as np; import bloch_siegert_lab as b; " + unloaded
        + "p = b.ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3); "
        "f = b.build_frame(p); b.population_avg(f, p, b.rates(f, p)); " + unloaded
        + "b.spectrum(p, np.linspace(0.9, 1.1, 21)); " + unloaded
        + "b.bs_floquet_numeric(1.0, 1.0)"
    )
    assert _loaded_after(statement, ("scipy.linalg",)) == "['scipy.linalg']"


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


def _unused_imports(path):
    # module-level imports whose bound name the module never reads
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_module_imports():
    # the package `__init__` only re-exports, so it is not read
    pkg = Path(bloch_siegert_lab.__file__).resolve().parent
    files = [f for f in sorted(pkg.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((pkg.parent.parent / "scripts").glob("*.py"))
    assert len(files) >= 10, files  # the scan cannot pass vacuously
    assert [u for f in files for u in _unused_imports(f)] == []
