"""The benchmark looks package functions up by name; each name must resolve.

`bench/tracer.py` wraps every function its LAYERS table names, and
`bench/workloads.py` calls the shift methods through `_SHIFT_FUNCS`.  A
deleted or renamed name would otherwise pass these tests and break only
`bench/run.py --trace 1`.  Both tables are read from the source with `ast`,
so nothing under bench/ is imported or executed.
"""

import ast
import importlib
from pathlib import Path

import bloch_siegert_lab

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module_constant(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def test_benchmark_lookups_resolve():
    layers = _module_constant(BENCH / "tracer.py", "LAYERS")
    traced = [(layer, fname) for layer, functions in layers.items() for fname in functions]
    missing = [
        f"{layer}.{fname}"
        for layer, fname in traced
        if not callable(getattr(importlib.import_module(f"bloch_siegert_lab.{layer}"), fname, None))
    ]
    shift_funcs = _module_constant(BENCH / "workloads.py", "_SHIFT_FUNCS")
    missing += [f for f in shift_funcs.values() if not callable(getattr(bloch_siegert_lab, f, None))]
    # non-empty tables, so the check cannot pass vacuously
    assert len(traced) >= 20 and len(shift_funcs) == 5
    assert missing == []
