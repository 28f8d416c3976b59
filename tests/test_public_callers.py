"""Every exported name has a caller besides its own definition and tests.

The sources under src/ and scripts/ are read with `ast`; nothing there is
imported or executed.  A name counts as used where the code reads it (a
bare name or an attribute) outside its own definition.  The benchmark is
not read: a name that only the benchmark looks up by string is not
exported.  The package `__init__` only re-exports, so it is not read.  No
export is exempt: a reference implementation that only tests need lives in
the tests.
"""

import ast
from pathlib import Path

import bloch_siegert_lab

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    pkg = ROOT / "src" / "bloch_siegert_lab"
    files = [f for f in sorted(pkg.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    assert len(files) >= 11, files  # the scan cannot pass vacuously
    return files


class _Uses(ast.NodeVisitor):
    """Names read in one module, skipping reads inside the definition that
    binds the same name (a recursive call or a self-reference)."""

    def __init__(self):
        self.used = set()
        self.inside = []

    def _definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self.inside:
            self.used.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _used_names():
    used = set()
    for path in _sources():
        visitor = _Uses()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        used |= visitor.used
    return used


def test_every_export_has_a_caller():
    used = _used_names()
    assert sorted(set(bloch_siegert_lab.__all__) - used) == []
