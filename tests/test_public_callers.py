"""Every exported name is declared once, in the module that defines it, has
a caller besides its own definition and tests, and every parameter with a
default is set by some caller.

The sources under src/ and scripts/ are read with `ast`; nothing there is
imported or executed.  A name counts as used where the code reads it (a
bare name or an attribute) outside its own definition.  The benchmark is
not read: a name that only the benchmark looks up by string is not
exported.  The package `__init__` only re-exports, so it is not read.  No
export is exempt: a reference implementation that only tests need lives in
the tests.  Likewise a parameter with a default that only tests set is a
second form of its function; the only exemptions are the entry points'
`main(argv)` and argparse's `Action.__call__(..., option_string)` protocol,
whose callers live outside the sources.
"""

import ast
import importlib
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


# the library modules; each declares its public names in a literal __all__
_LIBRARY = ("chrw", "dissipative", "errors", "floquet", "numerics", "resonance", "spectrum")


def _top_level(module):
    """(literal __all__ or None, names defined, names imported) at the top
    level of one library module."""
    path = ROOT / "src" / "bloch_siegert_lab" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exported, defined, imported = None, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined |= names
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return exported, defined, imported


def test_each_export_is_declared_once_where_it_is_defined():
    home = {}
    for module in _LIBRARY:
        exported, defined, imported = _top_level(module)
        assert exported is not None, f"{module} has no literal __all__"
        assert sorted(set(exported) - defined) == [], f"{module} exports names it does not define"
        assert sorted(set(exported) & imported) == [], f"{module} exports names it imports"
        twice = sorted(n for n in exported if n in home or exported.count(n) > 1)
        assert twice == [], f"{module} declares names declared already"
        home.update(dict.fromkeys(exported, module))
    assert sorted(bloch_siegert_lab.__all__) == sorted([*home, "__version__"])
    # each package name is the defining module's object; the star import of
    # spectrum binds the function over the submodule of that name
    for name, module in home.items():
        defining = importlib.import_module(f"bloch_siegert_lab.{module}")
        assert getattr(bloch_siegert_lab, name) is getattr(defining, name)


def test_every_export_has_a_caller():
    used = _used_names()
    assert sorted(set(bloch_siegert_lab.__all__) - used) == []


# (function name, parameter) set only from outside the sources
_ENTRY_POINTS = {("main", "argv"), ("__call__", "option_string")}


def _defaulted(tree):
    """(qualified name, function name, positional index or None, parameter)
    of every parameter with a default; the index counts from the first
    argument a caller passes, so a method's self is not counted."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                first = len(positional) - len(args.defaults)
                for k, arg in enumerate(positional[first:], start=first):
                    found.append((prefix + child.name, child.name, k - bound, arg.arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((prefix + child.name, child.name, None, arg.arg))
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def _calls(tree):
    """(called name, positional count, keywords) of every call; a starred
    argument counts as every position, a ** argument as every keyword."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        count = float("inf") if starred else len(node.args)
        keywords = {k.arg for k in node.keywords}
        found.append((name, count, keywords))
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    defaulted, calls = [], []
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defaulted += [(f"{path.stem}.{qual}", *rest) for qual, *rest in _defaulted(tree)]
        calls += _calls(tree)
    assert len(defaulted) >= 5  # the scan cannot pass vacuously

    def is_set(fname, index, param):
        return any(
            name == fname
            and (param in keywords or None in keywords or (index is not None and count > index))
            for name, count, keywords in calls
        )

    unset = sorted(
        f"{qual}.{param}"
        for qual, fname, index, param in defaulted
        if (fname, param) not in _ENTRY_POINTS and not is_set(fname, index, param)
    )
    assert unset == []


def test_public_set_is_pinned_and_covers_readme():
    # 51 names plus __version__, so a name dropped from its module's
    # __all__ fails here even where no test imports it from the package;
    # and every name README's Library example imports from the package
    # resolves there
    assert len(set(bloch_siegert_lab.__all__)) == len(bloch_siegert_lab.__all__) == 52
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "bloch_siegert_lab"
        for alias in node.names
    ]
    assert len(imported) >= 5  # the check cannot pass vacuously
    for name in imported:
        assert name in bloch_siegert_lab.__all__ and hasattr(bloch_siegert_lab, name), name
