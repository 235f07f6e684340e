"""Every name a `pwldyn` module imports is used there, so a deletion cannot
leave a dead import behind, and every module it imports is in the standard
library or in `pwldyn`, so the package keeps zero runtime dependencies.
Only the standard library's `ast` reads the sources; `from __future__`
imports and the names a module re-exports in `__all__` do not count as
unused."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pwldyn"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)  # a quoted annotation such as -> "IntegerFrame"
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_import_no_unused_name():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 11
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), str(p))) for p in paths}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse('from __future__ import annotations\nimport re\nfrom math import gcd, lcm\n'
                     'import os.path\n__all__ = ["lcm"]\n\ndef f(x) -> "Fraction":\n    return gcd(x, 2)\n')
    assert _unused_imports(tree) == ["line 2: re", "line 4: os"]


def _foreign_imports(tree: ast.Module) -> list[str]:
    """Top-level modules imported anywhere in `tree` that are neither in the
    standard library nor `pwldyn`; a relative import stays in the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names - {"pwldyn"})


def test_modules_import_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 11
    foreign = {p.name: _foreign_imports(ast.parse(p.read_text(), str(p))) for p in paths}
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse('from __future__ import annotations\nimport os.path\nfrom fractions import Fraction\n'
                     'from pwldyn.polys import IntPoly\nfrom . import markov\n\n'
                     'def f():\n    import mpmath.libmp\n    from numpy import array\n')
    assert _foreign_imports(tree) == ["mpmath", "numpy"]


ROOT = SRC.parents[1]


def _public_definitions(tree: ast.Module) -> list[str]:
    """The public functions and classes a module defines at its top level,
    and the public methods of its classes, as "name" or "Class.method"."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs):
            if not node.name.startswith("_"):
                out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, defs[:2]) and not item.name.startswith("_")]
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name, attribute, imported name and identifier string in `tree`;
    a string counts since `getattr` reaches a method by one."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def _unreferenced(defined: list[str], refs: set[str]) -> list[str]:
    return sorted(name for name in defined if name.rsplit(".", 1)[-1] not in refs)


def test_public_names_are_used_by_the_product():
    """Every public function, class and method of `pwldyn` is reached from
    the package itself (not counting `__init__.py`'s re-exports), from the
    benchmark harness or from the acceptance suite: nothing public serves
    the unit tests alone."""
    users = [*(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"),
             *sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    assert len(users) >= 15
    refs = set().union(*(_references(ast.parse(p.read_text(), str(p))) for p in users))
    defined = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
               for name in _public_definitions(ast.parse(p.read_text(), str(p)))]
    assert len(defined) >= 100
    assert _unreferenced(defined, refs) == []


def test_the_guard_sees_an_unreferenced_public_name():
    module = ast.parse('class C:\n    def used(self): ...\n    def unused(self): ...\n    def by_name(self): ...\n'
                       '    def _private(self): ...\n\nclass _Hidden:\n    def orphan(self): ...\n\n'
                       'def f(): ...\ndef g(): ...\ndef _h(): ...\n')
    user = ast.parse('from m import f\nimport m.C\nC().used()\ngetattr(C(), "by_name")\n"not an identifier"\n')
    defined = _public_definitions(module)
    assert defined == ["C", "C.used", "C.unused", "C.by_name", "_Hidden.orphan", "f", "g"]
    assert _unreferenced(defined, _references(user)) == ["C.unused", "_Hidden.orphan", "g"]
