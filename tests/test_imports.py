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
