"""Package layout rules that no behavioural test sees."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracseg"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Every imported name or dotted module part that starts with a single
    underscore: another module's private name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if _private(n)]
    return found


def test_guard_sees_private_imports():
    src = ("from .grid import _free_block\n"
           "import scipy._lib\n"
           "def f():\n    from .grid import Field, _pow_integral\n")
    assert len(private_imports(src)) == 3
    assert private_imports("from __future__ import annotations\n"
                           "from .grid import Field\nimport numpy.linalg\n") == []


def test_no_module_imports_private_names():
    assert (PACKAGE / "grid.py").is_file()
    offenders = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
                 if (hits := private_imports(path.read_text(encoding="utf-8")))}
    assert offenders == {}
