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


def private_attributes(source: str) -> list[str]:
    """Every x._name attribute access where x is not self or cls: another
    object's or module's private name."""
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and _private(node.attr)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls"))]


def test_guard_sees_private_attributes():
    src = ("def f(engine, grid):\n"
           "    return engine._box, grid.operator._shape, sla._impl.f()\n"
           "class A:\n    def g(self, other):\n"
           "        return self._x + other._y + type(self)._z\n")
    assert sorted(hit.split(": ")[1] for hit in private_attributes(src)) == [
        "engine._box", "grid.operator._shape", "other._y", "sla._impl",
        "type(self)._z"]
    assert private_attributes("class A:\n    def f(self):\n"
                              "        return self._x, cls._y, x.__class__\n") == []


def test_no_module_reads_private_attributes():
    offenders = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
                 if (hits := private_attributes(path.read_text(encoding="utf-8")))}
    assert offenders == {}


#: module-level imports kept on purpose although the module never reads them:
#: the traced benchmark (perfbench/layers.py) replaces grid.spla to count
#: factorizations; drop the entry when the benchmark stops hooking it
UNUSED_ALLOWED = {("grid.py", "spla")}


def unused_imports(source: str) -> dict[str, int]:
    """Every name bound by a module-level import that the module never reads
    (`from __future__` imports excepted), with its line."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_guard_sees_unused_imports():
    src = ("from __future__ import annotations\n"
           "import math\nimport scipy.sparse.linalg as spla\n"
           "from scipy.integrate import quad\nimport os.path\n"
           "from .core import FracParams as FP, gamma_map\n"
           "def f(x: FP):\n    import json\n    return os.path.join(spla.norm(x))\n")
    assert unused_imports(src) == {"math": 2, "quad": 4, "gamma_map": 6}
    assert unused_imports("import numpy as np\nx = np.zeros(1)\n") == {}


def test_every_module_import_is_used():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        hits = {name: line for name, line
                in unused_imports(path.read_text(encoding="utf-8")).items()
                if (path.name, name) not in UNUSED_ALLOWED}
        if hits:
            offenders[path.name] = hits
    assert offenders == {}


def unread_private_names(source: str) -> dict[str, int]:
    """Every private module-level function, class or constant that the module
    itself never reads, with its line."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target])
                       if isinstance(t, ast.Name)]
        else:
            continue
        defined.update({name: node.lineno for name in targets if _private(name)})
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {name: line for name, line in defined.items() if name not in read}


def test_guard_sees_unread_private_names():
    src = ("_LIMIT = 4000\n_SEED: int = 1\n_USED = 2\n__version__ = '1'\n"
           "def _helper():\n    return _USED\n"
           "class _Box:\n    pass\n"
           "def public():\n    _local = 3\n    return _helper()\n")
    assert unread_private_names(src) == {"_LIMIT": 1, "_SEED": 2, "_Box": 7}
    assert unread_private_names("def _f():\n    pass\nx = [_f]\n") == {}


def test_every_private_name_is_read_in_its_module():
    offenders = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
                 if (hits := unread_private_names(path.read_text(encoding="utf-8")))}
    assert offenders == {}
