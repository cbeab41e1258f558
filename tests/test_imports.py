"""Package layout rules that no behavioural test sees."""

import ast
import os
import pathlib
import subprocess
import sys
import types

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


def test_import_loads_no_scipy_integrate_or_optimize():
    # start-up cost: together they took 0.2-0.3 s of every command's launch
    code = ("import sys, fracseg, fracseg.cli\n"
            "loaded = {'scipy.integrate', 'scipy.optimize'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


#: every public name `import fracseg` binds, each re-exported from the
#: module that defines it
EXPORTS = {
    "FracParams", "NamedSolution", "comparison_f", "eval_solution", "gamma_inverse",
    "gamma_map", "ConfigurationError", "ConvergenceError", "BoundaryData", "Field",
    "GridConfig", "HalfSpaceGrid", "assemble_La", "build_grid", "dtn_trace",
    "field_from_function", "interpolate_field", "read_snapshot", "solve_linear",
    "write_snapshot", "MonotonicityReport", "RadialProfile", "acf_one_phase", "almgren",
    "holder_seminorm", "log_derivative_residual", "monotonicity_check",
    "pohozaev_residual", "trace_seminorm", "ComparisonProfile", "PeriodicGrid1D",
    "PVResult", "comparison_pv", "frac_lap_pv", "frac_lap_symbol", "EquatorRegion",
    "HemisphereMesh", "lambda1", "lambda1_codim1", "nu_acf_caps", "CompetitionProblem",
    "SolveResult", "solve_system", "sweep_beta", "trace_overlap",
}


def test_package_exports_exactly_its_public_names():
    import fracseg

    public = {name for name, value in vars(fracseg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    for name in EXPORTS:
        value = getattr(fracseg, name)
        assert value.__module__.startswith("fracseg.")
        assert getattr(sys.modules[value.__module__], name) is value


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


def imports_of(module: str, source: str) -> list[str]:
    """Every import, at any depth, of module or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names
                  if n == module or n.startswith(module + ".")]
    return found


def test_guard_sees_ctypes_imports():
    src = ("import ctypes\nfrom ctypes import CDLL\n"
           "def f():\n    import ctypes.util, os\n")
    assert len(imports_of("ctypes", src)) == 3
    assert imports_of("ctypes", "import ctypeslib\nfrom . import ctypes\n"
                                "from .grid import one_blas_thread\n") == []


def test_only_grid_imports_ctypes():
    # the process controls (OpenBLAS threads, heap thresholds) have one home
    # and one foreign-function lookup, grid._c_function
    offenders = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
                 if (hits := imports_of("ctypes", path.read_text(encoding="utf-8")))}
    assert list(offenders) == ["grid.py"]


def number_formats(source: str) -> list[str]:
    """Every string constant, f-string format specs included, that holds the
    CSV number format .12g, with its line."""
    return [f"line {node.lineno}: {node.value!r}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".12g" in node.value]


def test_guard_sees_number_formats():
    src = ("a = format(v, '.12g')\nb = f'{v:.12g},{w}'\nc = '%.12g' % v\n"
           "d = '{:.12g}'.format(v)\n")
    assert sorted(hit.split(":")[0] for hit in number_formats(src)) == [
        "line 1", "line 2", "line 3", "line 4"]
    assert number_formats("a = f'{v:.3e}'\nb = format(v, '.12e')\n"
                          "c = 12 * g\n") == []


def test_only_cli_formats_numbers():
    # the CLI owns the text formats: one writer, cli._csv, formats every table
    offenders = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
                 if (hits := number_formats(path.read_text(encoding="utf-8")))}
    assert list(offenders) == ["cli.py"]


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
#: factorizations and sphere.spla to count ARPACK calls, which the
#: hemisphere eigensolver no longer makes; drop each entry when the
#: benchmark stops hooking it
UNUSED_ALLOWED = {("grid.py", "spla"), ("sphere.py", "spla")}


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


def module_level_names(source: str) -> dict[str, int]:
    """Every module-level function, class or constant, with its line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target])
                       if isinstance(t, ast.Name)]
        else:
            continue
        defined.update({name: node.lineno for name in targets})
    return defined


def unread_private_names(source: str) -> dict[str, int]:
    """Every private module-level function, class or constant that the module
    itself never reads, with its line."""
    read = {n.id for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {name: line for name, line in module_level_names(source).items()
            if _private(name) and name not in read}


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


#: public module-level names kept on purpose although no package module
#: outside __init__ and nothing under perfbench/ reads them
UNREAD_PUBLIC_ALLOWED = set()


def read_names(source: str) -> set[str]:
    """Every name a module reads: loaded names and attributes, names it
    imports, and string constants (the traced benchmark patches functions
    by their name, `tr.patch(cli, "main", ...)`)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_public_names(modules: dict[str, str], readers: list[str]) -> dict:
    """Every public name of the given {file name: source} modules that none
    of the reader sources reads, as {file name: {name: line}}."""
    read = set().union(*(read_names(src) for src in readers))
    found = {}
    for name, source in modules.items():
        hits = {n: line for n, line in module_level_names(source).items()
                if not n.startswith("_") and n not in read
                and (name, n) not in UNREAD_PUBLIC_ALLOWED}
        if hits:
            found[name] = hits
    return found


def test_guard_sees_unread_public_names(monkeypatch):
    mod = ("LIMIT = 4\nTAGS: tuple = ()\n_PRIVATE = 1\n"
           "def used():\n    return 1\n"
           "def hooked():\n    pass\n"
           "class Box:\n    pass\n"
           "def dtn_exact():\n    pass\n")
    readers = [mod, "from .m import used\nx = m.LIMIT + used()\n",
               "patch(m, 'hooked')\n"]
    assert unread_public_names({"m.py": mod}, readers) == {
        "m.py": {"TAGS": 2, "Box": 8, "dtn_exact": 10}}
    # an allowed name is skipped in its own module only
    monkeypatch.setitem(globals(), "UNREAD_PUBLIC_ALLOWED", {("core.py", "dtn_exact")})
    assert unread_public_names({"core.py": mod}, readers) == {
        "core.py": {"TAGS": 2, "Box": 8}}


def test_every_public_name_is_read_outside_tests():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}  # re-exports the public names
    bench = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
    assert bench
    readers = list(sources.values()) + [p.read_text(encoding="utf-8")
                                        for p in bench]
    assert unread_public_names(sources, readers) == {}


def class_members(source: str) -> dict[str, int]:
    """Every public method, property and annotated field of the module-level
    classes, as {"Class.member": line}."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                found[f"{node.name}.{name}"] = item.lineno
    return found


def read_member_names(source: str) -> set[str]:
    """read_names plus every keyword argument name: a field set by keyword
    at construction is in use."""
    return read_names(source) | {n.arg for n in ast.walk(ast.parse(source))
                                 if isinstance(n, ast.keyword) and n.arg}


def unread_class_members(modules: dict[str, str], readers: list[str]) -> dict:
    """Every public class member of the given {file name: source} modules
    whose name none of the reader sources reads, as {file name: {member: line}}."""
    read = set().union(*(read_member_names(src) for src in readers))
    found = {}
    for name, source in modules.items():
        hits = {m: line for m, line in class_members(source).items()
                if m.split(".", 1)[1] not in read}
        if hits:
            found[name] = hits
    return found


def test_guard_sees_unread_class_members():
    mod = ("class A:\n    x: int = 0\n    y: float = 1.0\n    _p: int = 2\n"
           "    z = 3\n"
           "    def used(self):\n        return self.x\n"
           "    @property\n    def prop(self):\n        return 1\n"
           "    def hooked(self):\n        pass\n"
           "    def __call__(self):\n        pass\n"
           "class B:\n    w: int\n")
    readers = [mod, "A(y=2.0).used()\n", "patch(A, 'hooked')\n"]
    assert unread_class_members({"m.py": mod}, readers) == {
        "m.py": {"A.prop": 9, "B.w": 16}}
    assert unread_class_members({"m.py": mod}, readers + ["b.w + a.prop\n"]) == {}


def test_every_class_member_is_read_outside_tests():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    bench = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
    assert bench and any(class_members(src) for src in sources.values())
    readers = list(sources.values()) + [p.read_text(encoding="utf-8")
                                        for p in bench]
    assert unread_class_members(sources, readers) == {}
