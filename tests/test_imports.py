"""Every module of the package uses the names it imports, imports no
other module's private names, never turns the point tuples back into an
array, calls the dict constructors only in `serialize`, and never names
`linprog`, so `lpsearch.solve_lp` is the one LP entry."""

import ast
from pathlib import Path

import mwgap

PACKAGE = Path(mwgap.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import binds and the module never reads, skipping
    `__future__` imports and lines marked `# noqa: F401` (re-exports)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(name)
    return unused


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b  # noqa: F401\nfrom c import (\n    d,\n    e,\n)\nsys.exit(e)\n"
    assert unused_imports(source) == ["os", "d"]


def test_src_modules_use_every_import():
    assert SOURCES
    for path in SOURCES:
        assert unused_imports(path.read_text()) == [], path.name


def private_imports(source: str) -> list[str]:
    """The underscore names (not dunders) that the source imports from a
    module of the package, by a relative or an absolute `mwgap` import."""
    private = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mwgap"):
            private += [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
    return private


def test_private_imports_are_found():
    source = (
        "from .core import _points, edge_index\n"
        "from mwgap.dual import (\n    _search_graph,\n)\n"
        "from . import __version__\n"
        "from numpy import _core\n"
    )
    assert private_imports(source) == ["_points", "_search_graph"]


def test_src_modules_import_no_private_names():
    for path in sorted(PACKAGE.glob("*.py")):
        assert private_imports(path.read_text()) == [], path.name


def point_tuple_arrays(source: str) -> list[int]:
    """The lines that build an array from `enumerate_points`' tuples,
    `np.array(enumerate_points(...))` or `np.asarray(...)` of it, which
    `core.point_array` holds ready-made, by a bare or a module name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("array", "asarray") and node.args:
            inner = node.args[0]
            names = (getattr(getattr(inner, "func", None), a, None) for a in ("id", "attr"))
            if isinstance(inner, ast.Call) and "enumerate_points" in names:
                found.append(node.lineno)
    return found


def test_point_tuple_arrays_are_found():
    source = (
        "points = np.array(enumerate_points(3, n))\n"
        "x = numpy.asarray(core.enumerate_points(k, n), np.int64)\n"
        "ok = point_array(3, n)\n"
        "pts = enumerate_points(3, n)\n"
        "y = np.array(pts)\n"
    )
    assert point_tuple_arrays(source) == [1, 2]


def test_src_modules_never_array_the_point_tuples():
    for path in sorted(PACKAGE.glob("*.py")):
        assert point_tuple_arrays(path.read_text()) == [], path.name


def dict_constructor_calls(source: str) -> list[int]:
    """The lines that call a dict constructor, `WeightFunction(...)` or
    `Cut(...)`, by a bare or a module name; `from_numerators`, `from_array`
    and `__new__` are other calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("WeightFunction", "Cut"):
                found.append(node.lineno)
    return found


def test_dict_constructor_calls_are_found():
    source = (
        "w = WeightFunction(3, n, weights)\n"
        "P = core.Cut(3, n, labels, KWAY)\n"
        "v = WeightFunction.from_numerators(3, n, 1, u, v, nums)\n"
        "Q = Cut.from_array(3, n, labels)\n"
        "x = WeightFunction.__new__(WeightFunction)\n"
        "ok = isinstance(P, Cut)\n"
    )
    assert dict_constructor_calls(source) == [1, 2]


def test_only_serialize_calls_the_dict_constructors():
    for path in sorted(PACKAGE.glob("*.py")):
        calls = dict_constructor_calls(path.read_text())
        assert bool(calls) == (path.name == "serialize.py"), path.name


def linprog_names(source: str) -> list[int]:
    """The lines that name `linprog` in code: an import of it, a bare or a
    module name, or a call; docstrings and comments do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("linprog" in alias.name.split(".") for alias in node.names):
                found.append(node.lineno)
        elif getattr(node, "id", None) == "linprog" or getattr(node, "attr", None) == "linprog":
            found.append(node.lineno)
    return sorted(found)


def test_linprog_names_are_found():
    source = (
        "from scipy.optimize import linprog\n"
        "res = scipy.optimize.linprog(c)\n"
        'doc = "linprog"  # linprog\n'
        "from scipy.optimize import milp\n"
        "f = linprog\n"
        "import scipy.optimize.linprog\n"
    )
    assert linprog_names(source) == [1, 2, 5, 6]


def test_src_modules_never_name_linprog():
    for path in sorted(PACKAGE.glob("*.py")):
        assert linprog_names(path.read_text()) == [], path.name
