"""Every call-like name that README.md shows in backticks, `name(` or
`Obj.name(`, is defined in the package or the tests, so a deleted or
renamed function cannot stay in the docs."""

import ast
import re
from pathlib import Path

import numpy as np

import mwgap

PACKAGE = Path(mwgap.__file__).parent
README = PACKAGE.parents[1] / "README.md"
TESTS = Path(__file__).parent
CALL = re.compile(r"`((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)\(")


def definitions(paths) -> tuple[set[str], dict[str, set[str]]]:
    """(names, members): every function, class and assigned name at module
    level or in a class body, and each module's and class's own names."""
    names, members = set(), {}
    for path in paths:
        tree = ast.parse(path.read_text())
        scopes = [(path.stem, tree)] + [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope, node in scopes:
            own = members.setdefault(scope, set())
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    own.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    own.update(t.id for t in targets if isinstance(t, ast.Name))
            names |= own
    return names, members


def unresolved(text: str, names: set[str], members: dict[str, set[str]]) -> list[str]:
    """The backticked calls in text whose name is not defined: a qualified
    `Obj.name(` must be a member of the module or class Obj, or of numpy
    for `np.`, and a bare `name(` anything defined."""
    missing = []
    for call in CALL.findall(text):
        *qualifier, name = call.split(".")
        if not qualifier:
            ok = name in names
        elif qualifier[-1] == "np":
            ok = hasattr(np, name)
        else:
            ok = name in members.get(qualifier[-1], ())
        if not ok:
            missing.append(call)
    return missing


def test_unresolved_calls_are_found():
    names, members = definitions([Path(__file__)])
    text = "`definitions(paths)`, `test_readme.unresolved(`, `np.where(a)`, `gone(`, `np.gone(`, `CALL.sub(`, `x.y`"
    assert unresolved(text, names, members) == ["gone", "np.gone", "CALL.sub"]


def test_readme_calls_name_defined_functions():
    names, members = definitions([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    calls = CALL.findall(README.read_text())
    assert "WeightFunction.from_numerators" in calls and "np.where" in calls
    assert unresolved(README.read_text(), names, members) == []
