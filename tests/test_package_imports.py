"""No module of the package imports a private (underscore) name from a sibling."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "teamsearch"


def private_imports(source: str) -> list[str]:
    """``module:name`` for each underscore name a relative or package import takes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "teamsearch"
        ):
            found += [f"{node.module}:{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_check_flags_private_sibling_imports():
    assert private_imports("from .simulate import Phase, _run") == ["simulate:_run"]
    assert private_imports("from teamsearch.costs import _check_sigma") == ["teamsearch.costs:_check_sigma"]
    assert private_imports("from math import _x\nfrom .welfare import Phase") == []


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: private_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_each_memo_is_built_by_its_owner():
    # The equilibrium and the planner each build the profile memo their
    # schedules or chains share; the CLI builds one only for `solve`, and the
    # scan reads no solver or memo itself.
    def builds(node) -> int:
        return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "ProfileCache" for n in ast.walk(node))

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, tree in trees.items() if builds(tree)} == {
        "equilibrium.py", "planner.py", "cli.py"}
    assert builds(trees["cli.py"]) == 1
    assert [f.name for f in trees["cli.py"].body
            if isinstance(f, ast.FunctionDef) and builds(f)] == ["cmd_solve"]
    assert not [node.module for node in ast.walk(trees["scan.py"])
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scopes")]


def unused_imports(source: str) -> list[str]:
    """Names that an import in ``source`` binds and that no other node reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_check_flags_unused_imports():
    assert unused_imports("import numpy as np\nfrom .costs import A, B\nA(np)") == ["B"]
    assert unused_imports("import os.path\nos.path.join('a')") == []
    assert unused_imports("from __future__ import annotations\nimport math\n"
                          "def f(x: math.inf): pass") == []


def test_every_import_is_used():
    # __init__.py imports to re-export; every other module reads what it imports.
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 5
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: found for name, found in unused.items() if found} == {}
