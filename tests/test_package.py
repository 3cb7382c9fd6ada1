"""Package-level checks: every exported name resolves, no module imports a
name it never uses, only the validators resolve entry ids, and only ``gf2``
runs a GF(2) elimination loop."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fcx

MODULES = ["fcx"] + sorted(f"fcx.{m.name}" for m in pkgutil.iter_modules(fcx.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported binding that the module never reads.

    A name is read if it appears as a name anywhere, inside a string
    annotation (how ``TYPE_CHECKING`` imports are used) or in ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                inner = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(fcx.__file__).parent
    unused = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _functions_with(hit) -> set[str]:
    """``module.qualified.name`` of each ``src/fcx`` function whose own body
    (outside the functions and classes nested in it) has a node ``hit`` accepts."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(fcx.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_only_the_validators_resolve_entry_ids():
    def calls_index_map(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index_map"
        )

    assert _functions_with(calls_index_map) == {"model._validate", "cup._validate_cup"}


def test_only_gf2_runs_an_elimination_loop():
    def xor_loop(node: ast.AST) -> bool:
        return isinstance(node, ast.While) and any(
            isinstance(inner, ast.AugAssign) and isinstance(inner.op, ast.BitXor)
            for inner in ast.walk(node)
        )

    assert {name for name in _functions_with(xor_loop) if not name.startswith("gf2.")} == set()
