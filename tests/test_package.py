"""Package-level checks: every exported name resolves, no module imports a
name it never uses, and only the validators resolve entry ids."""

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


def _index_map_callers(source: str) -> set[str]:
    """Qualified names of the functions whose own body calls ``.index_map()``."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "index_map"
            ):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_validators_resolve_entry_ids():
    package = Path(fcx.__file__).parent
    callers = {
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in _index_map_callers(path.read_text())
    }
    assert callers == {"model._validate", "cup._validate_cup"}
