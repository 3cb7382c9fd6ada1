"""Package-level checks: every exported name resolves, no module imports a
name it never uses, every function has a caller or is exported, each module
imports only from the layers below it, only the parser and the validators
resolve entry ids, only ``gf2`` runs a GF(2) elimination loop, only the
engine clamps a page to the collapse page, and the independent oracles
reach none of the engine's computations."""

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


def test_the_cup_class_and_ring_table_are_defined_once():
    """``fcx.model`` owns them; ``fcx.cup`` and the package re-export them."""
    import fcx.cup
    import fcx.model

    assert fcx.cup.CupClass is fcx.model.CupClass is fcx.CupClass
    assert fcx.cup.RingTable is fcx.model.RingTable is fcx.RingTable


def test_the_laurent_polynomial_is_defined_once():
    """``fcx.engine`` owns it; ``fcx.invariants`` and the package re-export it."""
    import fcx.engine
    import fcx.invariants

    assert fcx.invariants.LaurentPoly is fcx.engine.LaurentPoly is fcx.LaurentPoly


def test_the_complex_memo_is_the_only_function_named_cached():
    """``FloerComplexData.cached`` is the package's one keyed memo; the page
    table's data are its own cached properties."""
    import fcx.model

    found = [
        (module, node.lineno)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "cached"
    ]
    assert found == [("model", fcx.model.FloerComplexData.cached.__code__.co_firstlineno)]


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported binding that the module never reads.

    A name is read if it appears as a name anywhere or in ``__all__``.
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(fcx.__file__).parent
    unused = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _trees() -> dict[str, ast.Module]:
    """module name -> the syntax tree of each ``src/fcx`` module."""
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(fcx.__file__).parent.glob("*.py"))
    }


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

    for module, tree in _trees().items():
        visit(tree, (module,))
    return found


# Kept with no caller in the package, read by the acceptance criteria and
# the tests: ``LimitReport.hf`` by criteria 02 and 04, and
# ``LimitReport.einf`` by the limit checks of ``tests/test_engine.py``.
# ``FloerComplexData.delta`` is the public entry view of a complex: the
# package reads the stored form (``_targets``, ``delta_columns``), and
# the tests and the benchmark read the entries.  ``cli._Parser.error``
# overrides ``argparse.ArgumentParser.error``, so argparse calls it, not the
# package.
KEPT_WITHOUT_CALLER = {
    "model.FloerComplexData.delta",
    "engine.LimitReport.hf",
    "engine.LimitReport.einf",
    "cli._Parser.error",
}


def test_every_function_has_a_caller_or_is_exported():
    """Any API with no caller is deleted: each ``src/fcx`` module function is
    referred to by its bare name somewhere in the package or is listed in an
    ``__all__``, and each method (but the dunder ones) is read as an
    attribute somewhere in the package.  A local variable or a nested
    function of the same name does not count as a caller of a method, nor
    an attribute of the same name as a caller of a module function."""
    trees = _trees()
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names.update(n for name in MODULES for n in importlib.import_module(name).__all__)
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    uncalled: set[str] = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in names:
                    uncalled.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and item.name not in attributes
                    ):
                        uncalled.add(f"{module}.{node.name}.{item.name}")
    assert uncalled == KEPT_WITHOUT_CALLER


# The modules each ``src/fcx`` module may import from, relatively; ``cli``
# and ``__init__`` may import any.
LAYERS = {
    "gf2": set(),
    "model": {"gf2"},
    "io": {"model"},
    "engine": {"gf2", "model"},
    "synth": {"gf2", "model"},
    "invariants": {"engine", "gf2", "model"},
    "cup": {"engine", "gf2", "model"},
    "kunneth": {"engine", "gf2", "invariants", "model"},
}


def test_each_module_imports_only_from_the_layers_below_it():
    imports = {
        module: {
            node.module or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
        }
        for module, tree in _trees().items()
        if module not in ("cli", "__init__")
    }
    assert imports.keys() == LAYERS.keys()
    outside = {m: sorted(found - LAYERS[m]) for m, found in imports.items()}
    assert {m: found for m, found in outside.items() if found} == {}


def test_only_the_validators_resolve_entry_ids():
    """Ids become generator indices in two places: the parser, as it reads
    a document (its own map ``index``, in declaration order, for both
    ``d`` and ``c`` lines), and ``model._positions``, through which a
    complex or cup class built from entries resolves them once, at
    construction, a cup class is moved onto the generators of a complex,
    and validation words the errors of entries that do not resolve."""

    def resolves_ids(node: ast.AST) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            return node.func.attr == "index_map" or (
                node.func.attr == "get" and isinstance(owner, ast.Name) and owner.id == "index"
            )
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "index"
        )

    assert _functions_with(resolves_ids) == {
        "io.parse",
        "model._positions",
    }


def test_only_gf2_runs_an_elimination_loop():
    def xor_loop(node: ast.AST) -> bool:
        return isinstance(node, ast.While) and any(
            isinstance(inner, ast.AugAssign) and isinstance(inner.op, ast.BitXor)
            for inner in ast.walk(node)
        )

    assert {name for name in _functions_with(xor_loop) if not name.startswith("gf2.")} == set()


def test_only_the_engine_clamps_a_page_to_the_collapse_page():
    """Every page k >= 1 exists, and ``PageTable`` alone serves a page past
    the collapse page as the stable page: no function outside ``engine``
    reads ``collapse_page`` or takes a ``len(...)`` inside a ``min(...)``
    (a clamp to the length of a per-page list).  ``cup.induced_on_pages``
    clamps only to report the page its maps are read on (``k_eff``), and the
    normal-form oracle ``OraclePages.page``, which judges the engine and so
    shares no code with it, keeps its own copy of the rule."""

    def reads_collapse_page(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "collapse_page") or (
            isinstance(node, ast.Name) and node.id == "collapse_page"
        )

    def calls(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    def clamps(node: ast.AST) -> bool:
        return calls(node, "min") and any(
            reads_collapse_page(inner) or calls(inner, "len") for inner in ast.walk(node)
        )

    clamping = {name for name in _functions_with(clamps) if not name.startswith("engine.")}
    assert clamping == {"cup.induced_on_pages", "synth.OraclePages.page"}


def test_each_page_and_unit_rule_has_one_owner():
    """``PageTable.run`` alone refuses a page below 1 for the engine and
    everything built on it; the two oracles that judge the engine,
    ``OraclePages.page`` and ``subquotient_pages_oracle``, share no code with
    it and keep their own copy.  The unit is the document convention, so
    ``RingTable`` has no unit field and no module reads one: the only
    ``.unit`` read is the ring renderer's, off a ``ModuleReport``."""
    import dataclasses

    def refuses(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "pages are indexed from 1" in node.value
        )

    assert _functions_with(refuses) == {
        "engine.PageTable.run",
        "engine.subquotient_pages_oracle",
        "synth.OraclePages.page",
    }
    assert [f.name for f in dataclasses.fields(fcx.RingTable)] == ["products"]

    def reads_unit(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "unit"

    assert _functions_with(reads_unit) == {"cli._render_ring"}


def test_only_the_oracles_use_the_subspace_algebra():
    """Outside ``gf2``, only the two engine oracles and their helpers refer
    to ``Gf2Subspace``, ``subspace_sum`` or ``subspace_intersection``: a
    move of the oracles out of ``engine`` carries all of it, and the engine
    does not compute with the linear algebra that judges it."""
    names = {"Gf2Subspace", "subspace_sum", "subspace_intersection"}

    def refers(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in names
        )

    assert {name for name in _functions_with(refers) if not name.startswith("gf2.")} == {
        "engine._kernel",
        "engine._z_space",
        "engine._delta_span",
        "engine.subquotient_pages_oracle",
        "engine.limit_and_filtration",
    }


def _reference_graph() -> dict[str, set[str]]:
    """``module.name`` (or ``module.Class.name``) of each ``src/fcx`` function
    -> the package functions its body refers to.

    A bare name refers to the function it is bound to in its module (a def
    there, or a relative import), and a class name to the class's
    initializers.  An attribute refers to every method or property of that
    name in the package, since the receiver's type is unknown; so the graph
    over-approximates and may not miss a reference.
    """
    trees = _trees()
    bodies: dict[str, ast.AST] = {}
    members: dict[str, set[str]] = {}  # class or method name -> functions
    namespaces: dict[str, dict[str, str]] = {}
    for module, tree in trees.items():
        names = namespaces[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                bodies[names[node.name]] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{module}.{node.name}.{item.name}"
                        bodies[key] = item
                        members.setdefault(item.name, set()).add(key)
                        if item.name in ("__init__", "__post_init__"):
                            members.setdefault(names[node.name], set()).add(key)
    graph: dict[str, set[str]] = {}
    for key, function in bodies.items():
        names = namespaces[key.split(".")[0]]
        out = graph[key] = set()
        for node in (n for stmt in function.body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and node.id in names:
                target = names[node.id]
                out |= {target} if target in bodies else members.get(target, set())
            elif isinstance(node, ast.Attribute):
                out |= members.get(node.attr, set())
    return graph


ORACLES = (
    "engine.subquotient_pages_oracle",
    "engine.limit_and_filtration",
    "synth.normal_form_pages_oracle",
)
ENGINE_COMPUTATIONS = {
    "gf2.echelon",
    "gf2.clear_pivots",
    "engine.canonical_form",
    "model.z_graded_cohomology",
    "engine.pages",
}


def test_the_oracles_reach_none_of_the_engine_computations():
    """The oracles judge the engine, so they must share none of its kernel,
    its reduction, its cohomology elimination or its page tables, however
    many calls away."""
    graph = _reference_graph()
    reached: dict[str, list[str]] = {}
    for oracle in ORACLES:
        path = {oracle: oracle}  # function -> a chain of references to it
        todo = [oracle]
        while todo:
            caller = todo.pop()
            for callee in sorted(graph[caller]):
                if callee not in path:
                    path[callee] = f"{path[caller]} -> {callee}"
                    todo.append(callee)
        reached[oracle] = sorted(path[f] for f in ENGINE_COMPUTATIONS & path.keys())
    assert reached == {oracle: [] for oracle in ORACLES}
