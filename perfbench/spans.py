"""In-memory spans around the calls into each fcx layer.

A span records its name, start and end (``time.perf_counter_ns``), the index
of the span open when it started (its parent, -1 for a root) and a few work
counts.  Spans stay in memory; the caller writes them out once, at the end.

Layers are traced from outside the package: ``Layers.install`` replaces a
layer's public functions by timing wrappers under the names their callers
bind (``fcx.cli.pages``, ``fcx.cup.z_graded_cohomology``, ...), so spans nest
exactly as the program calls them.  Only calls that do a whole layer's job
are wrapped, never per-vector helpers such as ``bits`` or ``apply_columns``.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Spans of one run, kept in parallel lists (cheap to append)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: list[dict[str, int] | None] = []
        self._open = -1

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open)
        self.ends.append(0)
        self.counts.append(None)
        self._open = idx
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open = self.parents[idx]

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def add_counts(self, idx: int, counts: dict[str, int]) -> None:
        self.counts[idx] = counts

    def self_times(self, first: int = 0) -> list[int]:
        """Self time (ns) of spans ``first..``: duration minus the children's."""
        out = [self.ends[i] - self.starts[i] for i in range(first, len(self))]
        for i in range(first, len(self)):
            p = self.parents[i]
            if p >= first:
                out[p - first] -= self.ends[i] - self.starts[i]
        return out

    def nesting_problems(self, first: int = 0) -> list[str]:
        """Spans that end before they start or stick out of their parent."""
        problems = []
        for i in range(first, len(self)):
            p = self.parents[i]
            if self.ends[i] < self.starts[i]:
                problems.append(f"span {i} ({self.names[i]}) ends before it starts")
            elif p >= 0 and not (
                self.starts[p] <= self.starts[i] and self.ends[i] <= self.ends[p]
            ):
                problems.append(
                    f"span {i} ({self.names[i]}) is not inside its parent "
                    f"{p} ({self.names[p]})"
                )
        return problems

    def to_json(self) -> dict[str, Any]:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent", "counts"],
            "spans": [
                [code[n], s, e, p, c]
                for n, s, e, p, c in zip(
                    self.names, self.starts, self.ends, self.parents, self.counts
                )
            ],
        }


class FirstSight:
    """Tells whether an object is seen for the first time, by identity.

    Used to count distinct complexes behind memoized or repeated calls
    without hashing them (a complex hashes every generator and entry).
    """

    def __init__(self) -> None:
        self._seen: dict[int, weakref.ref] = {}

    def __call__(self, obj: object) -> bool:
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True


def _parse_counts(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    return {"bytes": len(args[0])}  # documents are ASCII


def _validate_counts(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    c = args[0]
    return {"entries": len(c.delta) if seen(c) else 0}


def _reduce_counts(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    c = args[0]
    return {"columns": c.count if seen(c) else 0}


def _invert_counts(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    return {"dim": len(args[0])}


def _calls_and_distinct(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    return {"calls": 1, "distinct": int(seen(args[0]))}


def _calls(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    return {"calls": 1}


def _tensor_counts(seen: FirstSight, args: tuple, result: Any) -> dict[str, int]:
    return {"entries": len(result.complex.delta)}


# (layer, bindings "module.attr" that callers resolve at call time, counter).
# A counter runs after its span has closed, so its cost lands in the parent.
LAYERS: tuple[tuple[str, tuple[str, ...], Callable | None], ...] = (
    ("io.parse", ("fcx.cli.parse", "fcx.io.parse"), _parse_counts),
    (
        "model.validate",
        ("fcx.cli.validate", "fcx.model.validate", "fcx.kunneth.validate"),
        _validate_counts,
    ),
    (
        "model.cohomology",
        (
            "fcx.cli.z_graded_cohomology",
            "fcx.cli.periodic_cohomology",
            "fcx.cup.z_graded_cohomology",
            "fcx.engine.periodic_cohomology",
        ),
        _calls_and_distinct,
    ),
    (
        "engine.reduce",
        (
            "fcx.engine.canonical_form",
            "fcx.cup.canonical_form",
            "fcx.invariants.canonical_form",
        ),
        _reduce_counts,
    ),
    ("gf2.invert", ("fcx.engine.invert_columns",), _invert_counts),
    (
        "engine.pages",
        (
            "fcx.cli.pages",
            "fcx.cup.pages",
            "fcx.kunneth.pages",
            "fcx.invariants.pages",
        ),
        _calls_and_distinct,
    ),
    (
        "invariants.poly",
        (
            "fcx.cli.poincare_laurent",
            "fcx.kunneth.poincare_laurent",
            "fcx.invariants.poincare_laurent",
        ),
        None,
    ),
    ("kunneth.tensor", ("fcx.kunneth.tensor_product",), _tensor_counts),
    ("kunneth.check", ("fcx.cli.kunneth_check", "fcx.cli.power_poincare_check"), None),
    ("cup.validate", ("fcx.cli.validate_cup", "fcx.cup.validate_cup"), None),
    (
        "cup.induced_cohomology",
        ("fcx.cli.induced_on_cohomology", "fcx.cup.induced_on_cohomology"),
        _calls,
    ),
    ("cup.induced_pages", ("fcx.cup.induced_on_pages",), None),
    ("cup.ring", ("fcx.cli.module_check", "fcx.cli.injectivity_check"), None),
    ("cup.cuplength", ("fcx.cli.cuplength_report",), None),
)


def _wrap(
    tracer: Tracer, seen: FirstSight, name: str, fn: Callable, counter: Callable | None
) -> Callable:
    open_, close, add_counts = tracer.open, tracer.close, tracer.add_counts

    def traced(*args: Any, **kwargs: Any) -> Any:
        idx = open_(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if counter is not None:
            add_counts(idx, counter(seen, args, result))
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


class Layers:
    """Installs and removes the layer wrappers of ``LAYERS``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, Callable]] = []
        self.missing: list[str] = []
        for layer, bindings, _counter in LAYERS:
            found = [b for b in bindings if self._lookup(b) is not None]
            self.missing += [b for b in bindings if b not in found]
            if not found:
                raise RuntimeError(f"no binding of layer {layer} exists: {bindings}")

    @staticmethod
    def _lookup(binding: str) -> Callable | None:
        module, _, attr = binding.rpartition(".")
        mod = sys.modules.get(module) or importlib.import_module(module)
        return getattr(mod, attr, None)

    def install(self) -> None:
        """Wrap every binding.

        Each wrapped function gets a fresh identity registry, shared by its
        bindings, so "distinct" means distinct arguments of that function
        since this installation.
        """
        seen: dict[int, FirstSight] = {}
        for layer, bindings, counter in LAYERS:
            for binding in bindings:
                module, _, attr = binding.rpartition(".")
                mod = sys.modules[module]
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self._saved.append((mod, attr, fn))
                registry = seen.setdefault(id(fn), FirstSight())
                setattr(mod, attr, _wrap(self.tracer, registry, layer, fn, counter))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
