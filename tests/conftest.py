"""Shared fixtures, and one pass/fail line per acceptance criterion at the
end of a run."""

from __future__ import annotations

import pytest

from fcx.model import FloerComplexData, MonotoneParams
from fcx.synth import NormalFormSpec, build_from_normal_form, random_filtered_automorphism

_acceptance_results: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance" in item.nodeid and "criterion" in item.name:
        if report.when == "call" or (report.when == "setup" and report.failed):
            _acceptance_results[item.name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")


def index_map(c: FloerComplexData) -> dict[str, int]:
    """uid -> index of each generator of ``c``, in its canonical order."""
    return {g.uid: i for i, g in enumerate(c.generators)}


def _scrambled_spec(n: int, period: int) -> NormalFormSpec:
    """n generators on 17 degrees (many ties): n // 3 dipoles of jumps 0..3,
    the rest free."""
    params = MonotoneParams(period, 0.5)
    dipoles = tuple((d % 17 - 8, d % 4) for d in range(n // 3))
    free = tuple(f % 17 - 8 for f in range(n - 2 * len(dipoles)))
    return NormalFormSpec(params, free, dipoles)


def _scrambled(n: int, period: int, seed: int) -> FloerComplexData:
    """The normal form ``_scrambled_spec(n, period)`` under a random filtered
    automorphism."""
    c = random_filtered_automorphism(seed, build_from_normal_form(_scrambled_spec(n, period)))
    assert c.count == n
    return c


def page_cells(table) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """(page, level, residue) -> the alive slots of that cell, for pages
    1..``table.max_page``, expanded from ``table.layouts``.  Ordered by page,
    then by the barcode: free levels first, then the endpoints of each dipole
    alive on the page, each level where it first appears."""
    residue = table.params.residue
    out = {}
    for k in range(1, table.max_page + 1):
        cells = table.layouts[table.run(k)].cells
        levels = [*table.barcode.free]
        for src, dst, jump in table.barcode.dipoles:
            if jump >= k:
                levels += (src, dst)
        for n in dict.fromkeys(levels):
            out[(k, n, residue(n))] = cells[(n, residue(n))]
    return out


@pytest.fixture(scope="session")
def scrambled():
    """The builder ``scrambled(n, period, seed)`` of large scrambled complexes."""
    return _scrambled


@pytest.fixture(scope="session")
def scrambled_spec():
    """The builder ``scrambled_spec(n, period)`` of their normal forms."""
    return _scrambled_spec


@pytest.fixture
def no_entries(monkeypatch):
    """Fail on the ``delta`` of a complex being read, and record every
    ``DifferentialEntry`` built; returns the record."""
    from fcx.model import DifferentialEntry, FloerComplexData

    built = []

    def delta(c):
        built.append("delta")
        raise AssertionError("the sorted entries of a complex were read")

    def entry(cls, src, dst):
        built.append((src, dst))
        return tuple.__new__(cls, (src, dst))

    monkeypatch.setattr(FloerComplexData, "delta", property(delta))
    monkeypatch.setattr(DifferentialEntry, "__new__", entry)
    return built


@pytest.fixture
def no_class_entries(monkeypatch):
    """Fail on the ``entries`` of a cup class being read; returns the name
    of each class whose entries something tried to read."""
    from fcx.model import CupClass

    built = []

    def entries(cls):
        built.append(cls.name)
        raise AssertionError("the sorted entries of a cup class were read")

    monkeypatch.setattr(CupClass, "entries", property(entries))
    return built
