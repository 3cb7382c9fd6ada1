"""Package-level checks: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fcx

MODULES = ["fcx"] + sorted(f"fcx.{m.name}" for m in pkgutil.iter_modules(fcx.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
