"""The public names: every module's __all__ holds, and the package
exports nothing that no module lists."""

from __future__ import annotations

import importlib
import types

import pytest

import klsumfree

MODULES = ["abelian", "formulas", "sumset", "witness", "oracle", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from klsumfree.{name} import *", namespace)
    module = importlib.import_module(f"klsumfree.{name}")
    for public in getattr(module, "__all__", []):
        assert namespace[public] is getattr(module, public), (name, public)


def test_every_exported_name_is_in_some_modules_all():
    listed = set()
    for name in MODULES:
        listed.update(getattr(importlib.import_module(f"klsumfree.{name}"), "__all__", []))
    exported = {
        name
        for name, value in vars(klsumfree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported and exported <= listed, sorted(exported - listed)
