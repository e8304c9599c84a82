"""The public names: every module's __all__ holds, and the package
exports exactly the library modules' __all__ lists."""

from __future__ import annotations

import importlib
import types

import pytest

import klsumfree

LIBRARY = ["abelian", "formulas", "sumset", "witness", "oracle"]
MODULES = LIBRARY + ["cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from klsumfree.{name} import *", namespace)
    module = importlib.import_module(f"klsumfree.{name}")
    for public in getattr(module, "__all__", []):
        assert namespace[public] is getattr(module, public), (name, public)


def test_every_exported_name_is_in_some_modules_all():
    # the package exports exactly the library modules' __all__ lists, and
    # no name is listed by two of them
    lists = [importlib.import_module(f"klsumfree.{name}").__all__ for name in LIBRARY]
    listed = {public for names in lists for public in names}
    assert len(listed) == sum(map(len, lists))
    exported = {
        name
        for name, value in vars(klsumfree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed, (sorted(exported - listed), sorted(listed - exported))
