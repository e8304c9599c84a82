"""The public names: every module's __all__ holds, the package exports
exactly the library modules' __all__ lists, and the README's examples
run."""

from __future__ import annotations

import importlib
import re
import types
from pathlib import Path

import pytest

import klsumfree
from klsumfree.cli import _DEFAULT_LIMITS, main

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


def test_readme_python_examples_run():
    # each ```python block of README.md runs as it stands, so no name an
    # example uses can leave the package unnoticed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_examples_run(capsys, monkeypatch):
    # each klsf line of README.md's CLI block exits 0 when run in-process,
    # with no KLSF_LIMIT_* from the caller's environment changing a limit
    for kind in _DEFAULT_LIMITS:
        monkeypatch.delenv(f"KLSF_LIMIT_{kind}", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("klsf ")]
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
