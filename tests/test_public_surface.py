"""Every script imports and every exported name resolves.

The scripts under ``scripts/`` import from ``lowrank`` at module level, so a
name removed from the package breaks them only when they run. Importing each
one as a module, without running ``main``, catches a stale import here.
"""

import importlib.util
from pathlib import Path

import pytest

import lowrank

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("name", lowrank.__all__)
def test_exported_name_resolves(name):
    assert hasattr(lowrank, name), f"lowrank.__all__ lists missing {name}"
