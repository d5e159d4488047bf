"""Every script imports and runs, and every exported name resolves.

The scripts under ``scripts/`` import from ``lowrank`` at module level, so a
name removed from the package breaks them only when they run. Importing each
one as a module catches a stale import; running its ``main`` at a tiny size
catches a break that shows only at run time, and a temporary file it leaves
behind.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

import lowrank

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))

# Arguments that run each script's main in about a second.
TINY_ARGS = {
    "run_planted_recovery.py": ["--rows", "30", "--cols", "30", "--rank", "2",
                                "--d", "4", "--seeds", "1"],
    "run_cpcp_sweep.py": ["--size", "12", "--rank", "1", "--fractions", "0.9"],
    "run_ratings_benchmark.py": ["--ranks", "2"],
}


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_found():
    assert SCRIPTS
    assert sorted(TINY_ARGS) == [p.name for p in SCRIPTS]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(load_script(path).main)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_at_tiny_size(path, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    load_script(path).main(TINY_ARGS[path.name])
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir()), "script left temporary files behind"


@pytest.mark.parametrize("name", lowrank.__all__)
def test_exported_name_resolves(name):
    assert hasattr(lowrank, name), f"lowrank.__all__ lists missing {name}"
