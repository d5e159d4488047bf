"""Every name the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` replaces functions at the names their callers look
up, such as ``lowrank.rmc.soft_threshold``. A name removed or moved in the
package breaks every traced benchmark run, so each target is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_TARGETS


@pytest.mark.parametrize("module_name, attr, span", trace_targets())
def test_trace_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr} is gone ({span})"
        owner = getattr(owner, part)
    assert callable(owner)
