"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload once untraced and once traced and checks the result
against BENCHMARK.json. From the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and record["failed_frac"] == 0
    assert record["host_slowdown"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


# Runs the benchmark with the workload's solver replaced by one that raises.
FORCED_FAILURE = """
import sys
sys.path.insert(0, "perfbench")
sys.argv = ["perfbench/run.py"] + sys.argv[1:]
import run
from lowrank import rmc


def broken_solver(*args, **kwargs):
    raise RuntimeError("forced failure")


rmc.solve_rmc = broken_solver
sys.exit(run.main())
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_instances_are_counted(trace):
    done = subprocess.run(
        [sys.executable, "-c", FORCED_FAILURE, "--workload", "rmc-sparse",
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert "forced failure" in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    if trace:
        assert result["metrics"]["trace.overhead_frac"]["value"] is None
    else:
        assert result["metrics"]["pass_frac"]["value"] == 0
        assert result["metrics"]["solve_s"]["value"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
