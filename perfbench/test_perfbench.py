"""Quick self-test of the benchmark on workloads capped at cube dimension 3.

Run: PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generators  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_generators_match_fixtures():
    assert generators.crosscheck_fixtures() == []


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_workload_traced(name, tmp_path):
    """Digests, predicted exit codes and repeatable work counts, in and out of process."""
    plan = WORKLOADS[name](seed=7, top=3)
    harness.setup(plan, tmp_path)
    values, attempted, failed, repeat = run.traced(plan, tmp_path, harness.load_digests())
    assert (attempted, failed, repeat) == (4 * len(plan.commands), 0, True)
    assert set(values) == set(run.PER_LAYER)
    assert values["cli.stdout_bytes"] > 0 and values["words.star.calls"] > 0


def test_gate_rejects_wrong_results(tmp_path):
    plan = WORKLOADS["build-complete"](seed=7, top=3)
    harness.setup(plan, tmp_path)
    digests = harness.load_digests()
    cmd = next(c for c in plan.commands if c.cells is not None)
    rc, out, _ = harness.run_inprocess(cmd, tmp_path)
    assert harness.problem(cmd, rc, out, digests) is None
    assert harness.problem(replace(cmd, expect=1), rc, out, digests)
    assert harness.problem(replace(cmd, cells=cmd.cells + 1), rc, out, digests)
    assert harness.problem(cmd, rc, out + b" ", digests)


def test_outputs_do_not_depend_on_pythonhashseed(tmp_path):
    plan = WORKLOADS["unfold-cubes"](seed=7, top=3)
    harness.setup(plan, tmp_path)
    digests = harness.load_digests()
    cmd = next(c for c in plan.commands if c.argv[:2] == ("unfold", "cube-3.json") and c.argv[-1] == "6")
    for hs in (1, 2):
        rc, out, _ = harness.run_subprocess(cmd, tmp_path, hs)
        assert harness.problem(cmd, rc, out, digests) is None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unfold-cubes", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""
