"""Tests of the benchmark itself: tiny-size smoke runs and the op checker.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["meta"]["failures"]
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert meta["meta"]["seed"] == 7 and meta["meta"]["samples"]["passes"] >= 1


def test_wrong_reference_is_a_failed_op(tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    wrong = workloads.compute_check("binary:h=3", 15, 5, 2, "closed_form")  # zeta is 1
    right = workloads.compute_check("binary:h=3", 15, *workloads.binary_ref(3), "closed_form")
    outcome = runner.run_op(workloads.Op("wrong", 15, wrong, argv=("compute", "--json", "binary:h=3")))
    assert outcome.failed and outcome.wrong
    outcome = runner.run_op(workloads.Op("right", 15, right, argv=("compute", "--json", "binary:h=3")))
    assert not outcome.failed and not outcome.wrong


def test_nonzero_exit_is_a_failed_op(tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    outcome = runner.run_op(workloads.Op("bad", 0, lambda _: True, argv=("compute", "no-such-file")))
    assert outcome.failed and not outcome.wrong
    assert "neither a family spec nor an existing file" in outcome.note


def test_traceback_and_exception_are_failed_ops(tmp_path):
    assert run.verdict(0, "Traceback (most recent call last):\n...", True) == (True, False)
    runner = run.Runner(ROOT, tmp_path)
    outcome = runner.run_op(workloads.Op("raises", 0, lambda _: True, call=lambda: 1 / 0))
    assert outcome.failed and not outcome.wrong and "ZeroDivisionError" in outcome.note


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "perturb-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
