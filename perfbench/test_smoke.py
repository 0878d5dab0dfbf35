"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that a traced run changes no exact output, that a deliberately wrong
expected value shows up as a failure, that SPHELIM_THREADS is never read,
and that a directory without the sources fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT, seed=5, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170,
                          env=dict(os.environ, **(env or {})))
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, [json.loads(line) for line in lines], proc.stderr


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_digests_and_threads(workload):
    code, out, err = bench("--workload", workload, "--tiny", "--trace", "0",
                           env={"SPHELIM_THREADS": "not-a-number"})
    assert code == 0, err
    env, summary, result = out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert summary["fail_ratio"] == 0.0 and summary["digests_agree"]
    assert {"git_sha", "python", "numpy", "blas", "blas_threads", "nproc", "cpu",
            "seed"} <= set(env["env"])

    code, out, err = bench("--workload", workload, "--tiny", "--trace", "1")
    assert code == 0, err
    _, traced_summary, traced = out
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units(SPEC["per_layer"])
    assert traced_summary["traced_passes"] >= 1
    assert traced_summary["digest"] == summary["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_a_failure(workload):
    code, out, err = bench("--workload", workload, "--tiny", "--trace", "0", "--wrong-expected")
    assert code == 0, err
    _, summary, result = out
    assert not result["correct"]
    assert result["failed"] >= 1
    assert summary["fail_ratio"] == result["failed"] / result["attempted"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any("correct" in line for line in out)
