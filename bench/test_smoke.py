"""Smoke test of the benchmark: each workload at a tiny budget prints every
metric named in BENCHMARK.json with its unit, and passes its correctness
gate. Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Layers that only the CLI workload exercises.
CLI_ONLY = ("baselines.run_s", "cli.write_s", "cli.files_written")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def tiny_run(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--budget", "2000", "--panel", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result, _ = tiny_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        # One seed at a tiny budget may waste no search at all.
        assert metric["value"] >= 0 if name == "wasted_load_share" else metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present(workload):
    result, lines = tiny_run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    on_cli = workload == "logistic-hard-cli"
    for name in CLI_ONLY:
        assert (metrics[name]["value"] > 0) == on_cli, name
    for name in ("problems.loss_calls", "regression.fit_calls", "poly.minimum_calls",
                 "linesearch.searches", "controller.phases", "seeding.streams_s"):
        assert metrics[name]["value"] > 0, name
    assert any(line.startswith("self time per traced pass by module") for line in lines)


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
