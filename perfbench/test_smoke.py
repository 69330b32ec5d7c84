"""Smoke test of the benchmark: every workload once, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each run reports every metric BENCHMARK.json names, with its
unit, and that a wrong reference value makes a run fail.
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
SEED = 3


def run(*args, script=BENCH / "run.py", cwd=ROOT):
    cmd = [sys.executable, str(script), "--size", "tiny", "--seconds", "1", "--seed", str(SEED)]
    return subprocess.run(
        [*cmd, *args], cwd=cwd, capture_output=True, text=True, timeout=600, check=False
    )


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_every_workload_reports_the_end_to_end_metrics():
    done = run("--workload", "all", "--trace", "0")
    assert done.returncode == 0, done.stderr
    results = last_json(done)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in WORKLOADS:
        result = results[name]
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert units(result) == expected
        for metric in ("wall_s", "setup_s", "peak_rss_mb", "fail_ratio"):
            assert f"perfbench {name} {metric} = " in done.stdout
    assert "perfbench mc_crosscheck mc_time_to_se_s = " in done.stdout
    assert "perfbench provenance " in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_the_per_layer_metrics(workload):
    done = run("--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert result["correct"] is True
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.missing"]["value"] == 0
    assert (ROOT / ".perfbench_out" / f"spans-{workload}-seed{SEED}.npz").is_file()


@pytest.mark.parametrize(
    "workload, corrupt",
    [("surface_export", "csv_hash"), ("mc_crosscheck", "pde_ref"), ("pde_refine", "pde_ref")],
)
def test_a_wrong_reference_fails_the_run(workload, corrupt):
    done = run("--workload", workload, "--corrupt", corrupt)
    assert done.returncode == 1
    assert last_json(done)["correct"] is False


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "pde_refine", script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
