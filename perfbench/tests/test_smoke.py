"""Harness smoke test for the benchmark.

Runs each workload shrunk to n = 32, one sweep point and at most 20
iterations per solve (``--smoke``), checks that every metric named in
BENCHMARK.json is emitted with its unit, and that the exact counts repeat
across two runs. Run from the checkout root::

    python3 -m pytest -p no:cacheprovider perfbench/tests -q
"""

import cmath
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _exact(name: str) -> bool:
    return name == "iterations" or name.endswith(".calls") or name == "cli.artifact_bytes"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_emitted_and_counts_repeat(workload, trace, kind):
    first, second = _result(workload, trace), _result(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for res in (first, second):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    exact = [name for name in expected if _exact(name)]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_a_directory_without_the_program():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "sweep", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_sweep_points_follow_the_seed_and_stay_in_the_region():
    a, b = workloads.sweep_points(3), workloads.sweep_points(4)
    assert a == workloads.sweep_points(3) and a != b
    assert len(a) == 2 * workloads.SWEEP_CELLS
    for z in a + b:
        assert workloads.SWEEP_MAG[0] <= abs(z) <= workloads.SWEEP_MAG[1]
        assert abs(cmath.phase(z)) <= workloads.SWEEP_ARG


def test_missing_hook_is_reported_absent(monkeypatch):
    import fftcond.solvers

    monkeypatch.delattr(fftcond.solvers, "_apply_A_arrays")
    with hooks.Probe(trace=True) as probe:
        assert probe.absent == ["fftcond.solvers._apply_A_arrays"]
    assert not hasattr(fftcond.solvers, "_apply_A_arrays")
