"""Smoke test of the benchmark itself at its tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced with a few small ops, and checks
that each metric BENCHMARK.json names is emitted with its unit, that no
op fails, and the traced run's call counts.  This covers every workload
run.py accepts, including the two BENCHMARK.json does not list.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [
        sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report, last = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(last)


@pytest.fixture(scope="module")
def traced():
    return {w: result(bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, out = result(bench(workload, 0))
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert report["fail_ratio"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(traced, workload):
    report, out = traced[workload]
    assert out["correct"] is True and out["failed"] == 0
    assert report["fail_ratio"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


def test_zeta_calls_by_workload(traced):
    calls = {w: traced[w][1]["metrics"]["zeta.zeta.calls"]["value"] for w in WORKLOADS}
    assert calls["series-oracle"] == 0
    assert calls["boundary-sampling"] == 0
    assert calls["bracket-sweep"] > 0


def test_call_counts_repeat(traced):
    _, again = result(bench("bracket-sweep", 1))
    first = traced["bracket-sweep"][1]["metrics"]
    counts = {k: v["value"] for k, v in again["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: first[k]["value"] for k in counts}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
