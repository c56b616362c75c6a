"""Tests of the repo benchmark: every workload at a tiny size.

Each run is a subprocess of ``run.py --tiny`` (the runner pins BLAS threads
before numpy loads, which only a fresh interpreter can do).
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def result():
    """``result(workload, trace, rep)``: the parsed last line, each run once."""
    cache = {}

    def get(workload: str, trace: int, rep: int = 0) -> dict:
        key = (workload, trace, rep)
        if key not in cache:
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(result, workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_within_parent_span(result, workload):
    v = {k: m["value"] for k, m in result(workload, 1)["metrics"].items()}
    for name, value in v.items():
        if name.endswith("_s") and not name.startswith("trace."):
            assert value >= 0.0, name
    eps = 1e-9
    assert v["distsim.self_s"] <= v["distsim.run_spmd_s"] + eps
    assert v["parallel.self_s"] <= v["parallel.factor_s"] + v["parallel.solve_s"] + eps
    assert v["kernels.s"] <= v["distsim.run_spmd_s"] + eps
    for kernel in ("getf2", "gemm", "trsm", "batched"):
        assert v[f"kernels.{kernel}_s"] <= v["kernels.s"] + eps
    assert v["factor_cache.load_s"] + v["factor_cache.save_s"] <= v["factor_cache.fetch_s"] + eps
    cache_used = v["factor_cache.fetch_s"] > 0
    assert cache_used == (workload == "serve_open_loop")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_for_one_seed(result, workload):
    def counts(rep):
        metrics = result(workload, 1, rep)["metrics"]
        return json.dumps({k: m for k, m in metrics.items() if k.startswith("trace.")})

    assert counts(0) == counts(1)


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_metric_map_covers_every_layer_metric():
    groups = json.loads((HERE / "metric_map.json").read_text())["groups"]
    mapped = [name for g in groups for name in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for g in groups:
        for workload, metrics in g["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= end_to_end
        assert set(g["steady_on"]) <= set(WORKLOADS)
