"""Smoke test of the benchmark harness at minimal size.

    python3 -m pytest perfbench/smoke_check.py

Runs every workload once untraced and twice traced with ``--smoke``, and
checks the output schema against ``BENCHMARK.json``: every end-to-end and
per-layer metric is present, numeric and carries its unit, the report
records the machine and the pinned threads, and the exact counters repeat.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

E2E_UNITS = {"values_per_s": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_names_the_metrics_the_harness_prints():
    assert [w["name"] for w in BENCH["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        spans.metric_names()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_schema(workload):
    report, result = run(workload, 0)
    check_result(result, E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["seed"] == 7 and report["failed_frac"] == 0.0
    assert {"nproc", "python", "numpy", "scipy", "blas"} <= \
        set(report["machine"])
    assert set(report["pins"]) >= {"GAPDET_THREADS", "OPENBLAS_NUM_THREADS"}
    assert int(report["pins"]["GAPDET_THREADS"]) * \
        int(report["pins"]["OPENBLAS_NUM_THREADS"]) <= \
        report["machine"]["nproc"]
    assert {"percentile", "samples"} <= set(report["latency_tail"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_schema_and_exact_counters(workload):
    _, first = run(workload, 1)
    report, second = run(workload, 1)
    for result in (first, second):
        check_result(result, spans.metric_names())
    assert report["exact_counters"] == {"check": "compared", "mismatch": []}
    layer = second["metrics"]
    assert layer["trace.values"]["value"] >= 1
    dd_calls = layer["ddmath.dd_det.n3"]["value"]
    if workload == "f64-mix":
        assert dd_calls == 0
        assert all(v["value"] == 0 for k, v in layer.items()
                   if k.startswith("ddmath."))
    elif workload == "dd-deep":
        assert dd_calls > 0
    else:
        assert layer["cli.pool.util"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "f64-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
