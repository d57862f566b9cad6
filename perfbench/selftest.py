"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the default `pytest` collection of the
repository's own suite; they take about a minute, because every workload
runs once at smoke size, untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic(workload):
    def inputs(seed, r):
        return [(op.label, op.inputs) for op in workloads.make_round(workload, seed, r)]

    assert inputs(SEED, 0) == inputs(SEED, 0)
    assert inputs(SEED, 3) == inputs(SEED, 3)
    assert inputs(SEED, 0) != inputs(SEED + 1, 0)
    assert inputs(SEED, 0) != inputs(SEED, 1)
    # Every round covers the same strata; only the values inside them move.
    assert [label for label, _ in inputs(SEED, 0)] == [label for label, _ in inputs(SEED + 1, 5)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_and_tracing_keeps_outputs(workload):
    deadline = time.monotonic() + run.DEADLINE_S
    plain = run.measure(workload, SEED, 0, trace=False, deadline=deadline)
    traced = run.measure(workload, SEED, 0, trace=True, deadline=deadline)
    for m in (plain, traced):
        assert m["attempted"] > 0
        assert m["failed"] == 0, f"{workload}: {m['failed']} of {m['attempted']} ops failed"
        assert m["correct"]
    assert plain["digest"] == traced["digest"]
    layer = traced["metrics"]
    self_total = sum(v["value"] for k, v in layer.items() if k.endswith(".self_ms"))
    assert self_total == pytest.approx(layer["op.ms"]["value"], rel=1e-6)
    assert set(plain["metrics"]) == {"setup_s", "ops_per_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb"}


def _places():
    got = {(id(m), a): getattr(m, a) for places in tracing.LAYERS.values() for m, a in places}
    got[("Polynomial", "partial")] = tracing.poly.Polynomial.partial
    return got


def test_tracer_restores_every_wrapped_function():
    before = _places()
    t = tracing.Tracer()
    t.install()
    try:
        during = _places()
        assert all(during[k] is not before[k] for k in before)
        op = workloads.make_round("solve-escalate", SEED, 0)[0]
        span = t.begin_op(0)
        assert op.check(op.call())[0]
        t.end_op(span)
    finally:
        t.restore()
    after = _places()
    assert all(after[k] is before[k] for k in before)
    totals = t.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert sum(row["self"] for row in totals.values()) == pytest.approx(
        totals["op"]["incl"], rel=1e-9
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "solve-escalate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
