"""Smoke tests of the repo benchmark at tiny sizes, and of its checks."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fleet  # noqa: E402
import worker  # noqa: E402
from common import ROOT  # noqa: E402
from definitions import E2E, PER_LAYER, WORKLOADS  # noqa: E402
from gateway import check_stream  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_bench(workload: str, trace: int, seconds: str = "1") -> tuple:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", seconds,
               "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[1])["samples"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run(workload):
    result, samples = run_bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert samples["ticks"] > 0 and samples["requests"] > 0
    if workload == "gateway_live":
        assert samples["requests"] == result["attempted"]
    else:
        assert samples["reps"] >= 1


@pytest.mark.parametrize("workload", ["fleet_churn", "gateway_live"])
def test_traced_smoke_run(workload):
    result, samples = run_bench(workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == PER_LAYER
    assert samples["traced"]["ticks"] > 0
    assert metrics["trace.ticks"]["value"] > 0
    assert metrics["core.ecovisor.settle.ms_per_tick"]["value"] > 0
    if workload == "fleet_churn":
        assert metrics["core.ecovisor.admit_app.calls"]["value"] > 0
        assert metrics["core.upcalls.invoke_policies.fallback.ms_per_tick"]["value"] > 0
    else:
        assert metrics["gateway.server.writer_wait.samples"]["value"] > 0
        assert metrics["client.requests"]["value"] == samples["traced"]["requests"]


def test_a_perturbed_result_fails_the_digest_check(monkeypatch):
    original = fleet.collect_results

    def perturbed(*args):
        totals, read_s = original(*args)
        totals["energy_wh"] = totals["energy_wh"] * (1.0 + 1e-12)
        return totals, read_s

    args = argparse.Namespace(workload="fleet_steady", size="tiny", seed=5, seconds=0.0, trace=0)
    assert worker.fleet_pass(args)["correct"] is True
    monkeypatch.setattr(fleet, "collect_results", perturbed)
    result = worker.fleet_pass(args)
    assert result["correct"] is False
    assert "result digest" in result["errors"][0]


def test_stream_check_flags_an_unexplained_gap():
    frame = lambda seq, event="CarbonChangeEvent": (0.0, seq, event, "{}")  # noqa: E731
    assert check_stream([frame(None, "stream_open"), frame(3), frame(4)]) == []
    assert check_stream([frame(3), frame(5)])
    assert check_stream([frame(3), frame(None, "queue_dropped"), frame(9)]) == []
