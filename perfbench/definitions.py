"""Metric names and units, and the reductions that produce the values.

``BENCHMARK.json`` is the one list of metrics (names, units,
directions, bounds) and of the workloads the benchmark is checked on;
this module reads it.  Every workload
reports every name: a layer a workload leaves idle reads 0 with a zero
sample count, which is the measured value (``layers.json`` says which
workload each layer metric is meant for).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from common import ROOT, median, percentile

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Run by hand only: the paper-scale fleet spreads too widely on a shared
#: host for the benchmark's bounds (NOTES.md, "Noise and bounds").
UNLISTED_WORKLOADS = ("fleet_steady",)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"]) + UNLISTED_WORKLOADS
#: Metric name -> unit, in the order ``BENCHMARK.json`` declares them.
E2E: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

REQUEST_KINDS = ("state", "carbon", "battery", "containers", "charge_rate", "powercap")
LIFECYCLE = ("admit_app", "evict_app", "set_share")
PER_TICK = (
    "core.ecovisor.begin_tick",
    "core.fleetarrays.begin",
    "core.ecovisor.settle",
    "core.fleetarrays.settle",
    "core.upcalls.invoke_policies",
    "core.upcalls.step_workloads",
    "core.upcalls.finish_workloads",
)
#: End-to-end metrics whose traced-minus-untraced difference is reported
#: as ``trace.overhead.<name>``.
OVERHEAD = ("ticks_per_s", "us_per_app_tick", "req_p50_ms", "req_p99_ms", "live_tick_p50_ms")


def _core_layers(layers: Dict[str, Dict[str, float]], phases: Dict[str, float],
                 ticks: int) -> Dict[str, float]:
    """Per-tick core numbers from summed span totals and profiler phases."""
    out: Dict[str, float] = {"trace.ticks": ticks}
    per_tick = 1e3 / ticks if ticks else 0.0

    def total(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    out["sim.engine.run.self_ms_per_tick"] = total("sim.engine.run", "self_s") * per_tick
    for name in PER_TICK:
        out[f"{name}.ms_per_tick"] = total(name) * per_tick
    out["core.ecovisor.settle.self_ms_per_tick"] = total("core.ecovisor.settle", "self_s") * per_tick
    out["core.upcalls.invoke_policies.batch.ms_per_tick"] = phases.get("policy_batch", 0.0) * per_tick
    out["core.upcalls.invoke_policies.fallback.ms_per_tick"] = (
        phases.get("policy_fallback", 0.0) * per_tick
    )
    return out


def add_layers(a: Dict[str, Dict[str, float]], b: Dict[str, Dict[str, float]]) -> None:
    for name, row in b.items():
        target = a.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            target[key] += value


def fleet_layers(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer values of a traced fleet run (all reps pooled)."""
    layers: Dict[str, Dict[str, float]] = {}
    phases: Dict[str, float] = {}
    for rep in reps:
        add_layers(layers, rep["layers"])
        for name, value in rep["phases"].items():
            phases[name] = phases.get(name, 0.0) + value
    ticks = sum(rep["executed"] for rep in reps)
    out = _core_layers(layers, phases, ticks)
    out["core.accounting.ledger_read_s"] = median([r["ledger_read_s"] for r in reps])
    out["core.accounting.ledger_read.clock_share_pct"] = 100.0 * median(
        [r["ledger_read_s"] / r["wall_s"] for r in reps]
    )
    for op in LIFECYCLE:
        row = layers.get(f"core.ecovisor.{op}", {})
        out[f"core.ecovisor.{op}.calls"] = row.get("calls", 0) / len(reps)
        out[f"core.ecovisor.{op}.ms"] = row.get("total_s", 0.0) * 1e3 / len(reps)
    return out


def gateway_layers(run: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values of a traced ``gateway_live`` run."""
    report = run["report"]
    layers = report["layers"]
    durations = report["durations"]
    steps = durations["gateway.driver.step"]
    out = _core_layers(layers, report["phases"], len(steps))
    out["core.accounting.ledger_read_s"] = 0.0
    out["core.accounting.ledger_read.clock_share_pct"] = 0.0
    for op in LIFECYCLE:
        row = layers.get(f"core.ecovisor.{op}", {})
        out[f"core.ecovisor.{op}.calls"] = row.get("calls", 0)
        out[f"core.ecovisor.{op}.ms"] = row.get("total_s", 0.0) * 1e3
    wait = durations["gateway.server.writer_wait"]
    out["gateway.server.writer_wait_ms.p50"] = median(wait) * 1e3
    out["gateway.server.writer_wait_ms.p99"] = percentile(wait, 99.0) * 1e3
    out["gateway.server.writer_wait.samples"] = len(wait)
    rest = report["rest_durations"]
    out["rest.server.request.calls"] = sum(len(v) for v in rest.values())
    for kind in REQUEST_KINDS:
        out[f"rest.server.request.ms.{kind}"] = median(rest.get(f"rest.server.request.{kind}", [])) * 1e3
        values = run["latency"][kind]
        out[f"client.request_ms.{kind}.p50"] = median(values) * 1e3
        out[f"client.request_ms.{kind}.p99"] = percentile(values, 99.0) * 1e3
    out["client.requests"] = run["attempted"]
    out["client.generator_late_ms.p50"] = median(run["late"]) * 1e3
    out["client.generator_late_ms.p99"] = percentile(run["late"], 99.0) * 1e3
    reads = durations["gateway.http.read_request"]
    out["gateway.http.requests"] = len(reads)
    out["gateway.http.read_request.us"] = median(reads) * 1e6
    out["gateway.http.render_response.us"] = median(durations["gateway.http.render_response"]) * 1e6
    counters = report["counters"]
    hits = counters["gateway_etag_hits_total"]
    polls = hits + counters["gateway_etag_misses_total"]
    out["gateway.cache.etag_hit_ratio"] = hits / polls if polls else 0.0
    out["gateway.cache.populate.calls"] = layers.get("gateway.cache.populate", {}).get("calls", 0)
    out["gateway.driver.steps"] = len(steps)
    out["gateway.driver.step.ms"] = median(steps) * 1e3
    out["gateway.sse.pump.ms"] = median(durations["gateway.sse.pump.step"]) * 1e3
    out["gateway.sse.lag_ms"] = median(run["lags"]) * 1e3
    out["gateway.sse.frames"] = run["frames"]
    out["gateway.sse.queue_dropped"] = counters["gateway_sse_queue_dropped_total"]
    return out


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer name, 0 for layers the workload leaves idle."""
    undeclared = sorted(set(values) - set(PER_LAYER))
    if undeclared:
        raise KeyError(f"per-layer values not declared in BENCHMARK.json: {undeclared}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
