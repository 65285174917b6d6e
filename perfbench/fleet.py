"""The two fleet workloads: ``fleet_steady`` and ``fleet_churn``.

A *rep* builds one fleet (timed as set-up), collects garbage, then runs
the clock over ``engine.run(ticks)`` **and** the read of the run's
results (ledger totals, completed jobs, evicted accounts), because the
columnar core defers its telemetry/ledger flush to the first read:
``engine.run`` alone leaves most of a bulk run's cost out (see
NOTES.md).  After the clock stops, every live app's ``/v1`` state is
read through the REST router, one timed request per app and pass.

Each rep's results are reduced to a digest that must equal the one
recorded with the benchmark for the workload (``digests.json``).
"""

from __future__ import annotations

import gc
import json
import math
import random
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from common import HERE, canonical_digest, median, percentile
from tracing import Tracer, span_totals

#: Workload definitions.  ``ticks`` is part of each fleet's identity: it
#: sizes the population's work units and enters the root seed digest.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fleet_steady": {
        "full": {"apps": 1000, "mix": "balanced", "ticks": 60},
        "tiny": {"apps": 30, "mix": "balanced", "ticks": 12},
    },
    "fleet_churn": {
        "full": {
            "apps": 200,
            "mix": "balanced",
            "ticks": 120,
            "admit_rate": 2.0,
            "evict_rate": 1.8,
            "share_rate": 0.6,
        },
        "tiny": {
            "apps": 20,
            "mix": "balanced",
            "ticks": 16,
            "admit_rate": 2.0,
            "evict_rate": 1.8,
            "share_rate": 0.6,
        },
    },
}

#: The population seed of each fleet workload's one input.  Populations
#: drawn from different seeds differ in cost by up to ~20% (policies
#: react to each input's carbon trace), so every run builds the same
#: input and its spread shows the code and the host, not the draw; the
#: run's ``--seed`` draws the order of the post-run ``/v1`` reads.
INPUT_SEED = 0

#: Churned-in tenant kinds and their admission weights.  Only ``ml`` and
#: ``ml_suspend`` opt into the batched upcall kernels; the others are
#: delivered per app, so the fallback path carries real load.
TENANT_KINDS: Tuple[Tuple[str, float], ...] = (
    ("ml", 0.40),
    ("ml_suspend", 0.10),
    ("web_budget", 0.20),
    ("spark_battery", 0.15),
    ("parallel_solarcap", 0.15),
)

#: Carbon threshold of churned-in suspend/resume tenants (mid-range of
#: the CAISO trace, so they both suspend and resume).
SUSPEND_THRESHOLD_G_PER_KWH = 250.0

#: Solar/battery fraction of one dynamic share slot, and how many slots
#: exist.  The base fleet allocates 0.9, so the slots stay within 1.0.
SLOT_FRACTION = 0.01
MAX_SLOTS = 8

#: After each rep's clock stops, every live app's ``/v1`` state is read
#: this many times (a dashboard refreshing over the finished run).
STATE_READ_PASSES = 3

DIGESTS_PATH = HERE / "digests.json"


def fleet_params(workload: str, size: str) -> Dict[str, Any]:
    """The generated inputs of the workload."""
    params = dict(SIZES[workload][size])
    params["seed"] = INPUT_SEED
    return params


def schedule_churn(fleet: Any, params: Dict[str, Any]) -> List[Any]:
    """Schedule seeded admissions, evictions and share changes on ``fleet``.

    Returns every application the run will see (base fleet first).
    Evictions target only churned-in tenants admitted at least three
    ticks earlier; tenants holding a solar/battery slot return it on
    eviction.
    """
    import numpy as np

    from repro.core.config import ClusterConfig, ShareConfig
    from repro.policies import (
        CarbonAgnosticPolicy,
        DynamicCarbonBudgetPolicy,
        StaticBatterySmoothingPolicy,
        StaticSolarCapPolicy,
        SuspendResumePolicy,
    )
    from repro.policies.base import worker_power_w
    from repro.workloads.mltrain import MLTrainingJob
    from repro.workloads.parallel import ParallelJob
    from repro.workloads.spark import SparkJob
    from repro.workloads.traces import diurnal_request_trace
    from repro.workloads.webapp import WebApplication

    engine = fleet.engine
    ticks = int(params["ticks"])
    rng = np.random.default_rng([int(params["seed"]), ticks, 0xC4A2])
    per_worker_w = worker_power_w(ClusterConfig())
    hours = math.ceil(ticks / 60.0) + 1
    kinds = [k for k, _ in TENANT_KINDS]
    weights = np.asarray([w for _, w in TENANT_KINDS])
    weights = weights / weights.sum()

    def slot_share(fraction: float) -> ShareConfig:
        return ShareConfig(
            solar_fraction=fraction,
            battery_fraction=fraction,
            grid_power_w=float("inf"),
        )

    grid_only = ShareConfig(grid_power_w=float("inf"))
    apps: List[Any] = list(fleet.applications)
    live: List[Tuple[str, int, str]] = []  # name, admitted at, kind
    slots: Dict[str, float] = {}  # dynamic tenant -> share fraction
    admitted = 0
    for tick in range(1, ticks):
        for _ in range(int(rng.poisson(params["evict_rate"]))):
            eligible = [i for i, t in enumerate(live) if t[1] <= tick - 3]
            if not eligible:
                break
            name, _, _ = live.pop(eligible[int(rng.integers(len(eligible)))])
            engine.schedule_eviction(tick, name)
            slots.pop(name, None)
        for _ in range(int(rng.poisson(params["share_rate"]))):
            movable = [t[0] for t in live if t[2] == "ml" and t[1] < tick]
            if not movable:
                break
            name = movable[int(rng.integers(len(movable)))]
            if name in slots:
                # Toggle between a full and a half slot.
                fraction = SLOT_FRACTION / 2 if slots[name] == SLOT_FRACTION else SLOT_FRACTION
            elif len(slots) < MAX_SLOTS:
                fraction = SLOT_FRACTION
            else:
                continue
            slots[name] = fraction
            engine.schedule_share_change(tick, name, slot_share(fraction))
        for _ in range(int(rng.poisson(params["admit_rate"]))):
            name = f"churn-{admitted:04d}"
            kind = kinds[int(rng.choice(len(kinds), p=weights))]
            needs_slot = kind in ("spark_battery", "parallel_solarcap")
            if needs_slot and len(slots) >= MAX_SLOTS:
                kind = "ml"
                needs_slot = False
            work = float(rng.uniform(0.2, 1.0)) * ticks * 60.0
            share = grid_only
            if kind == "ml":
                app = MLTrainingJob(name=name, total_work_units=work)
                policy = CarbonAgnosticPolicy(workers=1)
            elif kind == "ml_suspend":
                app = MLTrainingJob(name=name, total_work_units=work)
                policy = SuspendResumePolicy(SUSPEND_THRESHOLD_G_PER_KWH, 1)
            elif kind == "web_budget":
                trace = diurnal_request_trace(
                    hours=hours,
                    base_rps=20.0,
                    peak_rps=90.0,
                    seed=int(rng.integers(1 << 30)),
                )
                app = WebApplication(name, trace, slo_ms=60.0)
                policy = DynamicCarbonBudgetPolicy(0.3, per_worker_w, max_workers=4)
            elif kind == "spark_battery":
                app = SparkJob(name=name, total_work_units=work)
                policy = StaticBatterySmoothingPolicy(1, per_worker_w)
            else:
                app = ParallelJob(
                    name=name,
                    num_tasks=3,
                    num_rounds=4,
                    mean_task_work_units=240.0,
                    seed=int(rng.integers(1 << 30)),
                )
                policy = StaticSolarCapPolicy()
            if needs_slot:
                slots[name] = SLOT_FRACTION
                share = slot_share(SLOT_FRACTION)
            engine.schedule_admission(tick, app, share, policy)
            apps.append(app)
            live.append((name, tick, kind))
            admitted += 1
    return apps


def build(workload: str, params: Dict[str, Any]) -> Tuple[Any, List[Any]]:
    """Wire the fleet (and churn schedule); returns (fleet, all apps)."""
    from repro.sim.fleet import build_fleet

    population = {k: params[k] for k in ("apps", "mix", "seed", "ticks")}
    fleet = build_fleet(population)
    if workload == "fleet_churn":
        return fleet, schedule_churn(fleet, params)
    return fleet, list(fleet.applications)


def collect_results(fleet: Any, apps: List[Any]) -> Tuple[Dict[str, Any], float]:
    """The run's results, as ``run_fleet`` returns them; and the first
    ledger read's time (the deferred telemetry/ledger flush)."""
    ledger = fleet.ecovisor.ledger
    start = perf_counter()
    energy = ledger.total_energy_wh()
    ledger_read_s = perf_counter() - start
    evicted = fleet.engine.evicted_accounts
    totals = {
        "energy_wh": energy,
        "carbon_g": ledger.total_carbon_g(),
        "cost_usd": ledger.total_cost_usd(),
        "completed_jobs": sum(1 for app in apps if app.is_complete),
        "evicted": {
            name: [acct.energy_wh, acct.carbon_g, acct.cost_usd]
            for name, acct in sorted(evicted.items())
        },
    }
    return totals, ledger_read_s


def recorded_digest(workload: str, size: str) -> Optional[str]:
    with open(DIGESTS_PATH) as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(size)


def run_rep(
    workload: str,
    params: Dict[str, Any],
    read_seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """One build + timed run + results read + post-run ``/v1`` reads.

    ``read_seed`` draws the order in which the ``/v1`` reads visit the
    live apps.  With a ``tracer``, spans are recorded over the run and
    results read only, and the engine's tick profiler splits
    batch/fallback upcalls.
    """
    from repro.rest.server import EcovisorRestServer

    gc.collect()
    start = perf_counter()
    fleet, apps = build(workload, params)
    setup_s = perf_counter() - start
    engine = fleet.engine
    ticks = int(params["ticks"])
    stamps: List[float] = []
    live_per_tick: List[int] = []

    def end_of_tick(_tick) -> None:
        stamps.append(perf_counter())
        live_per_tick.append(len(engine.applications))

    engine.add_observer(end_of_tick)
    if tracer is not None:
        engine.profiler.enabled = True
        first_span = len(tracer.spans)
        tracer.active = True
    gc.collect()
    t0 = perf_counter()
    executed = engine.run(ticks)
    t_run = perf_counter()
    totals, ledger_read_s = collect_results(fleet, apps)
    t_end = perf_counter()
    if tracer is not None:
        tracer.active = False
        layers = span_totals(tracer.spans[first_span:])
        phases = engine.profiler.phase_totals()
    wall_s = t_end - t0
    tick_s = [b - a for a, b in zip([t0] + stamps[:-1], stamps)]

    rest = EcovisorRestServer(fleet.ecovisor)
    names = list(fleet.ecovisor.app_names())
    random.Random(read_seed).shuffle(names)
    request_s: List[float] = []
    bad_status = 0
    for _ in range(STATE_READ_PASSES):
        for name in names:
            r0 = perf_counter()
            response = rest.request("GET", f"/v1/apps/{name}/state")
            request_s.append(perf_counter() - r0)
            if response.status != 200:
                bad_status += 1
    rep = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "run_s": t_run - t0,
        "ledger_read_s": ledger_read_s,
        "executed": executed,
        "ticks": ticks,
        "app_ticks": sum(live_per_tick),
        "tick_s": tick_s,
        "request_s": request_s,
        "bad_status": bad_status,
        "digest": canonical_digest(totals),
    }
    if tracer is not None:
        rep["layers"] = layers
        rep["phases"] = phases
    return rep


def summarize_reps(reps: List[Dict[str, Any]], rss_mb: float) -> Dict[str, Any]:
    """End-to-end metrics over a run's reps.

    Every rep repeats the same deterministic work, so each segment of it
    (one tick, the results read, one ``/v1`` read) is timed once per rep
    and the segment's fastest time over the reps is kept.  Each vCPU of
    the shared host flips between a fast and a ~40% slower state every
    few hundred milliseconds (NOTES.md, "Noise and bounds"); a median
    follows the share of time spent slow, which changes from minute to
    minute, while the fastest of many reps stays in the fast state.  A
    rep's clock is its ticks plus its results read, so the wall time is
    the sum of those segments' times.  Set-up is each rep's build, so it
    is the fastest build: the median build moved 36% between two sets of
    ten runs of the same code, and over nine runs the fastest build
    spread 0.08 of its median against the median build's 0.27.
    """
    tick_s = [min(column) for column in zip(*(r["tick_s"] for r in reps))]
    read_s = min(r["wall_s"] - sum(r["tick_s"]) for r in reps)
    wall = sum(tick_s) + read_s
    requests = [min(column) for column in zip(*(r["request_s"] for r in reps))]
    return {
        "setup_s": min(r["setup_s"] for r in reps),
        "ticks_per_s": reps[0]["ticks"] / wall,
        "us_per_app_tick": wall * 1e6 / reps[0]["app_ticks"],
        "peak_rss_mb": rss_mb,
        "req_p50_ms": median(requests) * 1e3,
        "req_p99_ms": percentile(requests, 99.0) * 1e3,
        "live_tick_p50_ms": median(tick_s) * 1e3,
        "samples": {
            "reps": len(reps),
            "ticks": sum(len(rep["tick_s"]) for rep in reps),
            "requests": sum(len(rep["request_s"]) for rep in reps),
            "distinct_ticks": len(tick_s),
            "distinct_requests": len(requests),
        },
        "engine_run_share": median([r["run_s"] / r["wall_s"] for r in reps]),
        "ledger_read_s": median([r["ledger_read_s"] for r in reps]),
    }
