"""One measured pass of one workload, in a fresh process.

Prints one JSON line: correctness, counts, end-to-end values with their
sample counts, and (traced passes) the per-layer values.  ``run.py``
starts it; it is not meant to be run by hand, but can be:

    PYTHONPATH=src python perfbench/worker.py --workload fleet_churn \\
        --seed 1 --seconds 5 --trace 0 --size tiny
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Any, Dict, List

from common import OUT_DIR, canonical_digest, peak_rss_mb
from definitions import E2E, WORKLOADS, complete, fleet_layers, gateway_layers

def fleet_pass(args: argparse.Namespace) -> Dict[str, Any]:
    import fleet
    from tracing import Tracer, install_core

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_core(tracer)
    params = fleet.fleet_params(args.workload, args.size)
    expected = fleet.recorded_digest(args.workload, args.size)
    reps: List[Dict[str, Any]] = []
    errors: List[str] = []
    started = perf_counter()
    # Repeat the workload's one input until ``--seconds`` have passed.
    while not reps or perf_counter() - started < args.seconds:
        rep = fleet.run_rep(args.workload, params, args.seed, tracer)
        if rep["digest"] != expected:
            errors.append(f"result digest {rep['digest']} != recorded {expected}")
        if rep["executed"] != rep["ticks"]:
            errors.append(f"ran {rep['executed']} of {rep['ticks']} ticks")
        reps.append(rep)
    summary = fleet.summarize_reps(reps, peak_rss_mb())
    attempted = sum(r["ticks"] + len(r["request_s"]) for r in reps)
    failed = sum(r["ticks"] - r["executed"] + r["bad_status"] for r in reps)
    if failed:
        errors.append(f"{failed} failed ticks or /v1 reads")
    out = {
        "correct": not errors,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "digest": canonical_digest(sorted({r["digest"] for r in reps})),
        "e2e": {name: summary[name] for name in E2E},
        "samples": summary["samples"],
        "context": {
            "engine_run_share_of_clock": summary["engine_run_share"],
            "ledger_read_s_median": summary["ledger_read_s"],
        },
    }
    if tracer is not None:
        out["layers"] = complete(fleet_layers(reps))
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    return out


def gateway_pass(args: argparse.Namespace) -> Dict[str, Any]:
    import gateway

    run = gateway.run(args.size, args.seed, args.seconds, bool(args.trace))
    out = {
        "correct": not run["errors"],
        "errors": run["errors"][:20],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "e2e": run["e2e"],
        "samples": run["samples"],
        "context": {"spawn_to_ready_s": run["spawn_to_ready_s"]},
    }
    if args.trace:
        out["layers"] = complete(gateway_layers(run))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.workload == "gateway_live":
        result = gateway_pass(args)
    else:
        result = fleet_pass(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
