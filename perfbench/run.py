"""The repo benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 56 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload in a
fresh worker process.  ``--trace 1`` splits the time between an
untraced pass and a traced pass (spans around the public calls into
each layer, see ``tracing.py``), each in its own process, and reports
the per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end values).  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
run manifest and every sample count.  ``--size tiny`` shrinks every
workload for smoke tests.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, ROOT, child_env, last_json_line, metric, require_program, run_manifest  # noqa: E402
from definitions import E2E, OVERHEAD, PER_LAYER, WORKLOADS  # noqa: E402

#: A worker that runs past this is killed and the run fails (a worker
#: measures for at most ``run_seconds`` plus a rep, and a traced run's
#: two workers each measure for half of it, so either way the run ends
#: within three minutes).
WORKER_TIMEOUT_S = 110.0


def run_worker(args: argparse.Namespace, trace: bool, seconds: float) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--size", args.size,
    ]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    return last_json_line(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    require_program()

    manifest = run_manifest(args.workload, args.seed, bool(args.trace))
    # A traced run splits its time between an untraced and a traced pass
    # of the same work, so the difference is the tracing overhead.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_worker(args, trace=False, seconds=seconds)
    correct = plain["correct"]
    errors = list(plain["errors"])
    attempted, failed = plain["attempted"], plain["failed"]
    if args.trace:
        traced = run_worker(args, trace=True, seconds=seconds)
        correct = correct and traced["correct"]
        errors += traced["errors"]
        if "digest" in plain and traced["digest"] != plain["digest"]:
            correct = False
            errors.append(
                f"traced digest {traced['digest']} != untraced {plain['digest']}"
            )
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = dict(traced["layers"])
        for name in OVERHEAD:
            values[f"trace.overhead.{name}"] = traced["e2e"][name] - plain["e2e"][name]
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
        samples = {"untraced": plain["samples"], "traced": traced["samples"]}
    else:
        metrics = {name: metric(plain["e2e"][name], unit) for name, unit in E2E.items()}
        samples = plain["samples"]

    print(json.dumps({"manifest": manifest}, sort_keys=True))
    print(json.dumps({"samples": samples, "context": plain.get("context", {})}, sort_keys=True))
    for line in errors:
        print(f"error: {line}")
    for name, value in metrics.items():
        print(f"{name:<55} {value['value']:>14.6g} {value['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
