"""Shared helpers of the repo benchmark: paths, statistics, manifest.

Every module of the benchmark runs from a checkout root that holds
``src/repro``; nothing here is imported by the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Spans and worker outputs land here (inside the checkout, git-ignored).
OUT_DIR = ROOT / ".perfbench_out"


def child_env() -> Dict[str, str]:
    """Environment for worker/server processes: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def require_program() -> None:
    """Fail fast when the checkout does not hold the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC / 'repro'}; run from a "
            "checkout of the repository"
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def calibration_seconds() -> float:
    """Time of a fixed kernel: a pure-Python loop plus a numpy reduction.

    Context only, never a metric: it tracks how fast the host runs the
    two kinds of work the simulator does, so a drifting comparison can
    be told apart from a code change.
    """
    import numpy as np

    data = np.arange(2_000_000, dtype=np.float64)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        total = float(np.sqrt(data).sum())
        best = min(best, time.perf_counter() - start)
    if acc < 0 or total < 0:  # keep both results live
        raise AssertionError("calibration kernel misbehaved")
    return best


def _commit() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=5,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # A checkout exported without git metadata: fingerprint the sources.
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_manifest(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Commit, versions, host and calibration time for one result."""
    import numpy as np

    uname = platform.uname()
    host = f"{uname.system}-{uname.machine}-{platform.processor() or 'cpu'}"
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "host": hashlib.sha256(
            f"{host}|{uname.node}|{os.cpu_count()}".encode()
        ).hexdigest()[:12],
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "calibration_s": round(calibration_seconds(), 6),
    }


def canonical_digest(payload: Any) -> str:
    """SHA-256 over canonical JSON (floats as repr, keys sorted)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def last_json_line(text: str) -> Dict[str, Any]:
    """The JSON object printed on the last non-empty line of ``text``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])
