"""The ``gateway_live`` workload: client side.

Starts ``gateway_server.py`` in its own process, warms up, then drives
it for the measured window from this one client process over two
connections:

- one keep-alive connection in an **open loop** at :data:`RATE_RPS`:
  request *i* is due at ``start + i / RATE_RPS`` and is timed from that
  due time, so a stall also charges the requests queued behind it;
- one Server-Sent Events stream of a battery-holding app.

The request mix (:data:`MIX`) is conditional ``GET .../state`` polls of
a few watched apps (the ETag path), dispatched GETs, and a few control
writes, each sent only to apps that hold the resource it writes.
Warm-up (connection open, target discovery, first cache fill, stream
open) is excluded from request latency but counted in set-up.

The client and the server share one CPU (:func:`pin_to_one_cpu`), and
the measured window is cut into :data:`WINDOWS` equal windows whose
request percentiles are reduced to their median over the windows, so a
stall confined to one window does not set the result.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Tuple

from common import HERE, child_env, median, percentile

#: Open-loop request rate and the request mix (kind, weight).  The rate
#: sits well below saturation: a 200-app step holds the writer (and the
#: interpreter lock) for 6-9 ms every ~110 ms, so about 4% of requests
#: queue briefly behind it.
RATE_RPS = {"full": 200.0, "tiny": 100.0}
MIX: Tuple[Tuple[str, float], ...] = (
    ("state", 0.60),
    ("carbon", 0.10),
    ("battery", 0.10),
    ("containers", 0.10),
    ("charge_rate", 0.05),
    ("powercap", 0.05),
)
KINDS = tuple(kind for kind, _ in MIX)

#: Apps whose state the client polls conditionally, and apps whose
#: first worker container receives power-cap writes.
WATCHED_APPS = 8
CAPPED_APPS = 20

#: Statuses each kind may answer with; anything else is a failure.
EXPECTED = {kind: {200} for kind in KINDS}
EXPECTED["state"] = {200, 304}

SERVER_TIMEOUT_S = 60.0

#: The measured window is cut into this many equal windows, none shorter
#: than :data:`MIN_WINDOW_S` (a short run has fewer).
WINDOWS = 6
MIN_WINDOW_S = 2.5


def pin_to_one_cpu() -> None:
    """Keep this process and the server it starts on one CPU.

    On a virtual machine a request handed to a process on another vCPU
    waits until the hypervisor runs that vCPU again; on an overcommitted
    host that wait, not the gateway, set the request latency (p50 from
    ~2 ms to 7-96 ms between otherwise identical runs).  On one CPU every
    hand-off is a local wake-up, and the server's steps, its request
    handling and the client take turns as they do under the GIL anyway.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def window_count(seconds: float) -> int:
    return max(1, min(WINDOWS, int(seconds / MIN_WINDOW_S)))


def windowed(values: List[float], windows: int, q: float) -> float:
    """Median over ``windows`` equal consecutive slices of each slice's
    ``q``-th percentile."""
    n = len(values)
    return median(
        [percentile(values[w * n // windows:(w + 1) * n // windows], q) for w in range(windows)]
    )


class Server:
    """The gateway server process, driven over its stdin/stdout."""

    def __init__(self, size: str, trace: bool):
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "gateway_server.py"),
                "--size", size,
                "--trace", str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        readable, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.close()
            raise RuntimeError("gateway server was not ready in time")
        self.ready: Dict[str, Any] = json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self) -> Dict[str, Any]:
        """Stop the server and return its final report."""
        self.send("stop")
        out, _ = self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        lines = [line for line in out.splitlines() if line.strip()]
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"gateway server failed (exit {self.proc.returncode})")
        return json.loads(lines[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=SERVER_TIMEOUT_S)


class Stream:
    """One SSE subscription read on a background thread."""

    def __init__(self, port: int, app: str):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SERVER_TIMEOUT_S)
        self.sock.sendall(
            f"GET /v1/apps/{app}/events/stream?cursor=0 HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n\r\n".encode()
        )
        self.frames: List[Tuple[float, Optional[int], str, str]] = []
        self.opened = threading.Event()
        self.status = 0
        self.error: Optional[str] = None
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        reader = self.sock.makefile("rb")
        try:
            self.status = int(reader.readline().split()[1])
            while reader.readline() not in (b"\r\n", b""):
                pass
            fields: Dict[str, str] = {}
            for raw in reader:
                line = raw.decode("utf-8").rstrip("\n")
                if line:
                    if not line.startswith(":"):
                        key, _, value = line.partition(": ")
                        fields[key] = value
                    continue
                if fields:
                    seq = int(fields["id"]) if "id" in fields else None
                    self.frames.append(
                        (monotonic(), seq, fields.get("event", ""), fields.get("data", ""))
                    )
                    if fields.get("event") == "stream_open":
                        self.opened.set()
                fields = {}
        except (OSError, ValueError, IndexError) as exc:
            self.error = repr(exc)
        finally:
            self.opened.set()

    def close(self) -> None:
        if self.sock.fileno() == -1:
            return
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.thread.join(timeout=SERVER_TIMEOUT_S)


def check_stream(frames: List[Tuple[float, Optional[int], str, str]]) -> List[str]:
    """Event ids must be contiguous unless the stream reported a gap."""
    errors: List[str] = []
    previous: Optional[int] = None
    for _at, seq, event, _data in frames:
        if event in ("queue_dropped", "journal_dropped"):
            previous = None
            continue
        if seq is None:
            continue
        if previous is not None and seq != previous + 1:
            errors.append(f"SSE id {seq} follows {previous} with no gap notice")
        previous = seq
    return errors


class Client:
    """One keep-alive connection and the ETag last seen per polled path."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=SERVER_TIMEOUT_S)
        self.etags: Dict[str, str] = {}

    def call(self, method: str, path: str, body: Optional[dict] = None,
             etag_key: Optional[str] = None) -> Tuple[int, bytes]:
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        if etag_key is not None and etag_key in self.etags:
            headers["If-None-Match"] = self.etags[etag_key]
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if etag_key is not None and response.status == 200:
            etag = response.getheader("ETag")
            if etag:
                self.etags[etag_key] = etag
        return response.status, data


def discover(client: Client, apps: int) -> Tuple[List[str], List[str], List[Tuple[str, str]]]:
    """All apps, the battery holders, and a worker container of some apps."""
    status, data = client.call("GET", "/v1/admin/apps")
    if status != 200:
        raise RuntimeError(f"admin app list answered {status}")
    entries = sorted(json.loads(data)["apps"], key=lambda entry: entry["name"])
    if len(entries) != apps:
        raise RuntimeError(f"expected {apps} apps, the gateway lists {len(entries)}")
    names = [entry["name"] for entry in entries]
    batteries = [entry["name"] for entry in entries if entry["battery_fraction"] > 0]
    containers = []
    for name in names[:: max(1, apps // CAPPED_APPS)]:
        status, data = client.call("GET", f"/v1/apps/{name}/containers")
        if status != 200:
            raise RuntimeError(f"container list of {name} answered {status}")
        workers = [c["id"] for c in json.loads(data)["containers"] if c["role"] == "worker"]
        if workers:
            containers.append((name, workers[0]))
    return names, batteries, containers


def schedule(seed: int, count: int, names: List[str], batteries: List[str],
             containers: List[Tuple[str, str]]) -> List[Tuple[str, str, str, Optional[dict]]]:
    """The seeded request list: (kind, method, path, body)."""
    rng = random.Random(seed)
    watched = names[:: max(1, len(names) // WATCHED_APPS)][:WATCHED_APPS]
    weights = [w for _, w in MIX]
    out = []
    for kind in rng.choices(KINDS, weights=weights, k=count):
        if kind == "state":
            app = rng.choice(watched)
            out.append((kind, "GET", f"/v1/apps/{app}/state", None))
        elif kind in ("carbon", "containers"):
            out.append((kind, "GET", f"/v1/apps/{rng.choice(names)}/{kind}", None))
        elif kind == "battery":
            out.append((kind, "GET", f"/v1/apps/{rng.choice(batteries)}/battery", None))
        elif kind == "charge_rate":
            body = {"watts": round(rng.uniform(0.0, 2.0), 3)}
            app = rng.choice(batteries)
            out.append((kind, "POST", f"/v1/apps/{app}/battery/charge_rate", body))
        else:
            app, cid = rng.choice(containers)
            body = {"watts": round(rng.uniform(8.0, 30.0), 3)}
            out.append((kind, "POST", f"/v1/apps/{app}/containers/{cid}/powercap", body))
    return out


def run(size: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Warm up, drive the open loop for ``seconds``, collect the results."""
    spawn = perf_counter()
    pin_to_one_cpu()
    server: Optional[Server] = None
    stream: Optional[Stream] = None
    try:
        server = Server(size, trace)
        warm_start = perf_counter()
        client = Client(server.ready["port"])
        names, batteries, containers = discover(client, server.ready["apps"])
        if not batteries or not containers:
            raise RuntimeError("fleet has no battery holder or worker container")
        rate = RATE_RPS[size]
        requests = schedule(seed, int(rate * seconds), names, batteries, containers)
        for kind, _method, path, _body in requests:
            if kind == "state" and path not in client.etags:
                client.call("GET", path, etag_key=path)
        stream = Stream(server.ready["port"], batteries[0])
        stream.opened.wait(timeout=SERVER_TIMEOUT_S)
        warm_up_s = perf_counter() - warm_start

        server.send("measure")
        # The client's own collector must not pause the open loop.
        gc.collect()
        gc.disable()
        measured_from = monotonic()
        latency: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        # Every request's latency in due order, None for a failure until
        # the length of the measured window is known.
        ordered: List[Optional[float]] = []
        late: List[float] = []
        failures: List[str] = []
        start = perf_counter()
        done = start
        for i, (kind, method, path, body) in enumerate(requests):
            due = start + i / rate
            now = perf_counter()
            if now < due:
                time.sleep(due - now)
                now = perf_counter()
            # The generator's own lateness: beyond the due time and the
            # previous response (one connection sends one request at a time).
            late.append(now - max(due, done))
            try:
                status, _ = client.call(method, path, body, etag_key=path if kind == "state" else None)
            except (OSError, http.client.HTTPException) as exc:
                status = 0
                failures.append(f"{kind} {path}: {exc!r}")
                client = Client(server.ready["port"])
            done = perf_counter()
            if status in EXPECTED[kind]:
                latency[kind].append(done - due)
                ordered.append(done - due)
            else:
                ordered.append(None)
                if status:
                    failures.append(f"{kind} {method} {path} answered {status}")
        measured_s = perf_counter() - start
        measured_to = monotonic()
        gc.enable()
        client.conn.close()
        stream.close()
        report = server.finish()
    finally:
        if stream is not None:
            stream.close()
        if server is not None:
            server.close()

    errors = list(failures)
    if stream.status != 200 or stream.error is not None:
        errors.append(f"SSE stream status {stream.status} error {stream.error}")
    errors.extend(check_stream(stream.frames))
    commits = {int(k): v for k, v in report["commits"].items()}
    lags = []
    frames = 0
    for at, seq, event, data in stream.frames:
        if seq is None or not measured_from <= at <= measured_to:
            continue
        frames += 1
        tick = int(json.loads(data)["time_s"] // 60.0)
        if tick in commits and commits[tick] >= measured_from:
            lags.append(at - commits[tick])
    # A failed request misses any latency limit: it counts as late by the
    # whole measured window.
    ranked = [measured_s if t is None else t for t in ordered]
    failed = sum(1 for t in ordered if t is None)
    windows = window_count(measured_s)
    # The step's writer-thread CPU time: its wall time also holds the
    # request handling it yields the interpreter lock to, and the time a
    # busy host keeps the vCPU from running at all.
    steps = [
        cpu for committed, _wall, cpu in report["steps"]
        if measured_from <= committed <= measured_to
    ]
    step_p50 = median(steps)
    return {
        "attempted": len(requests),
        "failed": failed,
        "errors": errors,
        "spawn_to_ready_s": warm_start - spawn,
        "measured_s": measured_s,
        "latency": latency,
        "late": late,
        "lags": lags,
        "frames": frames,
        "report": report,
        "e2e": {
            "setup_s": server.ready["build_s"] + server.ready["boot_s"] + warm_up_s,
            "ticks_per_s": len(steps) / measured_s,
            "us_per_app_tick": step_p50 * 1e6 / report["apps"],
            "peak_rss_mb": report["peak_rss_mb"],
            "req_p50_ms": windowed(ranked, windows, 50.0) * 1e3,
            "req_p99_ms": windowed(ranked, windows, 99.0) * 1e3,
            "live_tick_p50_ms": step_p50 * 1e3,
        },
        "samples": {
            "requests": len(ranked),
            "ticks": len(steps),
            "windows": windows,
            "sse_lags": len(lags),
        },
    }
