"""Server process of ``gateway_live``: a fleet behind the async gateway.

Builds the fleet, boots :class:`GatewayServer`, and, from the
``measure`` line on stdin, steps the engine through :class:`TickDriver`
at a fixed wall-clock interval until a ``stop`` line arrives.  Prints one JSON line when it is ready
to serve (port, set-up times) and one when it stops (writer-side step
times with their commit times, counters, peak RSS, and the traced layers).

    python perfbench/gateway_server.py --size full --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import threading
from time import monotonic, perf_counter, thread_time
from typing import Any, Dict, List, Tuple

from common import OUT_DIR, median, peak_rss_mb
from tracing import Tracer, install_core, span_totals

#: Fleet definition: ``ticks`` spans a simulated day so no job completes
#: within a run (each app's worker containers persist, so control
#: writes never target a stopped container).  Every tenant runs the
#: carbon-agnostic policy for the same reason.  The fleet is the same
#: for every run (steps of different fleets differ by ~20% in cost);
#: ``--seed`` draws the request schedule.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"apps": 200, "mix": "agnostic", "ticks": 1440, "seed": 0},
    "tiny": {"apps": 12, "mix": "agnostic", "ticks": 1440, "seed": 0},
}

#: Wall-clock pause between tick steps, as ``repro serve --tick-interval``.
#: A dispatched request that arrives during a step waits for it on the
#: writer; at 100 ms pauses ~4% of requests do, so the request p99 is
#: set by the step rather than by rare host stalls (with 1 s pauses it
#: followed the host's steal time, between 2 and 10 ms).
TICK_INTERVAL_S = 0.1

#: Fleet builds per start; set-up reports their median.  Each build but
#: the last is freed before the next one starts, so the server's peak
#: RSS covers one fleet.
SETUP_BUILDS = 3

#: True while the driver's step runs on the writer, so the traced run
#: can tell the per-tick broker pump from the pump after each request.
STEPPING = threading.Event()


def _driver_class():
    from repro.gateway import TickDriver

    class TimedDriver(TickDriver):
        """Records the writer-side duration and commit time of each step.

        A tick commits when the engine returns, just before the broker
        pump hands its events to the streams, so the commit time is
        noted at the start of the step's pump.
        """

        def __init__(self, *args, tracer: Tracer, **kwargs):
            super().__init__(*args, **kwargs)
            self.tracer = tracer
            # (commit time, wall duration, writer-thread CPU time)
            self.steps: List[Tuple[float, float, float]] = []
            self.commits: Dict[int, float] = {}
            self._committed = 0.0
            pump = self._gateway.broker.pump

            def note_commit_and_pump():
                if STEPPING.is_set():
                    self._committed = monotonic()
                return pump()

            self._gateway.broker.pump = note_commit_and_pump

        def _step_on_writer(self) -> None:
            index = self._engine.clock.tick_index
            STEPPING.set()
            cpu = thread_time()
            start = perf_counter()
            try:
                super()._step_on_writer()
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu
                STEPPING.clear()
            self.commits[index] = self._committed
            self.steps.append((self._committed, end - start, cpu))
            self.tracer.record("gateway.driver.step", start, end)

    return TimedDriver


def _install_gateway(tracer: Tracer) -> None:
    """Patch the serving layers (classes and the server module's imports)."""
    import repro.gateway.server as server_mod
    from repro.gateway.cache import SnapshotCache
    from repro.gateway.server import GatewayServer
    from repro.gateway.sse import StreamBroker
    from repro.rest.server import EcovisorRestServer

    tracer.wrap(EcovisorRestServer, "request", "rest.server.request", label=request_kind)
    tracer.wrap(StreamBroker, "pump", "gateway.sse.pump", label=pump_kind)
    tracer.wrap(server_mod, "render_response", "gateway.http.render_response")
    tracer.wrap_async(SnapshotCache, "populate", "gateway.cache.populate")

    original_read = server_mod.__dict__["read_request"]

    class _HeadTimedReader:
        """Notes when the request head has arrived, so the span covers
        parsing rather than the idle wait for a keep-alive request."""

        def __init__(self, reader):
            self._reader = reader
            self.head_at = None

        async def readuntil(self, separator):
            data = await self._reader.readuntil(separator)
            self.head_at = perf_counter()
            return data

        async def readexactly(self, n):
            return await self._reader.readexactly(n)

    async def read_request(reader):
        timed = _HeadTimedReader(reader)
        request = await original_read(timed)
        if request is not None and timed.head_at is not None:
            tracer.record("gateway.http.read_request", timed.head_at, perf_counter())
        return request

    tracer.patch(server_mod, "read_request", read_request)

    original_submit = GatewayServer.__dict__["run_on_writer"]

    async def run_on_writer(self, fn, *args):
        submitted = perf_counter()

        def on_writer():
            tracer.record("gateway.server.writer_wait", submitted, perf_counter())
            return fn(*args)

        return await original_submit(self, on_writer)

    tracer.patch(GatewayServer, "run_on_writer", run_on_writer)


def pump_kind(_broker) -> str:
    """``step`` for the pump inside a tick step, ``request`` otherwise."""
    return "step" if STEPPING.is_set() else "request"


def request_kind(_server, method: str, target: str, *args, **kwargs) -> str:
    """The benchmark's request kind of a ``/v1/apps/{app}/...`` call."""
    path = target.partition("?")[0]
    if method == "POST":
        return "powercap" if path.endswith("/powercap") else "charge_rate"
    return path.rsplit("/", 1)[-1]


async def serve(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.sim.fleet import build_fleet

    params = dict(SIZES[args.size])
    build_s = []
    for build in range(SETUP_BUILDS):
        gc.collect()
        start = perf_counter()
        fleet = build_fleet(params)
        build_s.append(perf_counter() - start)
        if build + 1 < SETUP_BUILDS:
            del fleet
    gc.collect()
    tracer = Tracer()
    if args.trace:
        install_core(tracer)
        _install_gateway(tracer)
        fleet.engine.profiler.enabled = True
    boot_start = perf_counter()
    gateway = GatewayServer(fleet.ecovisor, config=GatewayConfig(port=0))
    await gateway.start()
    driver = _driver_class()(
        gateway, fleet.engine, tick_interval_seconds=TICK_INTERVAL_S, tracer=tracer
    )
    boot_s = perf_counter() - boot_start

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    measuring = asyncio.Event()

    metrics = fleet.ecovisor.metrics
    counter_names = (
        "gateway_etag_hits_total",
        "gateway_etag_misses_total",
        "gateway_sse_queue_dropped_total",
    )
    baseline: Dict[str, float] = {}
    phases_before: Dict[str, float] = {}

    def start_measuring() -> None:
        for name in counter_names:
            baseline[name] = metrics.counter(name).value
        phases_before.update(fleet.engine.profiler.phase_totals())
        tracer.active = bool(args.trace)
        measuring.set()

    def request_stop() -> None:
        if not measuring.is_set():
            start_measuring()
        stop.set()

    def read_commands() -> None:
        # A closed stdin (the client is gone) stops the server too.
        for line in sys.stdin:
            command = line.strip()
            if command == "measure":
                loop.call_soon_threadsafe(start_measuring)
            elif command == "stop":
                break
        loop.call_soon_threadsafe(request_stop)

    threading.Thread(target=read_commands, daemon=True).start()
    print(
        json.dumps(
            {
                "port": gateway.port,
                "build_s": median(build_s),
                "boot_s": boot_s,
                "apps": len(fleet.applications),
            }
        ),
        flush=True,
    )

    async def tick_loop() -> None:
        while not stop.is_set():
            await driver.run(1)

    await measuring.wait()
    # Ticking starts with the measured window, so every run steps the same
    # ticks of the simulated day (tick cost follows the day).
    ticker = asyncio.create_task(tick_loop())
    await stop.wait()
    await ticker
    tracer.active = False
    counters = {
        name: metrics.counter(name).value - baseline[name] for name in counter_names
    }
    await gateway.stop()
    result = {
        "steps": driver.steps,
        "commits": driver.commits,
        "counters": counters,
        "peak_rss_mb": peak_rss_mb(),
        "apps": len(fleet.applications),
    }
    if args.trace:
        result["layers"] = span_totals(tracer.spans)
        result["phases"] = {
            name: value - phases_before[name]
            for name, value in fleet.engine.profiler.phase_totals().items()
        }
        result["durations"] = {
            name: tracer.durations(name)
            for name in (
                "gateway.server.writer_wait",
                "gateway.http.read_request",
                "gateway.http.render_response",
                "gateway.sse.pump.step",
                "gateway.driver.step",
            )
        }
        result["rest_durations"] = {
            name: tracer.durations(name)
            for name in result["layers"]
            if name.startswith("rest.server.request.")
        }
        tracer.dump(OUT_DIR / f"spans-gateway_live-{os.getpid()}-server.json")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = asyncio.run(serve(args))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
