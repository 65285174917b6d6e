"""Span recording for the traced run, from the benchmark's own files.

The traced run patches the public calls into each layer of the program
(``sim``, ``core``, ``gateway``, ``rest``) with wrappers that record one
span per call: name, start, end and the enclosing span on the same
thread.  Spans stay in memory and are written out when the run ends.
A layer's self time is its span time minus the time of its child spans.

Policy instances are never wrapped: the upcall plane routes a tenant to
its batched or per-app path by checking that the registered callback is
the policy's own ``on_tick``, so a wrapper there would change the path.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, int, float, float]  # id, name, parent id, start, end


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a root span timed outside a wrapper (async boundaries)."""
        if self.active:
            self.spans.append((next(self._ids), name, -1, start, end))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` for the rest of this (traced) process."""
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        label: Optional[Callable[..., str]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr`` (sync only).

        ``label`` maps the call's arguments to a suffix of the span name
        (the request kind of a REST dispatch).
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_name = name if label is None else f"{name}.{label(*args)}"
                tracer.spans.append((span_id, span_name, parent, start, end))

        self.patch(owner, attr, traced)

    def wrap_async(self, owner: Any, attr: str, name: str) -> None:
        """Record a root span around every await of ``owner.attr``.

        Coroutines interleave on one thread, so async spans carry no
        parent; they time the await from call to result.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.record(name, start, perf_counter())

        self.patch(owner, attr, traced)

    # -- reduction -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [end - start for _s, n, _p, start, end in self.spans if n == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "parent", "start_s", "end_s"],
                    "spans": self.spans,
                },
                fh,
            )


def span_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, _name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, _parent, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time.get(sid, 0.0)
    return out


def install_core(tracer: Tracer) -> None:
    """Patch the ``sim`` and ``core`` layer entry points."""
    from repro.core.ecovisor import Ecovisor
    from repro.core.fleetarrays import FleetArrays
    from repro.core.upcalls import UpcallPlane
    from repro.sim.engine import SimulationEngine

    tracer.wrap(SimulationEngine, "run", "sim.engine.run")
    for attr in ("begin_tick", "settle", "admit_app", "evict_app", "set_share"):
        tracer.wrap(Ecovisor, attr, f"core.ecovisor.{attr}")
    tracer.wrap(FleetArrays, "begin", "core.fleetarrays.begin")
    tracer.wrap(FleetArrays, "settle", "core.fleetarrays.settle")
    for attr in ("invoke_policies", "step_workloads", "finish_workloads"):
        tracer.wrap(UpcallPlane, attr, f"core.upcalls.{attr}")
