"""Columnar fleet state: struct-of-arrays over the registered apps.

:mod:`repro.core.tracecache` vectorizes the *trace* dimension (one primed
array entry per tick per signal).  This module extends the same idiom to
the *app* dimension: one preallocated numpy row per registered
application for solar allocation, grid draw, and the cumulative ledger
figures, updated in bulk inside ``Ecovisor.begin_tick``/``settle``
instead of once per app per tick.

Design rules (pinned by ``tests/integration/test_columnar_parity.py``):

- **Byte parity.**  Every float the columnar path produces — snapshot
  fields, settlements, telemetry points, event payloads — must be
  bit-identical to the per-app object path.  The kernel therefore
  replays the exact arithmetic of ``VirtualEnergySystem.settle``,
  ``Battery.charge``/``discharge``, and
  ``ServerPowerModel.container_power`` (same operand order, same
  associativity); the stateful battery figures (level, throughput
  meters, last charge/discharge) are written back into each
  ``VirtualBattery`` after the bulk pass so the objects stay the source
  of truth at tick boundaries.
- **Array identity.**  Rows live in persistent arrays; admission
  acquires a row from a free list, eviction releases it, and growth
  uses ``ndarray.resize`` so the arrays keep their identity.  Snapshots
  always hold fancy-indexed *copies*, never views, so growth can never
  dangle a consumer.
- **Lazy materialization.**  Per-app ``EnergyState`` objects are built
  only at the observation boundary (``EcovisorAPI.state()``, signal
  callbacks, REST, telemetry export) as
  :class:`~repro.core.state.RowEnergyState` views over a
  :class:`FleetSnapshot`.  Telemetry and ledger writes are buffered as
  :class:`_TickRecord` objects and flushed on first read through the
  database/ledger flush hooks.  The flush replays each record by column
  and logs lazy references, so a per-app ``TickSettlement`` is built
  only when a consumer reads the settlement history.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.container import Container
from repro.core.accounting import TickSettlement
from repro.core.events import (
    BatteryEmptyEvent,
    BatteryFullEvent,
    Event,
    SolarChangeEvent,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cop import ContainerOrchestrationPlatform
    from repro.core.ecovisor import Ecovisor

#: Initial row capacity; arrays double (in place) when the fleet outgrows it.
INITIAL_CAPACITY = 64


class _ContainerCache:
    """Vectorized view of the platform's container population.

    Rebuilt whenever the structural cache key — ``(platform.version,
    Container._mutation_epoch)`` — changes (launch/stop/start/resize);
    per-tick quantities (demand and cap utilizations) are re-read on
    every :meth:`powers` call, mirroring the scalar power model.
    """

    __slots__ = (
        "key",
        "clist",
        "ids",
        "cf",
        "cf_idle",
        "cpu_range",
        "gpu_range",
        "run_mask",
        "run_epoch",
        "power_mask",
        "gpu_mask",
        "positions",
        "cont_ids",
        "running_positions",
        "baseline_w",
    )

    def __init__(
        self, platform: "ContainerOrchestrationPlatform", key: Tuple[int, int]
    ):
        self.key = key
        clist = platform.containers()
        self.clist = clist
        self.ids = tuple(c.id for c in clist)
        server = platform.config.server
        n = len(clist)
        cf = np.fromiter(map(attrgetter("cores"), clist), dtype=float, count=n)
        # Same per-element division as the scalar model's core_fraction.
        cf = cf / server.cores
        self.cf = cf
        self.cf_idle = cf * server.idle_power_w
        self.cpu_range = server.max_cpu_power_w - server.idle_power_w
        self.gpu_range = (
            server.max_gpu_power_w - server.max_cpu_power_w
            if server.has_gpu
            else 0.0
        )
        run = np.fromiter(
            map(attrgetter("is_running"), clist), dtype=bool, count=n
        )
        self.run_mask = run
        self.run_epoch = Container._runstate_epoch
        placed = np.fromiter(
            (c.server_name is not None for c in clist), dtype=bool, count=n
        )
        # The scalar path attributes 0.0 W to stopped or unplaced
        # containers; running-but-unplaced ones still appear in per-app
        # readings (with 0.0), hence two distinct masks.
        self.power_mask = run & placed
        self.gpu_mask = np.fromiter(
            map(attrgetter("has_gpu"), clist), dtype=bool, count=n
        )
        self._index_running(run)
        self.baseline_w = platform.baseline_power_w()

    def _index_running(self, run: np.ndarray) -> None:
        """Per-app position/id maps over the running subset of ``clist``."""
        clist = self.clist
        running_positions = np.flatnonzero(run).tolist()
        positions: Dict[str, List[int]] = {}
        cont_ids: Dict[str, List[str]] = {}
        for p in running_positions:
            c = clist[p]
            name = c._app_name
            positions.setdefault(name, []).append(p)
            cont_ids.setdefault(name, []).append(c._id)
        self.positions: Dict[str, Tuple[int, ...]] = {
            name: tuple(v) for name, v in positions.items()
        }
        self.cont_ids: Dict[str, Tuple[str, ...]] = {
            name: tuple(v) for name, v in cont_ids.items()
        }
        self.running_positions = tuple(running_positions)

    @classmethod
    def extended(
        cls,
        prev: "_ContainerCache",
        platform: "ContainerOrchestrationPlatform",
        key: Tuple[int, int],
    ) -> Optional["_ContainerCache"]:
        """Append-only rebuild: reuse ``prev`` for the common launch case.

        An unchanged mutation epoch means no container stopped, started,
        or resized since ``prev`` was built — the platform's population
        only grew, so ``prev``'s containers are an exact prefix and every
        derived array extends instead of rebuilding (the launch ramp of
        a large fleet rebuilds this cache every tick otherwise).  Returns
        None when the prefix invariant does not hold.
        """
        clist = platform.containers()
        old_n = len(prev.clist)
        n = len(clist)
        if n < old_n or (old_n and clist[old_n - 1] is not prev.clist[-1]):
            return None
        new = clist[old_n:]
        obj = cls.__new__(cls)
        obj.key = key
        obj.clist = clist
        obj.ids = prev.ids + tuple(c.id for c in new)
        server = platform.config.server
        k = len(new)
        cf_new = (
            np.fromiter((c.cores for c in new), dtype=float, count=k)
            / server.cores
        )
        obj.cf = np.concatenate([prev.cf, cf_new])
        obj.cf_idle = np.concatenate(
            [prev.cf_idle, cf_new * server.idle_power_w]
        )
        obj.cpu_range = prev.cpu_range
        obj.gpu_range = prev.gpu_range
        run_new = np.fromiter(
            (c.is_running for c in new), dtype=bool, count=k
        )
        placed_new = np.fromiter(
            (c.server_name is not None for c in new), dtype=bool, count=k
        )
        obj.run_mask = np.concatenate([prev.run_mask, run_new])
        obj.run_epoch = Container._runstate_epoch
        obj.power_mask = np.concatenate(
            [prev.power_mask, run_new & placed_new]
        )
        obj.gpu_mask = np.concatenate(
            [
                prev.gpu_mask,
                np.fromiter((c.has_gpu for c in new), dtype=bool, count=k),
            ]
        )
        positions = dict(prev.positions)
        cont_ids = dict(prev.cont_ids)
        run_pos = list(prev.running_positions)
        for p in range(old_n, n):
            c = clist[p]
            if not c.is_running:
                continue
            run_pos.append(p)
            name = c.app_name
            positions[name] = positions.get(name, ()) + (p,)
            cont_ids[name] = cont_ids.get(name, ()) + (c.id,)
        obj.positions = positions
        obj.cont_ids = cont_ids
        obj.running_positions = tuple(run_pos)
        obj.baseline_w = platform.baseline_power_w()
        return obj

    @classmethod
    def resized(
        cls,
        prev: "_ContainerCache",
        platform: "ContainerOrchestrationPlatform",
        key: Tuple[int, int],
    ) -> "_ContainerCache":
        """Same-population rebuild: only the mutable columns re-derive.

        An unchanged topology version means no container launched or was
        removed since ``prev`` — the population and its order are exactly
        ``prev.clist`` — so identity-derived fields (ids, GPU mask) carry
        over, and when the running set is also unchanged (the common
        resize-only scale) the per-app position maps carry over too.
        """
        clist = prev.clist
        n = len(clist)
        obj = cls.__new__(cls)
        obj.key = key
        obj.clist = clist
        obj.ids = prev.ids
        server = platform.config.server
        cf = np.fromiter(map(attrgetter("cores"), clist), dtype=float, count=n)
        cf = cf / server.cores
        obj.cf = cf
        obj.cf_idle = cf * server.idle_power_w
        obj.cpu_range = prev.cpu_range
        obj.gpu_range = prev.gpu_range
        obj.gpu_mask = prev.gpu_mask
        run_epoch = Container._runstate_epoch
        obj.run_epoch = run_epoch
        if prev.run_epoch == run_epoch:
            # Resize-only epoch: no container started or stopped, so the
            # run mask — and every index derived from it — carries over.
            obj.run_mask = prev.run_mask
            obj.power_mask = prev.power_mask
            obj.positions = prev.positions
            obj.cont_ids = prev.cont_ids
            obj.running_positions = prev.running_positions
        else:
            run = np.fromiter(
                map(attrgetter("is_running"), clist), dtype=bool, count=n
            )
            obj.run_mask = run
            placed = np.fromiter(
                (c.server_name is not None for c in clist),
                dtype=bool,
                count=n,
            )
            obj.power_mask = run & placed
            if np.array_equal(run, prev.run_mask):
                obj.positions = prev.positions
                obj.cont_ids = prev.cont_ids
                obj.running_positions = prev.running_positions
            else:
                obj._index_running(run)
        obj.baseline_w = platform.baseline_power_w()
        return obj

    def powers(self) -> np.ndarray:
        """Attributed power of every container, one vectorized pass.

        Bit-identical to ``ServerPowerModel.container_power``: the
        breakdown sums as ``(idle + cpu) + gpu`` with ``cpu = (cf * u) *
        range``, and utilizations are already clamped at their setters.
        """
        clist = self.clist
        n = len(clist)
        du = np.fromiter(
            (c.demand_utilization for c in clist), dtype=float, count=n
        )
        cap = np.fromiter(
            (c.cap_utilization for c in clist), dtype=float, count=n
        )
        u = np.where(self.power_mask, np.minimum(du, cap), 0.0)
        gu = np.where(self.gpu_mask, u, 0.0)
        p = (self.cf_idle + (self.cf * u) * self.cpu_range) + (
            self.cf * gu
        ) * self.gpu_range
        return np.where(self.power_mask, p, 0.0)


class FleetSnapshot:
    """One tick phase's dense observation of the whole fleet.

    Built twice per tick (post-begin, post-settle); every per-app
    :class:`~repro.core.state.RowEnergyState` view of the phase indexes
    into this one object.  All arrays are copies (fancy-indexed out of
    the persistent rows), so later ticks and row churn cannot mutate a
    retained snapshot's scalar fields.

    Container readings materialize lazily on a begin-phase snapshot
    (policies rarely read them mid-upcall) and are captured eagerly at
    settlement, where the readings are already in hand.
    """

    __slots__ = (
        "epoch",
        "names",
        "apps",
        "tick_index",
        "time_s",
        "duration_s",
        "carbon",
        "price",
        "has_market",
        "settled",
        "solar",
        "grid",
        "tot_e",
        "tot_c",
        "tot_cost",
        "knob_target",
        "knob_maxdis",
        "fleet",
        "platform",
        "_cc",
        "_powers_list",
    )

    def __init__(
        self,
        *,
        epoch: int,
        names: List[str],
        apps: list,
        tick_index: int,
        time_s: float,
        duration_s: float,
        carbon: float,
        price: float,
        has_market: bool,
        settled: bool,
        solar: np.ndarray,
        grid: np.ndarray,
        tot_e: np.ndarray,
        tot_c: np.ndarray,
        tot_cost: np.ndarray,
        knob_target: np.ndarray,
        knob_maxdis: np.ndarray,
        fleet: "FleetArrays",
        platform: "ContainerOrchestrationPlatform",
        cc: Optional[_ContainerCache],
        powers_list: Optional[List[float]],
    ):
        self.epoch = epoch
        self.names = names
        self.apps = apps
        self.tick_index = tick_index
        self.time_s = time_s
        self.duration_s = duration_s
        self.carbon = carbon
        self.price = price
        self.has_market = has_market
        self.settled = settled
        self.solar = solar
        self.grid = grid
        self.tot_e = tot_e
        self.tot_c = tot_c
        self.tot_cost = tot_cost
        self.knob_target = knob_target
        self.knob_maxdis = knob_maxdis
        self.fleet = fleet
        self.platform = platform
        self._cc = cc
        self._powers_list = powers_list

    def container_readings_for(
        self, index: int
    ) -> Tuple[Tuple[str, ...], List[float]]:
        """(ids, watts) of one app's running containers for this phase."""
        cc = self._cc
        if cc is None:
            # Begin-phase snapshot: materialize on first access, at
            # access-time utilizations (the documented lazy-view rule).
            cc = self._cc = self.fleet.container_cache(self.platform)
            self._powers_list = cc.powers().tolist()
        name = self.names[index]
        ids = cc.cont_ids.get(name)
        if ids is None:
            return (), []
        powers = self._powers_list
        return ids, [powers[p] for p in cc.positions[name]]


class _TickRecord:
    """One settled tick's buffered telemetry and ledger payload.

    Everything the object path writes eagerly into the time-series
    database and carbon ledger during ``settle`` is parked here instead
    and replayed (in tick order) by ``Ecovisor._flush_pending`` on the
    first database/ledger read.

    The settlement columns (``demand_wh`` .. ``cost``) are read-only
    arrays that outlive the replay: account logs and the apps' virtual
    energy systems hold ``(record, index)`` references, and
    :meth:`settlement` builds a row's :class:`TickSettlement` on first
    use.  The telemetry-only fields are dropped once replayed.
    """

    __slots__ = (
        "time_s",
        "duration_s",
        "carbon",
        "price",
        "names",
        "demand_wh",
        "served",
        "unmet",
        "solar_avail",
        "solar_used",
        "s2b",
        "curtailed",
        "battery_wh",
        "grid_load",
        "g2b",
        "carbon_g",
        "cost",
        "settlements",
        # Telemetry only (None after the replay).
        "apps",
        "demand_w",
        "counts",
        "last_grid",
        "batt_tel",
        "cont_ids",
        "cont_powers",
        "cont_carbon",
        "cluster_power",
    )

    #: The settlement columns, in ``TickSettlement`` field order.
    COLUMNS = (
        "demand_wh",
        "served",
        "unmet",
        "solar_avail",
        "solar_used",
        "s2b",
        "curtailed",
        "battery_wh",
        "grid_load",
        "g2b",
        "carbon_g",
        "cost",
    )

    def settlement(self, i: int) -> TickSettlement:
        """Row ``i``'s settlement, built from the columns once and cached.

        The kernel's figures are conserving by construction, so, like
        ``ledger.record(validate=False)``, the build skips ``validate``.
        """
        s = self.settlements[i]
        if s is None:
            s = self.settlements[i] = TickSettlement(
                app_name=self.names[i],
                time_s=self.time_s,
                duration_s=self.duration_s,
                carbon_intensity_g_per_kwh=self.carbon,
                demand_wh=self.demand_wh.item(i),
                served_wh=self.served.item(i),
                unmet_wh=self.unmet.item(i),
                solar_available_wh=self.solar_avail.item(i),
                solar_used_wh=self.solar_used.item(i),
                solar_to_battery_wh=self.s2b.item(i),
                curtailed_wh=self.curtailed.item(i),
                battery_discharge_wh=self.battery_wh.item(i),
                grid_load_wh=self.grid_load.item(i),
                grid_to_battery_wh=self.g2b.item(i),
                carbon_g=self.carbon_g.item(i),
                price_usd_per_kwh=self.price,
                cost_usd=self.cost.item(i),
            )
        return s

    def drop_telemetry(self) -> None:
        """Release the fields only the replay reads."""
        self.apps = self.demand_w = self.counts = self.last_grid = None
        self.batt_tel = self.cont_ids = self.cont_powers = None
        self.cont_carbon = self.cluster_power = None


class FleetArrays:
    """Persistent struct-of-arrays fleet state plus the bulk tick kernel.

    Row lifecycle: :meth:`acquire_row` (admission) pops from a LIFO free
    list, :meth:`release_row` (eviction) pushes back — an evict-then-
    readmit reuses the hottest row.  :meth:`_grow` doubles capacity in
    place (``ndarray.resize``), preserving array identity.

    ``dirty`` marks the dense per-app caches (row gather indices, solar
    fractions, thresholds, grid shares) stale; any admission, eviction,
    or share rebalance sets it and the next tick phase re-derives them
    in one :meth:`refresh` pass, bumping ``epoch`` so stale snapshots
    are never indexed with fresh row assignments.
    """

    def __init__(self, capacity: int = INITIAL_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.solar_w = np.zeros(capacity)
        self.grid_w = np.zeros(capacity)
        self.prev_solar = np.zeros(capacity)
        self.tot_e = np.zeros(capacity)
        self.tot_c = np.zeros(capacity)
        self.tot_cost = np.zeros(capacity)
        self._free = list(range(capacity - 1, -1, -1))
        self.dirty = True
        self.epoch = 0
        # Row-lifecycle counters, read by the metrics registry through
        # collect-time callbacks (no metric objects in this hot path).
        # "Reused" means the acquired row had been released before —
        # the free-list recycling an evict-then-readmit churn exercises.
        self.rows_acquired = 0
        self.rows_released = 0
        self.rows_reused = 0
        self.grow_count = 0
        self._released_ever: set = set()
        self.pending: List[_TickRecord] = []
        # Deferred-flush counters, bumped once per flush by the replay.
        self.flushes = 0
        self.flush_records = 0
        self.flush_seconds = 0.0
        self.current_snap: Optional[FleetSnapshot] = None
        self._cc: Optional[_ContainerCache] = None
        # Dense per-app caches, rebuilt by refresh() (insertion order).
        self.apps: list = []
        self.names: List[str] = []
        self.rows = np.zeros(0, dtype=np.intp)
        self.frac_solar = np.zeros(0)
        self.thresh = np.zeros(0)
        self.has_solar = np.zeros(0, dtype=bool)
        self.grid_share_w = np.zeros(0)
        self.batt_apps: list = []
        self.batt_objs: list = []
        # Battery sub-fleet caches (parallel to batt_apps): config-derived
        # scalars are fixed for a VirtualBattery's lifetime, and any swap
        # (admission, share rebalance) sets `dirty`, so they refresh with
        # the other dense caches.  Live state (level, knobs) is gathered
        # per settle instead.
        self.batt_idx = np.zeros(0, dtype=np.intp)
        self.batt_vbs: list = []
        self.batt_cap = np.zeros(0)
        self.batt_floor = np.zeros(0)
        self.batt_ceff = np.zeros(0)
        self.batt_deff = np.zeros(0)
        self.batt_maxc = np.zeros(0)
        self.batt_maxd = np.zeros(0)
        # Per-(container cache, names) gather plan for settle(); see
        # _gather_plan().
        # Keyed on the *positions* dict identity, not the cache object:
        # resize-only cache rebuilds carry the position maps over
        # unchanged, and the gather plan depends on nothing else.
        self._plan_positions: Optional[dict] = None
        self._plan_names: Optional[List[str]] = None
        self._plan: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def acquire_row(self) -> int:
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.rows_acquired += 1
        if row in self._released_ever:
            self.rows_reused += 1
        return row

    def release_row(self, row: int) -> None:
        self._free.append(row)
        self.rows_released += 1
        self._released_ever.add(row)

    def _grow(self) -> None:
        self.grow_count += 1
        new_capacity = self.capacity * 2
        for arr in (
            self.solar_w,
            self.grid_w,
            self.prev_solar,
            self.tot_e,
            self.tot_c,
            self.tot_cost,
        ):
            # In-place growth keeps the ndarray's identity; snapshots
            # hold copies (never views), so refcheck can stay off.
            arr.resize(new_capacity, refcheck=False)
        self._free.extend(range(new_capacity - 1, self.capacity - 1, -1))
        self.capacity = new_capacity

    # ------------------------------------------------------------------
    # Dense cache refresh
    # ------------------------------------------------------------------
    def refresh(self, eco: "Ecovisor") -> None:
        """Re-derive the dense caches from the registered app table.

        Newly admitted apps are assigned rows seeded from their live
        virtual energy system and (flushed) ledger account; surviving
        rows keep their accumulated figures untouched.
        """
        # The ledger must be current before seeding cumulative columns.
        eco._flush_pending()
        apps = list(eco._apps.values())
        ledger = eco._ledger
        for app in apps:
            if app.row < 0:
                row = self.acquire_row()
                app.row = row
                ves = app.ves
                self.solar_w[row] = ves.solar_power_w
                self.grid_w[row] = ves.grid_power_w
                self.prev_solar[row] = app.previous_solar_w
                account = ledger.account(app.name)
                self.tot_e[row] = account.energy_wh
                self.tot_c[row] = account.carbon_g
                self.tot_cost[row] = account.cost_usd
        n = len(apps)
        self.apps = apps
        self.names = [app.name for app in apps]
        self.rows = np.fromiter((app.row for app in apps), dtype=np.intp, count=n)
        self.frac_solar = np.fromiter(
            (app.ves.share.solar_fraction for app in apps), dtype=float, count=n
        )
        self.thresh = np.fromiter(
            (app.solar_event_threshold_w for app in apps), dtype=float, count=n
        )
        self.has_solar = np.fromiter(
            (app.has_solar_share for app in apps), dtype=bool, count=n
        )
        self.grid_share_w = np.fromiter(
            (app.ves.share.grid_power_w for app in apps), dtype=float, count=n
        )
        self.batt_apps = [
            (i, app) for i, app in enumerate(apps) if app.ves.battery is not None
        ]
        self.batt_objs = [app for _, app in self.batt_apps]
        m = len(self.batt_apps)
        self.batt_idx = np.fromiter(
            (i for i, _ in self.batt_apps), dtype=np.intp, count=m
        )
        vbs = [app.ves.battery for _, app in self.batt_apps]
        self.batt_vbs = vbs
        self.batt_cap = np.fromiter(
            (vb.battery.capacity_wh for vb in vbs), dtype=float, count=m
        )
        self.batt_floor = np.fromiter(
            (vb.battery.floor_wh for vb in vbs), dtype=float, count=m
        )
        self.batt_ceff = np.fromiter(
            (vb.battery.config.charge_efficiency for vb in vbs), dtype=float, count=m
        )
        self.batt_deff = np.fromiter(
            (vb.battery.config.discharge_efficiency for vb in vbs),
            dtype=float,
            count=m,
        )
        self.batt_maxc = np.fromiter(
            (vb.battery.max_charge_power_w for vb in vbs), dtype=float, count=m
        )
        self.batt_maxd = np.fromiter(
            (vb.battery.max_discharge_power_w for vb in vbs), dtype=float, count=m
        )
        self.epoch += 1
        epoch = self.epoch
        for i, app in enumerate(apps):
            app.snap_index = i
            app.snap_epoch = epoch
        self.dirty = False

    def _knob_columns(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh snapshot columns of the Table 1 battery knobs.

        Read from the objects at call time (not the settle gathers):
        an event subscriber can turn a knob mid-settle and the snapshot
        must see it, exactly like the object path's late read.
        """
        knob_target = np.zeros(n)
        knob_maxdis = np.zeros(n)
        vbs = self.batt_vbs
        m = len(vbs)
        if m:
            bidx = self.batt_idx
            knob_target[bidx] = np.fromiter(
                map(attrgetter("_charge_rate_w"), vbs), dtype=float, count=m
            )
            knob_maxdis[bidx] = np.fromiter(
                map(attrgetter("_max_discharge_w"), vbs), dtype=float, count=m
            )
        return knob_target, knob_maxdis

    def container_cache(
        self, platform: "ContainerOrchestrationPlatform"
    ) -> _ContainerCache:
        key = (platform.version, Container._mutation_epoch)
        cc = self._cc
        if cc is None or cc.key != key:
            if cc is not None and cc.key[1] == key[1] and key[0] > cc.key[0]:
                # Same mutation epoch, newer topology version: launches
                # only, so the cache extends instead of rebuilding.
                cc = _ContainerCache.extended(cc, platform, key)
            elif cc is not None and cc.key[0] == key[0]:
                # Same topology version, newer mutation epoch: the
                # population is unchanged (resize/start/stop in place),
                # so identity-derived columns carry over.
                cc = _ContainerCache.resized(cc, platform, key)
            else:
                cc = None
            if cc is None:
                cc = _ContainerCache(platform, key)
            self._cc = cc
        return cc

    def _gather_plan(self, cc: _ContainerCache) -> tuple:
        """Settle's per-topology gather plan over the container cache.

        Maps the dense app order onto the container cache's positions
        once per (topology, registration) generation:

        - ``empty_idx``: app indices with no running containers — their
          per-app demand stays the object path's int ``0`` (the parity
          digest distinguishes ``0`` from ``0.0`` through ``repr``).
        - ``counts``: per-app running-container counts (shared list —
          read-only for consumers).
        - ``flat_pos``/``flat_app``/``ids_flat``: the concatenated
          (app-major, launch-order) container walk the attribution loop
          follows, as index arrays for vectorized arithmetic.  The
          demand sum rides them too: ``np.bincount`` over ``flat_app``
          accumulates each app's container powers left-to-right from
          0.0, the exact IEEE sequence of the object path's per-app
          ``sum``.
        - ``cluster_get``: itemgetter over every running container for
          the cluster-power sum (None when the cluster is empty).
        """
        names = self.names
        positions = cc.positions
        if self._plan_positions is positions and self._plan_names is names:
            return self._plan
        cont_ids = cc.cont_ids
        empty_idx: List[int] = []
        counts: List[int] = []
        flat_pos: List[int] = []
        flat_app: List[int] = []
        ids_flat: List[str] = []
        for i, name in enumerate(names):
            pos = positions.get(name)
            if pos:
                counts.append(len(pos))
                flat_pos.extend(pos)
                flat_app.extend([i] * len(pos))
                ids_flat.extend(cont_ids[name])
            else:
                counts.append(0)
                empty_idx.append(i)
        run = cc.running_positions
        cluster_get = (
            (itemgetter(*run), len(run) == 1) if run else None
        )
        plan = (
            empty_idx,
            counts,
            np.asarray(flat_pos, dtype=np.intp),
            np.asarray(flat_app, dtype=np.intp),
            ids_flat,
            cluster_get,
        )
        self._plan_positions = positions
        self._plan_names = names
        self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # Tick phases (called from Ecovisor.begin_tick / settle)
    # ------------------------------------------------------------------
    def begin(
        self, eco: "Ecovisor", time_s: float, visible_solar: float
    ) -> List[Event]:
        """Bulk solar refresh + begin-phase snapshot; returns solar events."""
        if self.dirty:
            self.refresh(eco)
        rows = self.rows
        names = self.names
        n = len(names)
        new = visible_solar * self.frac_solar
        prev = self.prev_solar[rows]
        events: List[Event] = []
        if n:
            flagged = np.flatnonzero(
                self.has_solar & (np.abs(new - prev) >= self.thresh)
            )
            for i in flagged.tolist():
                events.append(
                    SolarChangeEvent(
                        time_s=time_s,
                        app_name=names[i],
                        previous_w=float(prev[i]),
                        current_w=float(new[i]),
                    )
                )
        self.solar_w[rows] = new
        self.prev_solar[rows] = new
        # Only the snapshot's knob columns need the objects here: settle
        # reads solar from the arrays, so VES-held per-tick solar stays
        # stale in columnar mode (all apps alike) and is re-synced if
        # the mode turns off.
        knob_target, knob_maxdis = self._knob_columns(n)
        self.current_snap = FleetSnapshot(
            epoch=self.epoch,
            names=names,
            apps=self.apps,
            tick_index=eco._current_tick_index,
            time_s=time_s,
            duration_s=eco._current_tick_duration_s,
            carbon=eco._current_carbon,
            price=eco._current_price,
            has_market=eco._price_signal is not None,
            settled=False,
            solar=new,
            grid=self.grid_w[rows],
            tot_e=self.tot_e[rows],
            tot_c=self.tot_c[rows],
            tot_cost=self.tot_cost[rows],
            knob_target=knob_target,
            knob_maxdis=knob_maxdis,
            fleet=self,
            platform=eco._platform,
            cc=None,
            powers_list=None,
        )
        return events

    def settle(
        self, eco: "Ecovisor", time_s: float, duration_s: float
    ) -> Dict[str, float]:
        """Settle the whole fleet in bulk; returns served-energy fractions.

        One vectorized pass replays ``VirtualEnergySystem.settle``
        arithmetic for every app; rows with a virtual battery get a
        second vectorized pass replaying the charge/discharge model,
        with the resulting battery state scattered back into the
        ``VirtualBattery`` objects.
        """
        if self.dirty:
            self.refresh(eco)
        apps = self.apps
        names = self.names
        rows = self.rows
        n = len(apps)
        cc = self.container_cache(eco._platform)
        powers = cc.powers()
        powers_list = powers.tolist()
        empty_idx, counts, flat_pos, flat_app, ids_flat, cluster_get = (
            self._gather_plan(cc)
        )
        # bincount accumulates each app's container powers from 0.0 in
        # launch order — the exact IEEE sequence of the object path's
        # per-app demand sum.  Apps without containers keep the object
        # path's int 0 (repr-visible in telemetry, hence the fix-up).
        if len(flat_app):
            demand_arr = np.bincount(
                flat_app, weights=powers[flat_pos], minlength=n
            )
        else:
            demand_arr = np.zeros(n)
        demand_list: List[float] = demand_arr.tolist()
        for i in empty_idx:
            demand_list[i] = 0

        carbon = eco._current_carbon
        price = eco._current_price
        hrs = duration_s / 3600.0
        demand_wh = demand_arr * hrs
        solar_wh = self.solar_w[rows] * hrs
        solar_used = np.minimum(demand_wh, solar_wh)
        deficit = demand_wh - solar_used
        excess = solar_wh - solar_used
        grid_cap_wh = self.grid_share_w * hrs
        grid_load = np.minimum(deficit, grid_cap_wh)
        unmet = deficit - grid_load
        s2b = np.zeros(n)
        g2b = np.zeros(n)
        battery_wh = np.zeros(n)
        curtailed = excess.copy()
        served = solar_used + grid_load
        grid_total = grid_load.copy()
        carbon_g = grid_total / 1000.0 * carbon
        cost = grid_total / 1000.0 * price
        last_grid = grid_total / hrs if duration_s > 0 else np.zeros(n)

        settlements: List[Optional[TickSettlement]] = [None] * n
        batt_tel: List[Tuple[int, float, float, float]] = []
        batt_apps = self.batt_apps
        m = len(batt_apps)
        if m and duration_s > 0:
            # Vectorized replay of the VES battery settlement (steps 2
            # and 4 of `VirtualEnergySystem.settle`) over the battery
            # sub-fleet.  Every line mirrors one arithmetic step of
            # `Battery.charge`/`discharge` — same operand order, same
            # associativity — so the figures are bit-identical to the
            # object path; skipped branches contribute exact 0.0 terms,
            # which are additive/clamp identities on the state updates.
            vbs = self.batt_vbs
            bidx = self.batt_idx
            bcap = self.batt_cap
            bfloor = self.batt_floor
            ceff = self.batt_ceff
            deff = self.batt_deff
            maxc = self.batt_maxc
            maxd_phys = self.batt_maxd
            # Live state: the level moves every settle and the Table 1
            # knobs can change in any upcall, so gather them fresh.
            level = np.fromiter(
                map(attrgetter("_battery._level_wh"), vbs), dtype=float, count=m
            )
            target = np.fromiter(
                map(attrgetter("_charge_rate_w"), vbs), dtype=float, count=m
            )
            maxdis = np.fromiter(
                map(attrgetter("_max_discharge_w"), vbs), dtype=float, count=m
            )
            deficit_b = deficit[bidx]
            excess_b = excess[bidx]
            gcap_b = grid_cap_wh[bidx]

            # Step 2: discharge up to the app's cap (Battery.discharge).
            limited = np.minimum(deficit_b / hrs, maxdis)
            out_wh = np.minimum(
                np.minimum(limited, maxd_phys) * hrs,
                np.maximum(0.0, level - bfloor) * deff,
            )
            out_wh = np.where(limited > 0.0, out_wh, 0.0)
            level = np.maximum(0.0, np.minimum(bcap, level - out_wh / deff))
            delivered = out_wh / hrs
            batt_wh_b = delivered * hrs
            deficit_b = deficit_b - batt_wh_b

            # Step 3: grid covers the residual, up to the grid share.
            grid_load_b = np.minimum(np.maximum(0.0, deficit_b), gcap_b)
            unmet_b = np.maximum(0.0, deficit_b - grid_load_b)

            # Step 4a: excess solar charges the battery (Battery.charge).
            in1 = np.minimum(
                np.minimum(excess_b / hrs, maxc) * hrs,
                np.maximum(0.0, bcap - level) / ceff,
            )
            in1 = np.where(excess_b > 0.0, in1, 0.0)
            level = np.maximum(0.0, np.minimum(bcap, level + in1 * ceff))
            s2b_b = (in1 / hrs) * hrs

            # Step 4b: the charge-rate knob tops up from the grid.
            solar_charge_w = s2b_b / hrs
            grid_headroom = np.maximum(0.0, gcap_b - grid_load_b)
            top_up = np.minimum(target - solar_charge_w, grid_headroom / hrs)
            in2 = np.minimum(
                np.minimum(top_up, maxc) * hrs,
                np.maximum(0.0, bcap - level) / ceff,
            )
            in2 = np.where((target > solar_charge_w) & (top_up > 0.0), in2, 0.0)
            level = np.maximum(0.0, np.minimum(bcap, level + in2 * ceff))
            g2b_b = (in2 / hrs) * hrs
            last_charge_b = (s2b_b + g2b_b) / hrs

            # Step 5 and attribution.
            curtailed_b = excess_b - s2b_b
            served_b = solar_used[bidx] + batt_wh_b + grid_load_b
            grid_total_b = grid_load_b + g2b_b
            carbon_b = grid_total_b / 1000.0 * carbon
            cost_b = grid_total_b / 1000.0 * price
            last_grid_b = grid_total_b / hrs

            served[bidx] = served_b
            unmet[bidx] = unmet_b
            s2b[bidx] = s2b_b
            curtailed[bidx] = curtailed_b
            battery_wh[bidx] = batt_wh_b
            grid_load[bidx] = grid_load_b
            g2b[bidx] = g2b_b
            grid_total[bidx] = grid_total_b
            carbon_g[bidx] = carbon_b
            cost[bidx] = cost_b
            last_grid[bidx] = last_grid_b

            # Write the settled battery state back into the objects —
            # they remain the source of truth between ticks (lazy views,
            # share rebalances, mode-off restore all read them).  The
            # accumulator order (discharge, solar charge, grid top-up)
            # matches the object path's call order.
            # Only rows whose battery state actually moved need the
            # object write-back: for an idle battery every write below
            # is value-identical (level round-trips through identity
            # clamps, the accumulators gain exact 0.0, the last-power
            # figures already equal their targets), so skipping them is
            # unobservable — and most of a large fleet's batteries are
            # idle on most ticks.
            prev_dis = np.fromiter(
                map(attrgetter("_last_discharge_w"), vbs), dtype=float, count=m
            )
            prev_chg = np.fromiter(
                map(attrgetter("_last_charge_w"), vbs), dtype=float, count=m
            )
            touched = (
                (out_wh != 0.0)
                | (in1 != 0.0)
                | (in2 != 0.0)
                | (delivered != prev_dis)
                | (last_charge_b != prev_chg)
            )
            lvl_l = level.tolist()
            out_l = out_wh.tolist()
            in1_l = in1.tolist()
            in2_l = in2.tolist()
            ldis_l = delivered.tolist()
            lchg_l = last_charge_b.tolist()
            for k in np.flatnonzero(touched).tolist():
                vb = vbs[k]
                b = vb._battery
                b._level_wh = lvl_l[k]
                e = out_l[k]
                b._total_discharged_wh += e
                b._cycle_throughput_wh += e
                e = in1_l[k]
                b._total_charged_wh += e
                b._cycle_throughput_wh += e
                e = in2_l[k]
                b._total_charged_wh += e
                b._cycle_throughput_wh += e
                vb._last_discharge_w = ldis_l[k]
                vb._last_charge_w = lchg_l[k]

            # Battery full/empty edges, published after the bulk compute
            # but in the same per-app order as the object loop (a
            # subscriber that mutates tenancy mid-settlement sees a
            # later phase of the tick than on the object path — a
            # documented edge).
            usable_arr = np.maximum(0.0, level - bfloor)
            full_arr = np.maximum(0.0, bcap - level) <= 1e-9
            empty_arr = usable_arr <= 1e-9
            usable_l = usable_arr.tolist()
            soc_l = (level / bcap).tolist()
            # Signed battery power (charging positive).
            bpow_l = (last_charge_b - delivered).tolist()
            # The per-app edge loop only needs apps whose full/empty
            # state changed; for the (overwhelmingly common) steady
            # rows the flag write is value-identical and no event
            # fires.  The masked walk stays in ascending app order, so
            # event interleaving matches the full loop.
            was_full = np.fromiter(
                map(attrgetter("battery_was_full"), self.batt_objs),
                dtype=bool,
                count=m,
            )
            was_empty = np.fromiter(
                map(attrgetter("battery_was_empty"), self.batt_objs),
                dtype=bool,
                count=m,
            )
            edges = (full_arr != was_full) | (empty_arr != was_empty)
            if edges.any():
                full_l = full_arr.tolist()
                empty_l = empty_arr.tolist()
                for k in np.flatnonzero(edges).tolist():
                    i, app = batt_apps[k]
                    if full_l[k] and not app.battery_was_full:
                        eco._publish(
                            BatteryFullEvent(
                                time_s=time_s,
                                app_name=app.name,
                                charge_level_wh=usable_l[k],
                            )
                        )
                    app.battery_was_full = full_l[k]
                    if empty_l[k] and not app.battery_was_empty:
                        eco._publish(
                            BatteryEmptyEvent(time_s=time_s, app_name=app.name)
                        )
                    app.battery_was_empty = empty_l[k]
            batt_tel.extend(
                zip(self.batt_idx.tolist(), soc_l, usable_l, bpow_l)
            )
        elif m:
            # Degenerate duration: defer to the real VES so its input
            # validation raises exactly as the object path would.  The
            # VES per-tick solar is stale in columnar mode; restore it
            # from the arrays first.
            for i, app in batt_apps:
                app.ves.restore_tick_state(
                    float(self.solar_w[app.row]), float(self.grid_w[app.row])
                )
                s = app.ves.settle(
                    demand_list[i],
                    carbon,
                    time_s,
                    duration_s,
                    price_usd_per_kwh=price,
                )
                settlements[i] = s
                served[i] = s.served_wh
                unmet[i] = s.unmet_wh
                s2b[i] = s.solar_to_battery_wh
                curtailed[i] = s.curtailed_wh
                battery_wh[i] = s.battery_discharge_wh
                grid_load[i] = s.grid_load_wh
                g2b[i] = s.grid_to_battery_wh
                grid_total[i] = s.grid_load_wh + s.grid_to_battery_wh
                carbon_g[i] = s.carbon_g
                cost[i] = s.cost_usd
                last_grid[i] = app.ves.grid_power_w
            for i, app in batt_apps:
                vb = app.ves.battery
                if vb is None:
                    continue
                if vb.is_full and not app.battery_was_full:
                    eco._publish(
                        BatteryFullEvent(
                            time_s=time_s,
                            app_name=app.name,
                            charge_level_wh=vb.usable_wh,
                        )
                    )
                app.battery_was_full = vb.is_full
                if vb.is_empty and not app.battery_was_empty:
                    eco._publish(
                        BatteryEmptyEvent(time_s=time_s, app_name=app.name)
                    )
                app.battery_was_empty = vb.is_empty
                batt_tel.append(
                    (
                        i,
                        vb.soc_fraction,
                        vb.usable_wh,
                        vb.last_charge_w - vb.last_discharge_w,
                    )
                )

        # Scatter the settled figures back into the persistent rows.
        # Rows are unique, so fancy += accumulates exactly like the
        # per-app sequential `account.add` the flush will replay.
        self.grid_w[rows] = last_grid
        self.tot_e[rows] += served
        self.tot_c[rows] += carbon_g
        self.tot_cost[rows] += cost

        # Eager container attribution: container objects are live state
        # (policies read cumulative energy/carbon), only the series
        # writes are buffered.  The per-container shares are elementwise
        # (no reductions), so the vectorized arithmetic is bit-identical
        # to the object path's `power / total`, `served * fraction`.
        cont_carbon: List[Tuple[str, float]] = []
        if flat_pos.size:
            powers_flat = powers[flat_pos]
            tot_rep = demand_arr[flat_app]
            frac = np.divide(
                powers_flat,
                tot_rep,
                out=np.zeros(len(powers_flat)),
                where=tot_rep > 1e-12,
            )
            pw_l = powers_flat.tolist()
            energy_l = (served[flat_app] * frac).tolist()
            carbon_l = (carbon_g[flat_app] * frac).tolist()
            clist = cc.clist
            pos_l = flat_pos.tolist()
            # Inlined Container.record_tick: three attribute writes per
            # container, hot enough at fleet scale to skip the call.
            for j in range(len(pos_l)):
                c = clist[pos_l[j]]
                c._last_power_w = pw_l[j]
                c._energy_wh += energy_l[j]
                c._carbon_g += carbon_l[j]
            cont_carbon = list(zip(ids_flat, carbon_l))

        if n:
            fractions_arr = np.divide(
                served, demand_wh, out=np.ones(n), where=demand_wh > 1e-12
            )
            fractions = dict(zip(names, fractions_arr.tolist()))
        else:
            fractions = {}

        total_grid_w = 0.0
        total_solar_used_w = 0.0
        if duration_s > 0:
            # Elementwise terms vectorize bit-identically; the running
            # sums stay sequential in app order (their IEEE sequence is
            # the parity contract, so no np.sum/fsum here).
            gt = (grid_total * 3600.0 / duration_s).tolist()
            ss = ((solar_used + s2b) * 3600.0 / duration_s).tolist()
            for v in gt:
                total_grid_w += v
            for v in ss:
                total_solar_used_w += v

        plant = eco._plant
        if plant.has_grid and total_grid_w > 0:
            plant.grid.draw(total_grid_w, duration_s)
        if plant.has_renewable and total_solar_used_w > 0:
            plant.deliver_renewable(total_solar_used_w, duration_s, time_s)

        # Same accumulation (order, operand values) as the genexpr
        # sum over app.ves.battery.battery.level_wh, reading the slots
        # the property chain forwards to — ~1.5k property hops per tick
        # on a battery-heavy fleet otherwise.
        aggregate_battery_wh = 0.0
        for vb in self.batt_vbs:
            aggregate_battery_wh += vb._battery._level_wh
        # Plant and app-count telemetry stay eager: their series never
        # receive buffered writes, so eager/buffered order per series is
        # preserved.
        eco._monitor.record_plant(
            time_s,
            solar_w=eco._physical_solar_now_w,
            battery_level_wh=aggregate_battery_wh,
            grid_power_w=total_grid_w,
        )
        eco._monitor.record_app_count(time_s, len(eco._apps))

        record = _TickRecord()
        record.time_s = time_s
        record.duration_s = duration_s
        record.carbon = carbon
        record.price = price
        record.names = names
        record.demand_wh = demand_wh
        record.served = served
        record.unmet = unmet
        record.solar_avail = solar_wh
        record.solar_used = solar_used
        record.s2b = s2b
        record.curtailed = curtailed
        record.battery_wh = battery_wh
        record.grid_load = grid_load
        record.g2b = g2b
        record.carbon_g = carbon_g
        record.cost = cost
        for column in _TickRecord.COLUMNS:
            getattr(record, column).flags.writeable = False
        record.settlements = settlements
        record.apps = apps
        record.demand_w = demand_list
        record.counts = counts
        record.last_grid = last_grid
        record.batt_tel = batt_tel
        record.cont_ids = cc.ids
        record.cont_powers = powers_list
        record.cont_carbon = cont_carbon
        if cluster_get is None:
            attributed = 0
        else:
            v = cluster_get[0](powers_list)
            attributed = v if cluster_get[1] else sum(v)
        record.cluster_power = attributed + cc.baseline_w
        self.pending.append(record)

        knob_target, knob_maxdis = self._knob_columns(n)
        self.current_snap = FleetSnapshot(
            epoch=self.epoch,
            names=names,
            apps=apps,
            tick_index=eco._current_tick_index,
            time_s=time_s,
            duration_s=duration_s,
            carbon=carbon,
            price=price,
            has_market=eco._price_signal is not None,
            settled=True,
            solar=self.solar_w[rows],
            grid=last_grid,
            tot_e=self.tot_e[rows],
            tot_c=self.tot_c[rows],
            tot_cost=self.tot_cost[rows],
            knob_target=knob_target,
            knob_maxdis=knob_maxdis,
            fleet=self,
            platform=eco._platform,
            cc=cc,
            powers_list=powers_list,
        )
        return fractions
