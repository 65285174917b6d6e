"""FleetArrays row lifecycle, array identity, and cache fallbacks.

The columnar kernel's semantic parity is pinned by
:mod:`tests.integration.test_columnar_parity`; this module covers the
structural invariants of the struct-of-arrays store itself:

- row acquisition/release is LIFO, so an evicted tenant's row is the
  next admission's row (cache-hot reuse),
- growth past :data:`~repro.core.fleetarrays.INITIAL_CAPACITY` doubles
  in place and keeps every array's identity,
- a staged ``set_share`` swaps the dense battery sub-fleet caches at
  the next tick boundary, and
- ticks past the primed signal-cache horizon fall back to live
  sampling with identical results (mirroring
  :mod:`tests.unit.test_tracecache`'s offset-miss rule at fleet level),
- the deferred flush keeps settlements as lazy references into the
  retained tick records, which materialize to the object path's
  settlements and share one object between account and VES.
"""

import numpy as np
import pytest

from repro.cluster.container import Container, reset_container_id_counter
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig, ShareConfig
from repro.core.errors import ConfigurationError, TraceError
from repro.core.fleetarrays import (
    INITIAL_CAPACITY,
    FleetArrays,
    _ContainerCache,
    _TickRecord,
)
from repro.sim.fleet import build_fleet


def _small_fleet(apps=6, ticks=12, batched=True, seed=2023):
    reset_container_id_counter()
    return build_fleet(
        {
            "apps": apps,
            "ticks": ticks,
            "seed": seed,
            "mix": "balanced",
            "batched": batched,
        }
    )


class TestRowLifecycle:
    def test_rows_acquire_in_ascending_order(self):
        fleet = FleetArrays(capacity=4)
        assert [fleet.acquire_row() for _ in range(4)] == [0, 1, 2, 3]

    def test_release_then_acquire_is_lifo(self):
        fleet = FleetArrays(capacity=8)
        rows = [fleet.acquire_row() for _ in range(5)]
        fleet.release_row(rows[1])
        fleet.release_row(rows[3])
        # The hottest (most recently released) row comes back first.
        assert fleet.acquire_row() == rows[3]
        assert fleet.acquire_row() == rows[1]
        # Exhausted the free list's recycled rows; fresh rows follow.
        assert fleet.acquire_row() == 5

    def test_lifecycle_counters_track_acquire_release_reuse(self):
        fleet = FleetArrays(capacity=8)
        rows = [fleet.acquire_row() for _ in range(3)]
        assert fleet.rows_acquired == 3
        assert fleet.rows_reused == 0
        fleet.release_row(rows[2])
        assert fleet.rows_released == 1
        fleet.acquire_row()
        assert fleet.rows_acquired == 4
        assert fleet.rows_reused == 1

    def test_grow_counter_increments_on_doubling(self):
        fleet = FleetArrays(capacity=2)
        for _ in range(3):
            fleet.acquire_row()
        assert fleet.grow_count == 1
        assert fleet.capacity == 4

    def test_evicted_tenant_row_goes_to_next_admission(self):
        fleet = _small_fleet()
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(3)
        victim = ecovisor.app_names()[2]
        victim_row = ecovisor._apps[victim].row
        assert victim_row >= 0
        ecovisor.evict_app(victim)
        assert ecovisor._apps == {
            n: a for n, a in ecovisor._apps.items() if n != victim
        }
        from repro.policies import CarbonAgnosticPolicy
        from repro.workloads.mltrain import MLTrainingJob

        engine.add_application(
            MLTrainingJob(name="newcomer", total_work_units=100.0),
            ShareConfig(grid_power_w=float("inf")),
            CarbonAgnosticPolicy(workers=1),
        )
        engine.run(1)
        assert ecovisor._apps["newcomer"].row == victim_row


class TestGrowth:
    def test_growth_doubles_and_keeps_array_identity(self):
        fleet = FleetArrays()
        assert fleet.capacity == INITIAL_CAPACITY
        arrays = (
            fleet.solar_w,
            fleet.grid_w,
            fleet.prev_solar,
            fleet.tot_e,
            fleet.tot_c,
            fleet.tot_cost,
        )
        for _ in range(INITIAL_CAPACITY):
            fleet.acquire_row()
        fleet.solar_w[:] = np.arange(INITIAL_CAPACITY, dtype=float)
        fleet.tot_e[:] = 7.5
        overflow = fleet.acquire_row()
        assert overflow == INITIAL_CAPACITY
        assert fleet.capacity == 2 * INITIAL_CAPACITY
        for before, after in zip(
            arrays,
            (
                fleet.solar_w,
                fleet.grid_w,
                fleet.prev_solar,
                fleet.tot_e,
                fleet.tot_c,
                fleet.tot_cost,
            ),
        ):
            # ndarray.resize grows in place: same object, new capacity.
            assert before is after
            assert len(after) == 2 * INITIAL_CAPACITY
        assert fleet.solar_w[:INITIAL_CAPACITY].tolist() == [
            float(i) for i in range(INITIAL_CAPACITY)
        ]
        assert np.all(fleet.tot_e[:INITIAL_CAPACITY] == 7.5)
        assert np.all(fleet.solar_w[INITIAL_CAPACITY:] == 0.0)

    def test_fleet_larger_than_initial_capacity_runs_columnar(self):
        fleet = _small_fleet(apps=INITIAL_CAPACITY + 6, ticks=3)
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(3)
        store = ecovisor._fleet
        assert store.capacity >= INITIAL_CAPACITY + 6
        rows = [app.row for app in ecovisor._apps.values()]
        assert len(set(rows)) == len(rows)
        assert max(rows) >= INITIAL_CAPACITY


def _assert_cache_equal(a, b):
    """Field-by-field equality of two `_ContainerCache` builds."""
    assert a.key == b.key
    assert a.ids == b.ids
    assert len(a.clist) == len(b.clist)
    for x, y in zip(a.clist, b.clist):
        assert x is y
    np.testing.assert_array_equal(a.cf, b.cf)
    np.testing.assert_array_equal(a.cf_idle, b.cf_idle)
    assert a.cpu_range == b.cpu_range
    assert a.gpu_range == b.gpu_range
    np.testing.assert_array_equal(a.power_mask, b.power_mask)
    np.testing.assert_array_equal(a.gpu_mask, b.gpu_mask)
    assert a.positions == b.positions
    assert a.cont_ids == b.cont_ids
    assert a.running_positions == b.running_positions
    assert a.baseline_w == b.baseline_w


class TestContainerCacheExtension:
    """The append-only `_ContainerCache.extended` fast path.

    Fleet scenarios rarely hit it (policy stops bump the mutation epoch
    before most rebuilds), so it is exercised directly: launches without
    any stop/start/resize keep the epoch fixed, and the extended cache
    must equal a from-scratch rebuild on every field.
    """

    def _platform(self):
        reset_container_id_counter()
        platform = ContainerOrchestrationPlatform(ClusterConfig(num_servers=4))
        platform.launch_container("alpha", 1.0)
        platform.launch_container("beta", 2.0)
        platform.launch_container("alpha", 1.0, role="worker")
        return platform

    def test_extended_matches_full_rebuild(self):
        platform = self._platform()
        prev = _ContainerCache(
            platform, (platform.version, Container._mutation_epoch)
        )
        # Launches only: version moves, mutation epoch does not.
        platform.launch_container("beta", 1.0, role="worker")
        platform.launch_container("gamma", 2.0)
        key = (platform.version, Container._mutation_epoch)
        assert key[0] > prev.key[0] and key[1] == prev.key[1]

        ext = _ContainerCache.extended(prev, platform, key)
        assert ext is not None
        _assert_cache_equal(ext, _ContainerCache(platform, key))
        np.testing.assert_array_equal(
            ext.powers(), _ContainerCache(platform, key).powers()
        )

    def test_container_cache_takes_extension_path(self, monkeypatch):
        platform = self._platform()
        fleet = FleetArrays()
        first = fleet.container_cache(platform)
        assert fleet.container_cache(platform) is first  # key unchanged

        platform.launch_container("gamma", 1.0)
        rebuilds = []
        original = _ContainerCache.__init__

        def counting(self, *args, **kwargs):
            rebuilds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_ContainerCache, "__init__", counting)
        second = fleet.container_cache(platform)
        # `extended` builds via __new__, never __init__: zero rebuilds.
        assert not rebuilds
        assert second is not first
        assert second.key == (platform.version, Container._mutation_epoch)
        monkeypatch.undo()
        _assert_cache_equal(second, _ContainerCache(platform, second.key))

    def test_stop_forces_full_rebuild(self, monkeypatch):
        platform = self._platform()
        fleet = FleetArrays()
        first = fleet.container_cache(platform)
        platform.stop_container(first.clist[0].id)  # bumps the epoch
        rebuilds = []
        original = _ContainerCache.__init__

        def counting(self, *args, **kwargs):
            rebuilds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_ContainerCache, "__init__", counting)
        second = fleet.container_cache(platform)
        assert rebuilds == [1]
        assert len(second.clist) == len(first.clist) - 1

    def test_extended_refuses_non_prefix_population(self):
        platform = self._platform()
        prev = _ContainerCache(
            platform, (platform.version, Container._mutation_epoch)
        )
        # Shrunk population: n < old_n.
        platform.stop_container(prev.clist[-1].id)
        key = (platform.version, Container._mutation_epoch)
        assert _ContainerCache.extended(prev, platform, key) is None
        # Same length but different tail container: prefix identity fails.
        platform.launch_container("delta", 1.0)
        key = (platform.version, Container._mutation_epoch)
        assert _ContainerCache.extended(prev, platform, key) is None


class TestSetShareSwap:
    def test_staged_share_swaps_battery_caches_at_tick_boundary(self):
        fleet = _small_fleet()
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(2)
        store = ecovisor._fleet
        # Pick a grid-only tenant (every third tenant holds the plant
        # share, so index 1 does not).
        name = ecovisor.app_names()[1]
        app = ecovisor._apps[name]
        assert app.ves.battery is None
        assert name not in [a.name for _, a in store.batt_apps]

        ecovisor.set_share(
            name,
            ShareConfig(
                solar_fraction=0.05,
                battery_fraction=0.05,
                grid_power_w=float("inf"),
            ),
        )
        # Mid-tick: staged only — the dense caches still describe the
        # old shares until the next begin phase refreshes them.
        assert ecovisor.pending_share(name) is not None
        assert app.ves.battery is None
        epoch_before = store.epoch

        engine.run(1)
        assert ecovisor.pending_share(name) is None
        assert app.ves.battery is not None
        assert store.epoch > epoch_before
        batt_names = [a.name for _, a in store.batt_apps]
        assert name in batt_names
        i = store.names.index(name)
        assert store.frac_solar[i] == 0.05
        assert store.has_solar[i]
        # The battery sub-fleet caches swapped in the new VirtualBattery.
        assert any(vb is app.ves.battery for vb in store.batt_vbs)

    def test_share_drop_removes_battery_row(self):
        fleet = _small_fleet()
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(2)
        store = ecovisor._fleet
        name = ecovisor.app_names()[0]  # stride tenant: holds a share
        app = ecovisor._apps[name]
        assert app.ves.battery is not None
        ecovisor.set_share(name, ShareConfig(grid_power_w=float("inf")))
        engine.run(1)
        assert app.ves.battery is None
        assert name not in [a.name for _, a in store.batt_apps]


class TestPastHorizonFallback:
    def test_ticks_past_primed_horizon_fall_back_to_live_sampling(self):
        """Mirror of test_tracecache's offset-miss rule at fleet level:
        a signal cache covering only half the run must not change one
        byte of the telemetry — uncovered ticks sample live."""
        ticks = 12
        reference = _small_fleet(ticks=ticks)
        reference.engine.run(ticks)

        truncated = _small_fleet(ticks=ticks)
        ecovisor = truncated.engine._ecovisor
        original = ecovisor.prime_signal_cache

        def half_prime(start_index, times):
            original(start_index, times[: len(times) // 2])

        ecovisor.prime_signal_cache = half_prime
        truncated.engine.run(ticks)
        # The cache really was short: the final tick missed it.
        assert (
            ecovisor._signal_cache.offset_for(ticks - 1, (ticks - 1) * 60.0)
            is None
        )

        db_a = reference.ecovisor.database
        db_b = truncated.ecovisor.database
        assert db_a.series_names() == db_b.series_names()
        for series in db_a.series_names():
            assert (
                db_a.series(series).values().tolist()
                == db_b.series(series).values().tolist()
            ), series


def _churned_ledger(batched):
    """Run, evict one tenant, re-admit its name, run on; the ledger."""
    fleet = _small_fleet(batched=batched)
    engine, ecovisor = fleet.engine, fleet.ecovisor
    engine.run(3)
    name = ecovisor.app_names()[0]  # stride tenant: holds a battery
    engine.remove_application(name)
    engine.run(2)
    ecovisor.admit_app(
        name, ShareConfig(solar_fraction=0.02, grid_power_w=float("inf"))
    )
    engine.run(3)
    return ecovisor.ledger


class TestLazySettlementLog:
    def test_account_and_ves_share_the_materialized_settlement(self):
        fleet = _small_fleet()
        fleet.engine.run(3)
        ecovisor = fleet.ecovisor
        first, second = ecovisor.app_names()[:2]
        # Either side may materialize first; both see one object.
        assert (
            ecovisor.ledger.account(first).settlements[-1]
            is ecovisor._apps[first].ves.last_settlement
        )
        ves_view = ecovisor._apps[second].ves.last_settlement
        assert ecovisor.ledger.account(second).settlements[-1] is ves_view

    def test_materialized_settlements_equal_object_path(self):
        columnar = _churned_ledger(batched=True)
        objects = _churned_ledger(batched=False)
        archived = columnar.archived_accounts
        assert len(archived) == 1
        assert [a.settlements for a in archived] == [
            a.settlements for a in objects.archived_accounts
        ]
        assert columnar.app_names() == objects.app_names()
        for name in columnar.app_names():
            assert (
                columnar.account(name).settlements
                == objects.account(name).settlements
            )

    def test_replayed_row_for_finalized_account_raises(self):
        fleet = _small_fleet()
        fleet.engine.run(1)
        ledger = fleet.ecovisor.ledger
        account = ledger.account(fleet.ecovisor.app_names()[0])
        fleet.engine.run(1)  # buffered, not yet replayed
        account.finalized = True
        with pytest.raises(ConfigurationError, match="finalized"):
            ledger.total_carbon_g()

    def test_retained_record_keeps_read_only_columns_only(self):
        fleet = _small_fleet()
        fleet.engine.run(2)
        ecovisor = fleet.ecovisor
        account = ecovisor.ledger.account(ecovisor.app_names()[0])
        record, index = account._log[-1]
        assert isinstance(record, _TickRecord)
        for column in _TickRecord.COLUMNS:
            array = getattr(record, column)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[index] = 0.0
        assert record.apps is None
        assert record.cont_powers is None
        assert record.batt_tel is None

    def test_non_monotonic_time_reaching_replay_raises(self):
        fleet = _small_fleet()
        fleet.engine.run(1)
        ecovisor = fleet.ecovisor
        name = ecovisor.app_names()[0]
        series = ecovisor.database.series_handle(f"app.{name}.power_w")
        fleet.engine.run(1)  # buffered, not yet replayed
        series.append(1e12, 0.0)  # a point far past the buffered tick
        with pytest.raises(TraceError, match="non-monotonic"):
            ecovisor.ledger.total_energy_wh()

    def test_flush_metrics_count_replayed_records(self):
        fleet = _small_fleet()
        metrics = fleet.ecovisor.metrics
        fleet.engine.run(3)
        fleet.ecovisor.ledger.total_energy_wh()
        records = metrics.get("fleet_flush_records_total").fn()
        flushes = metrics.get("fleet_flushes_total").fn()
        # Every settled tick is replayed exactly once, in >= 1 flushes.
        assert records == 3
        assert 1 <= flushes <= 3
        assert metrics.get("fleet_flush_seconds_total").fn() > 0.0
        fleet.ecovisor.ledger.total_energy_wh()  # nothing left to replay
        assert metrics.get("fleet_flushes_total").fn() == flushes
