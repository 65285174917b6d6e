"""Software-defined power monitoring.

The prototype uses PowerAPI, a middleware toolkit for building
software-defined power meters, to monitor per-container power, battery
power, solar generation, grid usage, and carbon intensity, persisting all
of it to a time-series database (paper Section 4).  This class is that
meter: each tick it computes per-container attributed power from the
orchestration platform's power model and writes every signal into the
:class:`~repro.telemetry.timeseries.TimeSeriesDatabase`.

Hot-path notes: the monitor runs once per tick for every container and
application, so it caches its :class:`~repro.telemetry.timeseries.Series`
handles (no per-append name formatting or registry lookups) and measures
all container powers in one platform pass that settlement then reuses
instead of re-deriving power per application.

Series naming scheme (stable, used by benches and analysis):

- ``container.<id>.power_w``
- ``app.<name>.power_w``        — summed container power
- ``app.<name>.carbon_rate_mg_s``
- ``app.<name>.containers``     — running container count
- ``app.<name>.cost_usd``       — per-tick grid cost (market layer)
- ``grid.carbon_g_per_kwh``
- ``grid.price_usd_per_kwh``    — electricity price (market layer)
- ``plant.solar_w``, ``plant.battery_level_wh``, ``plant.grid_power_w``
- ``cluster.power_w``           — all containers + platform baseline
- ``cluster.apps``              — registered application count (churn)
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.telemetry.timeseries import Series, TimeSeriesDatabase


class PowerMonitor:
    """Samples the platform each tick and persists telemetry."""

    def __init__(
        self,
        platform: ContainerOrchestrationPlatform,
        database: TimeSeriesDatabase | None = None,
    ):
        self._platform = platform
        self._db = database or TimeSeriesDatabase()
        self._handles: Dict[str, Series] = {}
        self._container_handles: Dict[str, Series] = {}

    @property
    def database(self) -> TimeSeriesDatabase:
        return self._db

    def _series(self, name: str) -> Series:
        """The cached series handle for ``name`` (created on first use)."""
        series = self._handles.get(name)
        if series is None:
            series = self._db.series_handle(name)
            self._handles[name] = series
        return series

    def sample_containers(self, time_s: float) -> Dict[str, float]:
        """Measure per-container power; returns {container_id: watts}.

        One bulk platform pass; settlement reuses the returned readings
        for per-application demand instead of re-measuring.
        """
        readings = self._platform.container_powers()
        handles = self._container_handles
        for container_id, power in readings.items():
            series = handles.get(container_id)
            if series is None:
                series = self._db.series_handle(f"container.{container_id}.power_w")
                handles[container_id] = series
            series.append(time_s, power)
        return readings

    def sample_apps(
        self, time_s: float, app_names: Iterable[str]
    ) -> Dict[str, float]:
        """Measure per-application power; returns {app_name: watts}.

        The per-app fallback: the platform is re-queried per
        application.  The batched settlement loop instead sums each
        app's power from the bulk container readings itself and records
        through :meth:`record_app_power`.
        """
        readings: Dict[str, float] = {}
        platform = self._platform
        for app_name in app_names:
            power = platform.app_power_w(app_name)
            count = len(platform.running_containers_for(app_name))
            readings[app_name] = power
            self._series(f"app.{app_name}.power_w").append(time_s, power)
            self._series(f"app.{app_name}.containers").append(time_s, float(count))
        return readings

    def record_app_power(
        self, time_s: float, app_name: str, power_w: float, container_count: int
    ) -> None:
        """Persist one app's already-measured power and container count.

        The batched settlement loop measures each application once (from
        the bulk container readings) and records through here, instead
        of :meth:`sample_apps` re-walking every app's container list.
        """
        self._series(f"app.{app_name}.power_w").append(time_s, power_w)
        self._series(f"app.{app_name}.containers").append(
            time_s, float(container_count)
        )

    def sample_cluster(
        self,
        time_s: float,
        container_readings: Optional[Dict[str, float]] = None,
    ) -> float:
        """Measure whole-cluster power including the platform baseline."""
        if container_readings is None:
            power = self._platform.cluster_power_w()
        else:
            attributed = sum(
                container_readings[c.id]
                for c in self._platform.running_containers()
            )
            power = attributed + self._platform.baseline_power_w()
        self._series("cluster.power_w").append(time_s, power)
        return power

    def record_carbon_intensity(self, time_s: float, intensity: float) -> None:
        self._series("grid.carbon_g_per_kwh").append(time_s, intensity)

    def record_grid_price(self, time_s: float, price_usd_per_kwh: float) -> None:
        self._series("grid.price_usd_per_kwh").append(time_s, price_usd_per_kwh)

    def record_plant(
        self,
        time_s: float,
        solar_w: float,
        battery_level_wh: float,
        grid_power_w: float,
    ) -> None:
        self._series("plant.solar_w").append(time_s, solar_w)
        self._series("plant.battery_level_wh").append(time_s, battery_level_wh)
        self._series("plant.grid_power_w").append(time_s, grid_power_w)

    def record_app_count(self, time_s: float, count: int) -> None:
        """Persist the registered-application count (churn telemetry)."""
        self._series("cluster.apps").append(time_s, float(count))
