"""Tick settlements and the carbon ledger."""

import pytest

from repro.core.accounting import (
    AppAccount,
    CarbonLedger,
    TickSettlement,
    materialize,
)
from repro.core.errors import ConfigurationError, EnergyConservationError


def settlement(
    app="app",
    time_s=0.0,
    demand=10.0,
    solar_avail=4.0,
    solar_used=4.0,
    to_battery=0.0,
    curtailed=0.0,
    battery=2.0,
    grid=4.0,
    grid_to_battery=0.0,
    unmet=0.0,
    carbon=1.0,
) -> TickSettlement:
    return TickSettlement(
        app_name=app,
        time_s=time_s,
        duration_s=60.0,
        carbon_intensity_g_per_kwh=200.0,
        demand_wh=demand,
        served_wh=solar_used + battery + grid,
        unmet_wh=unmet,
        solar_available_wh=solar_avail,
        solar_used_wh=solar_used,
        solar_to_battery_wh=to_battery,
        curtailed_wh=curtailed,
        battery_discharge_wh=battery,
        grid_load_wh=grid,
        grid_to_battery_wh=grid_to_battery,
        carbon_g=carbon,
    )


class TestSettlementValidation:
    def test_balanced_settlement_validates(self):
        settlement().validate()

    def test_detects_solar_imbalance(self):
        bad = settlement(solar_avail=10.0, solar_used=4.0, to_battery=0.0,
                         curtailed=0.0)
        with pytest.raises(EnergyConservationError):
            bad.validate()

    def test_detects_demand_imbalance(self):
        bad = settlement(demand=20.0)
        with pytest.raises(EnergyConservationError):
            bad.validate()

    def test_detects_negative_flow(self):
        bad = settlement(carbon=-1.0)
        with pytest.raises(EnergyConservationError):
            bad.validate()


class TestSettlementDerived:
    def test_grid_total(self):
        s = settlement(grid=4.0, grid_to_battery=2.0, demand=10.0)
        assert s.grid_total_wh == pytest.approx(6.0)

    def test_average_power(self):
        s = settlement()
        # 10 Wh served over 60 s -> 600 W.
        assert s.average_power_w == pytest.approx(600.0)

    def test_carbon_rate(self):
        s = settlement(carbon=0.6)
        # 0.6 g over 60 s = 10 mg/s.
        assert s.carbon_rate_mg_per_s == pytest.approx(10.0)


class TestLedger:
    def test_record_accumulates(self):
        ledger = CarbonLedger()
        ledger.record(settlement(time_s=0.0))
        ledger.record(settlement(time_s=60.0))
        account = ledger.account("app")
        assert account.energy_wh == pytest.approx(20.0)
        assert account.carbon_g == pytest.approx(2.0)
        assert account.solar_wh == pytest.approx(8.0)
        assert account.battery_wh == pytest.approx(4.0)
        assert account.grid_wh == pytest.approx(8.0)

    def test_record_validates(self):
        ledger = CarbonLedger()
        with pytest.raises(EnergyConservationError):
            ledger.record(settlement(demand=99.0))

    def test_per_app_isolation(self):
        ledger = CarbonLedger()
        ledger.record(settlement(app="a"))
        ledger.record(settlement(app="b", carbon=5.0))
        assert ledger.app_carbon_g("a") == pytest.approx(1.0)
        assert ledger.app_carbon_g("b") == pytest.approx(5.0)
        assert ledger.total_carbon_g() == pytest.approx(6.0)
        assert ledger.app_names() == ["a", "b"]

    def test_interval_queries(self):
        ledger = CarbonLedger()
        for t in (0.0, 60.0, 120.0):
            ledger.record(settlement(time_s=t))
        assert ledger.carbon_between("app", 0.0, 120.0) == pytest.approx(2.0)
        assert ledger.energy_between("app", 60.0, 180.0) == pytest.approx(20.0)
        assert len(ledger.settlements_between("app", 0.0, 1e9)) == 3

    def test_auto_created_account_is_zero(self):
        ledger = CarbonLedger()
        assert ledger.app_carbon_g("new") == 0.0
        assert ledger.total_energy_wh() == 0.0


class TestLedgerValidateFlag:
    def test_record_validates_by_default(self):
        bad = settlement(unmet=5.0)  # demand != served + unmet
        ledger = CarbonLedger()
        with pytest.raises(EnergyConservationError):
            ledger.record(bad)

    def test_record_can_skip_revalidation(self):
        # The ecovisor records settlements the VES already validated;
        # validate=False must accumulate without re-checking.
        bad = settlement(unmet=5.0)
        ledger = CarbonLedger()
        ledger.record(bad, validate=False)
        assert ledger.account("app").unmet_wh == 5.0

    def test_settlement_is_slotted(self):
        s = settlement()
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(s, "not_a_field", 1.0)


class _CountingSource:
    """A stand-in tick record: builds its settlement on request, counted."""

    def __init__(self, built: TickSettlement):
        self.built = built
        self.calls = 0

    def settlement(self, index: int) -> TickSettlement:
        self.calls += 1
        return self.built


def _accrue(account: AppAccount, s: TickSettlement, entry) -> None:
    account.accrue(
        s.served_wh,
        s.solar_used_wh,
        s.battery_discharge_wh,
        s.grid_total_wh,
        s.carbon_g,
        s.cost_usd,
        s.curtailed_wh,
        s.unmet_wh,
        entry,
    )


class TestLazySettlementLog:
    def test_accrue_from_columns_matches_add(self):
        s = settlement(to_battery=1.0, curtailed=0.5, grid_to_battery=0.25)
        eager = AppAccount("app")
        eager.add(s)
        lazy = AppAccount("app")
        _accrue(lazy, s, (_CountingSource(s), 0))
        for field in (
            "energy_wh",
            "solar_wh",
            "battery_wh",
            "grid_wh",
            "carbon_g",
            "cost_usd",
            "curtailed_wh",
            "unmet_wh",
        ):
            assert getattr(lazy, field) == getattr(eager, field)

    def test_count_does_not_materialize(self):
        source = _CountingSource(settlement())
        account = AppAccount("app")
        _accrue(account, source.built, (source, 0))
        _accrue(account, source.built, (source, 1))
        assert account.settlement_count == 2
        assert source.calls == 0

    def test_settlements_materialize_once_in_order(self):
        first, second = settlement(time_s=0.0), settlement(time_s=60.0)
        source = _CountingSource(second)
        account = AppAccount("app")
        account.add(first)
        _accrue(account, second, (source, 0))
        assert account.settlements == [first, second]
        assert account.settlements[1] is second
        assert source.calls == 1  # the second read reuses the built entry

    def test_materialize_passes_settlements_through(self):
        s = settlement()
        assert materialize(s) is s
        assert materialize((_CountingSource(s), 3)) is s

    def test_finalized_account_refuses_lazy_entries(self):
        s = settlement()
        account = AppAccount("app", finalized=True)
        with pytest.raises(ConfigurationError):
            _accrue(account, s, (_CountingSource(s), 0))
        assert account.settlement_count == 0
