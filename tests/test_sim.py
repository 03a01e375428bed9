"""Rolling-horizon simulation: demand, period bookkeeping, summaries."""
from __future__ import annotations

import re
import time
from types import SimpleNamespace

import pytest

from faircoplan import baseline, milp, sim, step1
from faircoplan.airspace import (
    ConfigError,
    GridConfig,
    OccupancyLedger,
    VertiportSpec,
    build_grid,
)
from faircoplan.baseline import fixed_route
from faircoplan.flights import DelayCostParams, FlightPlan
from faircoplan.sim import (
    MODES,
    ScenarioConfig,
    campaign_summary,
    day_rows,
    generate_demand,
    run_campaign,
    run_day,
    run_period,
    scenario_grid,
)

from helpers import make_grid, make_request


def corridor_config(**over):
    grid = make_grid(1, 3, ((0, 0), (0, 2)))
    fields = dict(name="toy", grid=grid.config,
                  demand_per_hub_per_hour=12.0, days=1, periods_per_day=3,
                  cadence_steps=1, flexibility=3, alpha=0.3, gamma=1.0,
                  seed=7)
    fields.update(over)
    return ScenarioConfig(**fields)


class TestScenarioConfig:
    def test_expected_arrivals_per_period(self):
        config = corridor_config()
        # 12 per hour at 5-minute steps and cadence 1
        assert config.lam == pytest.approx(1.0)
        assert config.params() == DelayCostParams(0.3)

    @pytest.mark.parametrize("bad", [
        dict(name=""),
        dict(demand_per_hub_per_hour=0.0),
        dict(days=0),
        dict(periods_per_day=0),
        dict(cadence_steps=0),
        dict(flexibility=0),
        dict(alpha=1.5),
        dict(gamma=-1.0),
        dict(seed=-1),
    ])
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            corridor_config(**bad)

    def test_short_horizon_cannot_host_a_round_trip(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)), horizon=5)
        with pytest.raises(ConfigError, match="lookahead"):
            scenario_grid(corridor_config(grid=grid.config))

    @pytest.mark.parametrize("horizon, fits", [(10, True), (9, False)])
    def test_horizon_fits_the_slowest_trip_exactly(self, horizon, fits):
        # r0001 and r0003 are ring sectors (worst dwell 2), r0002 a plain
        # sector (1): 1 + 2 + 1 + 2 steps of travel, plus cadence 1 and
        # flexibility 3, need a horizon of 10.
        grid = make_grid(1, 5, ((0, 0), (0, 4)), horizon=horizon)
        assert grid.ring == {"r0001", "r0003"}
        config = corridor_config(grid=grid.config)
        if fits:
            assert scenario_grid(config).horizon_steps == 10
        else:
            with pytest.raises(ConfigError, match="needs up to 10 steps"):
                scenario_grid(config)

    def test_scenario_needs_a_hub(self):
        config = GridConfig(
            rows=1, cols=3, horizon_steps=8,
            vertiports=(VertiportSpec(0, 0, "vertistop", 2),
                        VertiportSpec(0, 2, "vertistop", 2)))
        build_grid(config)
        with pytest.raises(ConfigError, match="hub"):
            scenario_grid(corridor_config(grid=config))


class TestGenerateDemand:
    def test_is_deterministic_in_seed_day_period(self):
        config = corridor_config()
        grid = scenario_grid(config)
        assert generate_demand(grid, config, 0, 2) == generate_demand(
            grid, config, 0, 2)

    def test_ids_and_windows(self):
        config = corridor_config(demand_per_hub_per_hour=60.0)
        grid = scenario_grid(config)
        requests = generate_demand(grid, config, 3, 11)
        assert requests, "high demand should sample at least one flight"
        for i, req in enumerate(requests):
            assert req.flight_id == f"d03p011n{i:02d}"
            assert re.fullmatch(r"d\d{2}p\d{3}n\d{2}", req.flight_id)
            assert req.origin in grid.hub_ids
            assert req.operator_id == req.origin
            assert req.destination in grid.vertiport_ids
            assert req.destination != req.origin
            assert req.requested_departure == 11 * 1 + 1
            assert req.flexibility == config.flexibility
            assert req.resubmissions == 0

    def test_arrival_matches_route_and_sampled_dwells(self):
        config = corridor_config(demand_per_hub_per_hour=60.0)
        grid = scenario_grid(config)
        for req in generate_demand(grid, config, 0, 0):
            route = fixed_route(grid, req.origin, req.destination)
            travel = 1
            for cell in route.legs[1:-1]:
                if grid.resource(cell).kind == "sector":
                    travel += req.min_dwell(cell)
                else:
                    travel += 1
            assert req.requested_arrival == req.requested_departure + travel
            for cell, steps in req.dwell:
                assert cell in grid.ring
                assert steps in (1, 2)

    def test_different_seeds_change_the_draw(self):
        grid = scenario_grid(corridor_config())
        draws = {
            generate_demand(grid, corridor_config(seed=s), 0, 0)
            for s in range(20)
        }
        assert len(draws) > 1


def corridor_lane(grid, snapshot, requests, params, now):
    """Stands in for ``solve_tfmp``: every flight takes the corridor at t=1..3."""
    plans = {r.flight_id: FlightPlan(r.flight_id, ((1, "r0000"), (2, "r0001"),
                                                   (3, "r0002")))
             for r in requests}
    return SimpleNamespace(plans=plans, tdc_by_flight=dict.fromkeys(plans, 0.0),
                           deferred=(), dropped=())


def file_unchecked(ledger, plan):
    """Stands in for ``OccupancyLedger.file_plan`` without its capacity check."""
    for t, rid in plan.steps:
        ledger._counts[(rid, t)] = ledger._counts.get((rid, t), 0) + 1


def assert_same_remaining(grid, got, want):
    """Two snapshots agree on every cell at every step of the horizon."""
    for res in grid.resources:
        for t in range(grid.horizon_steps):
            assert got.remaining(res.resource_id, t) == want.remaining(res.resource_id, t)


class TestRunPeriod:
    def plan_one(self, mode, requests=None):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        if requests is None:
            requests = [make_request(grid, f"f{i}", "r0000", "r0002", 1)
                        for i in range(2)]
        result = run_period(grid, ledger, requests, mode,
                            DelayCostParams(0.3), 0.0, day=0, period=0, now=0)
        return grid, ledger, requests, result

    @pytest.mark.parametrize("mode", MODES)
    def test_every_request_is_filed_or_carried(self, mode):
        _, _, requests, result = self.plan_one(mode)
        carried = {req.flight_id for req in result.carryover}
        assert set(result.filed) | carried == {r.flight_id for r in requests}
        assert not set(result.filed) & carried

    @pytest.mark.parametrize("mode", MODES)
    def test_filed_plans_land_in_the_ledger(self, mode):
        grid, ledger, _, result = self.plan_one(mode)
        assert result.filed
        empty = OccupancyLedger(grid).snapshot()
        assert_same_remaining(grid, ledger.snapshot(),
                              empty.with_plans(result.filed.values()))

    def test_carryover_shifts_windows_and_counts_resubmission(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 1,
                                 flexibility=1) for i in range(3)]
        result = run_period(grid, ledger, requests, "tfmp",
                            DelayCostParams(0.3), 0.0, 0, 0, 0,
                            cadence_steps=2)
        assert result.dropped == ("f2",)
        (carried,) = result.carryover
        original = requests[2]
        assert carried.flight_id == "f2"
        assert carried.requested_departure == original.requested_departure + 2
        assert carried.requested_arrival == original.requested_arrival + 2
        assert carried.resubmissions == 1

    def test_audit_catches_what_the_ledger_let_through(self, monkeypatch):
        # With the ledger's own check bypassed, only the audit over the
        # period's plans sees both flights on the capacity-one ring cell.
        monkeypatch.setattr(sim, "solve_tfmp", corridor_lane)
        monkeypatch.setattr(OccupancyLedger, "file_plan", file_unchecked)
        with pytest.raises(RuntimeError, match="flight database broke capacity"):
            self.plan_one("tfmp")

    def test_audit_counts_what_earlier_periods_filed(self, monkeypatch):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        params = DelayCostParams(0.3)

        monkeypatch.setattr(sim, "solve_tfmp", corridor_lane)
        first = [make_request(grid, "f0", "r0000", "r0002", 1)]
        run_period(grid, ledger, first, "tfmp", params, 0.0, 0, 0, 0)
        assert ledger.snapshot().remaining("r0001", 2) == 0

        # Period 1's one plan fits on its own, but f0 already fills the
        # capacity-one ring cell at t=2; with the ledger's check bypassed
        # only an audit against the period's snapshot sees it.
        monkeypatch.setattr(OccupancyLedger, "file_plan", file_unchecked)
        second = [make_request(grid, "f1", "r0000", "r0002", 1)]
        with pytest.raises(RuntimeError, match="flight database broke capacity"):
            run_period(grid, ledger, second, "tfmp", params, 0.0, 0, 1, 1)

    @pytest.mark.parametrize("mode, stage, module, name", [
        ("tfmp", "tfmp", baseline, "_build_tfmp"),
        ("fair-coplan", "step1", step1, "choice_violations"),
    ], ids=["tfmp-build", "step1-recheck"])
    def test_stage_time_covers_the_whole_stage_call(self, monkeypatch, mode,
                                                    stage, module, name):
        # A stage's time is the whole call: a slow model build or re-check
        # counts as much as a slow solve.
        inner = getattr(module, name)

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, slow)
        _, _, _, result = self.plan_one(mode)
        assert result.stage_times[stage] >= 0.05

    def test_empty_batch_is_a_quiet_period(self):
        grid, ledger, _, result = self.plan_one("fair-coplan", requests=[])
        assert result.filed == {} and result.carryover == ()
        assert result.stage_times == {}
        assert_same_remaining(grid, ledger.snapshot(), OccupancyLedger(grid).snapshot())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            self.plan_one("freeflight")

    def test_duplicate_ids_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 1)
        with pytest.raises(ValueError, match="duplicate"):
            run_period(grid, OccupancyLedger(grid), [request, request],
                       "tfmp", DelayCostParams(0.3), 0.0, 0, 0, 0)


class TestRunDay:
    def test_carryovers_chain_between_periods(self):
        config = corridor_config(demand_per_hub_per_hour=36.0,
                                 periods_per_day=4, seed=1)
        grid = scenario_grid(config)
        periods = run_day(grid, config, 0, "tfmp")
        assert len(periods) == 4
        for prev, nxt in zip(periods, periods[1:]):
            carried = {req.flight_id for req in prev.carryover}
            assert carried <= set(nxt.request_ids)

    def test_days_are_independent_databases(self):
        config = corridor_config(periods_per_day=2)
        grid = scenario_grid(config)
        one = run_day(grid, config, 0, "tfmp")
        again = run_day(grid, config, 0, "tfmp")
        assert [p.to_dict() for p in one] == [p.to_dict() for p in again]

    def test_gamma_applies_only_to_the_fair_lane(self):
        config = corridor_config(gamma=2.5, periods_per_day=1)
        grid = scenario_grid(config)
        fair = run_day(grid, config, 0, "fair-coplan")
        plain = run_day(grid, config, 0, "coplan")
        assert fair[0].gamma == 2.5
        assert plain[0].gamma == 0.0


class TestRunCampaign:
    def test_fresh_demand_is_identical_across_modes(self):
        config = corridor_config(periods_per_day=3, seed=3)
        campaign = run_campaign(config)
        fresh = {}
        for mode in MODES:
            fresh[mode] = [
                [fid for fid in p.request_ids
                 if fid.startswith(f"d{p.day:02d}p{p.period:03d}")]
                for p in campaign.periods[mode]
            ]
        assert fresh["fair-coplan"] == fresh["coplan"] == fresh["tfmp"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_campaign(corridor_config(), modes=("tfmp", "drone-race"))

    def test_records_follow_the_period_layout(self):
        config = corridor_config(periods_per_day=2)
        campaign = run_campaign(config, modes=("tfmp",))
        records = campaign.records()
        assert list(records) == ["tfmp"]
        assert [r["period"] for r in records["tfmp"]] == [0, 1]
        row = records["tfmp"][0]
        assert row["day"] == 0 and row["mode"] == "tfmp"
        assert set(row) >= {"filed", "tdc", "total_tdc", "served",
                            "fairness", "carryover", "dropped"}

    def test_timing_rows_cover_every_period(self):
        config = corridor_config(periods_per_day=2)
        campaign = run_campaign(config, modes=("tfmp", "coplan"))
        rows = campaign.timing_rows()
        assert len(rows) == 4
        assert all("step2_max" in row for row in rows)


class TestCampaignReuse:
    @staticmethod
    def records_by_run_day(config):
        grid = scenario_grid(config)
        return {mode: [p.to_dict() for day in range(config.days)
                       for p in run_day(grid, config, day, mode)]
                for mode in MODES}

    @pytest.mark.parametrize("modes", [MODES, ("coplan", "fair-coplan", "tfmp")])
    def test_records_equal_run_day_without_the_memo(self, modes):
        config = corridor_config(days=2, periods_per_day=3, seed=3)
        records = run_campaign(config, modes=modes).records()
        assert list(records) == list(modes)
        assert records == self.records_by_run_day(config)

    def test_coplan_reuses_the_fair_lanes_solves(self, monkeypatch):
        calls = []
        real_run_highs = milp.run_highs

        def spy(*args):
            calls.append(1)
            return real_run_highs(*args)

        monkeypatch.setattr(milp, "run_highs", spy)
        config = corridor_config(days=2, periods_per_day=3, seed=3)

        def highs_calls(modes):
            before = len(calls)
            run_campaign(config, modes=modes)
            return len(calls) - before

        fair = highs_calls(("fair-coplan",))
        coplan_alone = highs_calls(("coplan",))
        coplan_after_fair = highs_calls(("fair-coplan", "coplan")) - fair
        assert 0 <= coplan_after_fair < coplan_alone


class TestSummaries:
    @staticmethod
    def record(mode, day, period, *, served=1, total=0.0, fairness=0.0,
               replanned=(), conflict_cells=0, dropped=(), carryover=()):
        return {
            "mode": mode, "day": day, "period": period,
            "served": served, "total_tdc": total, "fairness": fairness,
            "replanned": list(replanned), "conflict_cells": conflict_cells,
            "dropped": list(dropped), "carryover": list(carryover),
        }

    def test_day_rows_arithmetic(self):
        records = [
            self.record("m", 0, 0, served=2, total=1.0, fairness=0.5,
                        replanned=("a",), conflict_cells=1),
            self.record("m", 0, 1, served=1, total=0.5,
                        dropped=("x",), carryover=("y",)),
        ]
        (row,) = day_rows(records)
        assert row == {
            "mode": "m", "day": 0, "served": 3, "unserved_end": 1,
            "total_tdc": 1.5, "mean_tdc": 0.5,
            "deconfliction_periods": 1, "day_fairness": 0.5,
            "conflict_cells": 1, "dropped": 1,
        }

    def test_day_rows_with_nothing_served(self):
        (row,) = day_rows([self.record("m", 0, 0, served=0)])
        assert row["mean_tdc"] is None
        assert row["day_fairness"] is None

    def test_paired_fairness_counts_only_deconflicted_days(self):
        fair = [
            self.record("fair-coplan", 0, 0, fairness=0.2, replanned=("a",)),
            self.record("fair-coplan", 1, 0),  # quiet day: not eligible
            self.record("fair-coplan", 2, 0, fairness=0.4, replanned=("a",)),
        ]
        plain = [
            self.record("coplan", 0, 0, fairness=0.5, replanned=("a",)),
            self.record("coplan", 1, 0),
            self.record("coplan", 2, 0, fairness=0.1, replanned=("a",)),
        ]
        summary = campaign_summary({"fair-coplan": fair, "coplan": plain})
        paired = summary["paired_fairness"]
        assert paired["eligible_days"] == 2
        assert paired["improved_days"] == 1
        assert paired["improved_fraction"] == 0.5

    def test_mode_totals(self):
        records = {
            "tfmp": [self.record("tfmp", 0, 0, served=2, total=3.0),
                     self.record("tfmp", 1, 0, served=2, total=1.0)],
        }
        modes = campaign_summary(records)["modes"]["tfmp"]
        assert modes["days"] == 2
        assert modes["served"] == 4
        assert modes["total_tdc"] == 4.0
        assert modes["mean_tdc"] == 1.0
        assert modes["mean_fairness"] is None
