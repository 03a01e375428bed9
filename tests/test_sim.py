"""Rolling-horizon simulation: demand, period bookkeeping, summaries."""
from __future__ import annotations

import copy
import hashlib
import re
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from faircoplan import baseline, milp, sim, step1, step3
from faircoplan.airspace import (
    AirspaceGrid,
    ConfigError,
    GridConfig,
    OccupancyLedger,
    VertiportSpec,
    build_grid,
)
from faircoplan.baseline import fixed_route
from faircoplan.flights import DelayCostParams, FlightPlan
from faircoplan.serialize import load_scenario
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

from helpers import make_grid, make_request, record_solves
from test_milp import input_digest

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"


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
        dict(gamma=float("nan")),
        dict(gamma=float("inf")),
        dict(demand_per_hub_per_hour=float("nan")),
        dict(demand_per_hub_per_hour=float("inf")),
        # Finite, but more than numpy's Poisson sampler draws.
        dict(demand_per_hub_per_hour=1e300),
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

    def test_lone_hub_has_nowhere_to_fly(self):
        config = GridConfig(rows=1, cols=3, horizon_steps=8,
                            vertiports=(VertiportSpec(0, 0, "hub", 2),))
        build_grid(config)
        with pytest.raises(ConfigError, match="^hub r0000 has no other vertiport to fly to$"):
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
        ("tfmp", "tfmp", baseline, "_schedule"),
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
    def test_records_equal_run_day_without_the_share(self, modes):
        config = corridor_config(days=2, periods_per_day=3, seed=3)
        records = run_campaign(config, modes=modes).records()
        assert list(records) == list(modes)
        assert records == self.records_by_run_day(config)

    def test_each_period_demand_is_drawn_once(self, monkeypatch):
        drawn = []
        real_generate_demand = sim.generate_demand

        def spy(grid, config, day, period):
            drawn.append((day, period))
            return real_generate_demand(grid, config, day, period)

        monkeypatch.setattr(sim, "generate_demand", spy)
        config = corridor_config(days=2, periods_per_day=3, seed=3)
        run_campaign(config)
        assert drawn == [(day, period) for day in range(2) for period in range(3)]
        drawn.clear()
        run_day(scenario_grid(config), config, 1, "tfmp")
        assert drawn == [(1, period) for period in range(3)]

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


def spy_on_steps(monkeypatch) -> list[dict]:
    """Records each ``sim.run_period`` call: its (mode, day, period), the
    batch, and of the snapshot at entry the occupancy counts of the period
    window and, for a nonempty batch, step 1's ``room_table``; and how often
    it called ``solve_step1`` and ``solve_step2``."""
    calls: list[dict] = []
    real_run_period = sim.run_period

    def run_period(grid, ledger, requests, mode, params, gamma, day, period, now, *args,
                   **kwargs):
        snapshot = ledger.snapshot()
        calls.append({
            "key": (mode, day, period), "batch": tuple(requests),
            "counts": {cell: n for cell, n in snapshot.counts.items()
                       if now <= cell[1] < now + grid.horizon_steps},
            "room": (step1.room_table(grid, snapshot, list(requests), now).tolist()
                     if requests else None),
            "step1": 0, "step2": 0})
        return real_run_period(grid, ledger, requests, mode, params, gamma, day, period, now,
                               *args, **kwargs)

    def counted(step):
        real = getattr(sim, step)

        def spy(*args):
            calls[-1][step[6:]] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(sim, "run_period", run_period)
    for step in ("solve_step1", "solve_step2"):
        monkeypatch.setattr(sim, step, counted(step))
    return calls


def test_a_negotiated_period_reads_its_snapshot_table_once(monkeypatch):
    # Step 1, its whole-offer check and its re-check included, and step 2
    # read the period's ledger snapshot through one remaining-capacity
    # table, built once: one ``capacity_table`` per period. Step 3 reads
    # another snapshot, the proposals' ``base``, and is not counted.
    periods: list[dict] = []
    reading = [False]
    solved = record_solves(monkeypatch, "choice-setting")
    real_table = AirspaceGrid.capacity_table
    real_step1, real_step2, real_step3 = sim.solve_step1, sim.solve_step2, sim.solve_step3

    def capacity_table(self, *args):
        if reading[0]:
            periods[-1]["tables"] += 1
        return real_table(self, *args)

    def solve_step1(*args):
        periods.append({"tables": 0, "step2": 0})
        reading[0] = True
        before = len(solved)
        out = real_step1(*args)
        periods[-1]["solved"] = len(solved) > before
        return out

    def solve_step2(*args):
        periods[-1]["step2"] += 1
        return real_step2(*args)

    def solve_step3(*args, **kwargs):
        reading[0] = False
        return real_step3(*args, **kwargs)

    monkeypatch.setattr(AirspaceGrid, "capacity_table", capacity_table)
    for name, spy in (("solve_step1", solve_step1), ("solve_step2", solve_step2),
                      ("solve_step3", solve_step3)):
        monkeypatch.setattr(sim, name, spy)
    config = load_scenario(DESK)
    run_day(scenario_grid(config), config, 0, "coplan")
    assert [period["tables"] for period in periods] == [1] * len(periods)
    # Periods whose step 1 solves a model (and re-checks it) and periods it
    # settles, each with step 2 run.
    assert sum(period["solved"] and period["step2"] > 0 for period in periods) >= 5
    assert sum(not period["solved"] and period["step2"] > 0 for period in periods) >= 5


def spy_on_step3(monkeypatch) -> dict[str, int]:
    """Counts, by name, the calls step 3's γ-free half makes: the
    proposals' ``detect_conflicts`` and each conflicting flight's
    ``cell_domain`` and ``arc_fragment``."""
    calls = dict.fromkeys(("detect_conflicts", "cell_domain", "arc_fragment"), 0)

    def counted(name):
        real = getattr(step3, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(step3, name, counted(name))
    return calls


class TestSharedSteps:
    # Fair-coplan and coplan differ only in step 3's γ, so within one
    # campaign day the lane that plans a period second takes each of steps
    # 1-2 from the first wherever the batch, now, params and what that step
    # reads of the snapshot agree: step 1's room table, and step 2's
    # occupancy counts of the period window. Step 3's γ-free half reads
    # what step 2 reads, so it is taken with step 2.
    @staticmethod
    def desk_config():
        # Day 0 shares both steps in period 0 only; day 1 in periods 0-4.
        return replace(load_scenario(DESK), days=2, periods_per_day=5)

    @staticmethod
    def grid():
        # Vertiports r0000 and r0004, their ring sectors r0001 and r0003,
        # and one en-route sector, r0002, that only step 2 reads.
        return make_grid(1, 5, ((0, 0), (0, 4)))

    @classmethod
    def one_period(cls, mode, share, ledger=None, requests=None, grid=None):
        grid = grid or cls.grid()
        if requests is None:
            requests = [make_request(grid, f"f{i}", "r0000", "r0004", 1) for i in range(2)]
        return sim.run_period(grid, ledger or OccupancyLedger(grid), requests, mode,
                              DelayCostParams(0.3), 1.0 if mode == "fair-coplan" else 0.0,
                              day=0, period=0, now=0, share=share)

    @staticmethod
    def head_on():
        """One flight east and two west over a 2 x 4 grid where every cell
        but the pads holds one flight: their proposals conflict, so step 3
        deconflicts them. The horizon is 8 steps."""
        grid = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=1)
        return grid, [make_request(grid, "f0", "r0000", "r0007", 0, flexibility=2),
                      make_request(grid, "f1", "r0007", "r0000", 0, flexibility=3),
                      make_request(grid, "f2", "r0007", "r0000", 0, flexibility=2)]

    @classmethod
    def head_on_period(cls, mode, share, cell=None):
        """``head_on``'s period in ``mode``, on a ledger holding one plan at
        ``cell``, (t, resource), if given."""
        grid, requests = cls.head_on()
        ledger = OccupancyLedger(grid)
        if cell is not None:
            ledger.file_plan(FlightPlan("x", (cell,)))
        return cls.one_period(mode, share, ledger=ledger, requests=requests, grid=grid)

    def step3_after_filing(self, monkeypatch, cell):
        """Coplan's head-on period after fair-coplan's, on a ledger holding
        one plan at ``cell``: its record, the record of the same period run
        alone, and the calls of step 3's γ-free half it made."""
        share = {}
        first = self.head_on_period("fair-coplan", share)
        assert first.replanned
        calls = spy_on_step3(monkeypatch)
        second = self.head_on_period("coplan", share, cell)
        taken = dict(calls)
        alone = self.head_on_period("coplan", None, cell)
        assert second.replanned and calls["arc_fragment"] > taken["arc_fragment"]
        return second.to_dict(), alone.to_dict(), taken

    def test_a_shared_deconflicted_period_takes_step_3s_gamma_free_half(self, monkeypatch):
        second, alone, calls = self.step3_after_filing(monkeypatch, None)
        assert second == alone
        assert calls == {"detect_conflicts": 0, "cell_domain": 0, "arc_fragment": 0}

    def test_one_differing_count_builds_step_3s_own_gamma_free_half(self, monkeypatch):
        # r0002 at t=7 is inside the window but on no flight's plan.
        second, alone, calls = self.step3_after_filing(monkeypatch, (7, "r0002"))
        assert second == alone
        assert calls["detect_conflicts"] == 1
        conflicting = len(second["replanned"]) + len(second["dropped"])
        assert calls["cell_domain"] == calls["arc_fragment"] == conflicting

    def test_a_count_outside_the_window_shares_step_3s_gamma_free_half(self, monkeypatch):
        second, alone, calls = self.step3_after_filing(monkeypatch, (8, "r0002"))
        assert second == alone
        assert calls == {"detect_conflicts": 0, "cell_domain": 0, "arc_fragment": 0}

    def test_coplan_hands_highs_the_same_input_after_fair_coplan(self, monkeypatch):
        # Over two desk days, coplan run after fair-coplan takes step 3's
        # γ-free half in some deconflicted periods, and still hands HiGHS
        # every array of every deconfliction solve it hands it run alone.
        # (A shared step 1 makes no solve, so only step 3's are compared.)
        config = replace(load_scenario(DESK), days=2)
        lane, model_name = [None], [None]
        real_run_day, real_solve, real_run_highs = sim.run_day, milp.solve, milp.run_highs

        def run_day(grid, config, day, mode, **kwargs):
            lane[0] = mode
            built = calls["arc_fragment"]
            out = real_run_day(grid, config, day, mode, **kwargs)
            if mode == "coplan":
                fragments[-1] += calls["arc_fragment"] - built
            return out

        def solve(model):
            model_name[0] = model.name
            return real_solve(model)

        def run_highs(*arrays):
            if (lane[0], model_name[0]) == ("coplan", "deconfliction"):
                c, lb, ub, integrality, matrix, row_lb, row_ub = arrays
                for array in (c, lb, ub, integrality, *matrix, row_lb, row_ub):
                    digest.update(array.dtype.str.encode() + array.tobytes())
                solves[0] += 1
            return real_run_highs(*arrays)

        monkeypatch.setattr(sim, "run_day", run_day)
        monkeypatch.setattr(milp, "solve", solve)
        monkeypatch.setattr(milp, "run_highs", run_highs)
        calls = spy_on_step3(monkeypatch)
        digests, fragments = [], []
        for modes in (("coplan",), ("fair-coplan", "coplan")):
            digest, solves = hashlib.blake2b(digest_size=16), [0]
            fragments.append(0)
            run_campaign(config, modes=modes)
            digests.append((digest.hexdigest(), solves[0]))
        assert digests[0] == digests[1] and digests[0][1] > 0
        assert fragments[1] < fragments[0]

    @pytest.mark.parametrize("first, second", [("fair-coplan", "coplan"),
                                               ("coplan", "fair-coplan")])
    def test_second_lane_runs_steps_1_2_only_where_inputs_differ(self, monkeypatch,
                                                                 first, second):
        calls = spy_on_steps(monkeypatch)
        # Day 1's period 17 is the first whose step 1 alone is shared.
        config = replace(self.desk_config(), periods_per_day=18)
        run_campaign(config, modes=(first, "tfmp", second))
        by_key = {call["key"]: call for call in calls}
        seen = {"both": 0, "step1": 0, "neither": 0}
        for day in range(config.days):
            for period in range(config.periods_per_day):
                lead, late = by_key[(first, day, period)], by_key[(second, day, period)]
                assert lead["step1"] == (1 if lead["batch"] else 0)
                if not late["batch"]:
                    assert late["step1"] == late["step2"] == 0
                elif late["batch"] != lead["batch"]:
                    assert late["step1"] == 1
                    seen["neither"] += 1
                elif late["counts"] == lead["counts"]:
                    assert late["step1"] == late["step2"] == 0
                    seen["both"] += 1
                elif late["room"] == lead["room"]:
                    assert (late["step1"], late["step2"]) == (0, lead["step2"])
                    seen["step1"] += 1
                else:
                    assert late["step1"] == 1
                    seen["neither"] += 1
        assert seen["both"] >= 3 and seen["step1"] >= 1 and seen["neither"] >= 1

    def test_records_equal_each_lane_run_alone(self):
        config = self.desk_config()
        grid = scenario_grid(config)
        records = run_campaign(config).records()
        assert records == {mode: [p.to_dict() for day in range(config.days)
                                  for p in run_day(grid, config, day, mode)]
                           for mode in MODES}

    def test_shared_period_times_only_its_own_stages(self):
        share = {}
        first = self.one_period("fair-coplan", share)
        second = self.one_period("coplan", share)
        assert set(first.stage_times) == {"step1", "step2", "step3"}
        assert set(second.stage_times) == {"step3"} and second.step2_max_time == 0.0
        assert second.filed == first.filed != {}

    def steps_after_filing(self, monkeypatch, cell):
        """(step 1, step 2) calls of fair-coplan's period, then of coplan's
        on a ledger holding one plan at ``cell``, (t, resource)."""
        calls = spy_on_steps(monkeypatch)
        share = {}
        self.one_period("fair-coplan", share)
        ledger = OccupancyLedger(self.grid())
        ledger.file_plan(FlightPlan("x", (cell,)))
        self.one_period("coplan", share, ledger=ledger)
        return [(call["step1"], call["step2"]) for call in calls]

    def test_one_differing_occupancy_count_is_not_shared(self, monkeypatch):
        # Both flights' arrival windows cover r0004 at t=6, which has room
        # for both until the plan takes one place: step 1's table changes.
        assert self.steps_after_filing(monkeypatch, (6, "r0004")) == [(1, 2), (1, 2)]

    def test_a_count_only_step_2_reads_shares_step_1(self, monkeypatch):
        assert self.steps_after_filing(monkeypatch, (3, "r0002")) == [(1, 2), (0, 2)]

    def test_a_count_outside_the_period_window_shares_both_steps(self, monkeypatch):
        assert self.steps_after_filing(monkeypatch, (8, "r0002")) == [(1, 2), (0, 0)]

    def test_one_differing_resubmission_count_is_not_shared(self, monkeypatch):
        calls = spy_on_steps(monkeypatch)
        share = {}
        self.one_period("fair-coplan", share)
        grid = self.grid()
        requests = [make_request(grid, "f0", "r0000", "r0004", 1),
                    make_request(grid, "f1", "r0000", "r0004", 1, resubmissions=1)]
        self.one_period("coplan", share, requests=requests)
        assert [(call["step1"], call["step2"]) for call in calls] == [(1, 2), (1, 2)]

    @pytest.mark.parametrize("modes, shared", [
        (MODES, True), (("coplan", "fair-coplan"), True),
        (("fair-coplan", "tfmp"), False), (("coplan",), False), (("tfmp",), False),
    ])
    def test_a_day_shares_only_between_both_negotiated_lanes(self, monkeypatch, modes,
                                                             shared):
        shares = []
        real_run_day = sim.run_day

        def run_day(grid, config, day, mode, **kwargs):
            shares.append((day, kwargs["share"]))
            return real_run_day(grid, config, day, mode, **kwargs)

        monkeypatch.setattr(sim, "run_day", run_day)
        run_campaign(corridor_config(days=2, periods_per_day=2), modes=modes)
        assert [day for day, _ in shares] == [0] * len(modes) + [1] * len(modes)
        if not shared:
            assert all(share is None for _, share in shares)
            return
        # One dict per day, the same for every lane of that day.
        per_day = {day: {id(share) for d, share in shares if d == day} for day in (0, 1)}
        assert all(len(ids) == 1 for ids in per_day.values())
        assert per_day[0] != per_day[1]
        assert all(isinstance(share, dict) for _, share in shares)

    @staticmethod
    def stored_content(share):
        """Each stored entry by value. ``milp.Model`` and ``OccupancySnapshot``
        compare by identity, so step 3's γ-free half is compared by what it
        holds: ``base`` by its counts and each arc fragment by its model's
        ``input_digest``, its arcs and its cells."""
        out = {}
        for period, entry in share.items():
            half = entry.step3
            out[period] = (replace(entry, step3=None), None if half is None else (
                half.requests, half.report, half.kept, half.kept_tdc,
                None if half.base is None else half.base.counts,
                {fid: (input_digest([flow.fragment]), flow.arcs, flow.cells)
                 for fid, flow in half.flows.items()}))
        return out

    def test_stored_entry_is_left_as_it_was_by_the_reading_lane(self, monkeypatch):
        # Once on a batch whose proposals fit, and once on one whose
        # proposals conflict, so that the entry holds arc fragments.
        for batch in (self.one_period, self.head_on_period):
            calls = spy_on_steps(monkeypatch)
            share = {}
            first = batch("fair-coplan", share)
            stored = copy.deepcopy(share)
            expected = self.stored_content(stored)
            batch("coplan", share)
            assert [call["step1"] for call in calls] == [1, 0]
            assert self.stored_content(share) == expected and list(share) == [0]
            assert share[0].step3.report.has_conflicts == bool(first.replanned)
            monkeypatch.undo()
        assert first.replanned

    def test_direct_calls_share_nothing(self, monkeypatch):
        calls = spy_on_steps(monkeypatch)
        self.one_period("fair-coplan", None)
        self.one_period("coplan", None)
        config = corridor_config(periods_per_day=2)
        grid = scenario_grid(config)
        for mode in ("fair-coplan", "coplan"):
            run_day(grid, config, 0, mode)
        assert all(call["step1"] == 1 for call in calls if call["batch"])
        assert len([call for call in calls if call["batch"]]) >= 4


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
