"""Fixed-route baseline: deterministic routes, timing-only schedules."""
from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from faircoplan import baseline, milp, sim
from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.baseline import FixedRoute, fixed_route, solve_tfmp
from faircoplan.blocks import solve_joint
from faircoplan.flights import DelayCostParams, FlightPlan
from faircoplan.oracle import oracle_tfmp_optimum
from faircoplan.serialize import load_scenario

from helpers import assert_same_model, make_grid, make_request, record_solves

PARAMS = DelayCostParams(alpha=0.3)
DESK = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"


class TestFixedRoute:
    def test_follows_the_corridor(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        route = fixed_route(grid, "r0000", "r0002")
        assert route.legs == ("r0000", "r0001", "r0002")

    def test_ties_break_toward_smaller_resource_ids(self):
        grid = make_grid(2, 3, ((0, 0), (1, 2)))
        route = fixed_route(grid, "r0000", "r0005")
        assert route.legs == ("r0000", "r0001", "r0002", "r0005")

    def test_is_direction_sensitive_but_same_length(self):
        grid = make_grid(2, 3, ((0, 0), (1, 2)))
        there = fixed_route(grid, "r0000", "r0005")
        back = fixed_route(grid, "r0005", "r0000")
        assert back.legs == ("r0005", "r0002", "r0001", "r0000")
        assert len(back.legs) == len(there.legs)

    def test_equal_endpoints_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        with pytest.raises(ValueError, match="must differ"):
            fixed_route(grid, "r0000", "r0000")

    def test_legs_must_span_the_endpoints(self):
        with pytest.raises(ValueError, match="origin to destination"):
            FixedRoute("a", "b", ("a", "c"))


class TestSchedule:
    def test_lone_flight_flies_on_time(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), [request],
                         PARAMS)
        assert out.plans["f0"].steps == ((0, "r0000"), (1, "r0001"),
                                         (2, "r0002"))
        assert out.total_tdc == pytest.approx(0.0)
        assert out.deferred == () and out.dropped == ()
        assert out.objective is not None

    def test_contention_is_resolved_by_ground_delay(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0)
                    for i in range(2)]
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests,
                         PARAMS)
        assert out.dropped == ()
        assert out.total_tdc == pytest.approx(1.0)
        departures = sorted(p.d_prop for p in out.plans.values())
        assert departures == [0, 1]

    def test_matches_the_schedule_enumeration_oracle(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0)
                    for i in range(2)]
        snap = OccupancyLedger(grid).snapshot()
        out = solve_tfmp(grid, snap, requests, PARAMS)
        want, _ = oracle_tfmp_optimum(grid, snap, requests, PARAMS)
        assert out.total_tdc == pytest.approx(want)

    def test_airborne_holding_beats_ground_delay_when_cheaper(self):
        # The destination pad is full on the requested arrival step; holding
        # one step in the ring costs alpha, departing late costs a full unit.
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancySnapshot(grid, {("r0002", 2): 2})
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        out = solve_tfmp(grid, snap, [request], PARAMS)
        assert out.plans["f0"].steps == (
            (0, "r0000"), (1, "r0001"), (2, "r0001"), (3, "r0002"))
        assert out.total_tdc == pytest.approx(0.3)

    def test_pads_are_occupied_exactly_one_step(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0)
                    for i in range(2)]
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests,
                         PARAMS)
        for plan in out.plans.values():
            rids = [rid for _, rid in plan.steps]
            assert rids.count("r0000") == 1
            assert rids.count("r0002") == 1


class TestCachedFragments:
    @staticmethod
    def cascade():
        """Four flights that must all leave the pad at step 0 onto a
        capacity-one ring cell: only one fits, so three are dropped. f0 has
        fewer resubmissions and goes first, so the blocks that stay move to
        lower columns."""
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0, flexibility=0,
                                 resubmissions=min(i, 1)) for i in range(4)]
        return grid, requests, OccupancyLedger(grid).snapshot()

    def test_every_attempt_equals_a_fresh_stage_call(self, monkeypatch):
        grid, requests, snap = self.cascade()
        solved = record_solves(monkeypatch, "fixed-route-schedule")
        out = solve_tfmp(grid, snap, requests, PARAMS)
        assert out.dropped == ("f0", "f3", "f2")
        cascade = list(solved)
        assert len(cascade) == out.attempts == 4
        actives = [("f0", "f1", "f2", "f3"), ("f1", "f2", "f3"), ("f1", "f2"), ("f1",)]
        for active, (model, result) in zip(actives, cascade, strict=True):
            solved.clear()
            fresh_out = solve_tfmp(grid, snap,
                                   [r for r in requests if r.flight_id in active], PARAMS)
            fresh, fresh_result = solved[0]
            assert_same_model(model, fresh)
            assert (result.status, result.x) == (fresh_result.status, fresh_result.x)
        assert cascade[-1][1].status == milp.OPTIMAL
        assert fresh_out.plans == out.plans != {}

    def test_each_cell_room_is_read_once(self):
        # The cascade solves four models, but the room of each cell the
        # flights can hold is read from the snapshot once.
        grid, requests, snap = self.cascade()
        by_id = {req.flight_id: req for req in requests}
        schedules = {
            fid: baseline._schedule(grid, req, fixed_route(grid, req.origin, req.destination),
                                    PARAMS, 0, grid.horizon_steps)
            for fid, req in by_id.items()}
        reads = Counter()

        class CountingSnapshot:
            def remaining(self, resource_id, t):
                reads[(resource_id, t)] += 1
                return snap.remaining(resource_id, t)

        out = solve_joint("fixed-route-schedule", schedules, sorted(schedules), by_id,
                          CountingSnapshot())
        assert (out.dropped, out.attempts) == (("f0", "f3", "f2"), 4)
        assert set(reads) == {cell for schedule in schedules.values()
                              for cell in schedule.cells}
        assert set(reads.values()) == {1}

    def test_later_blocks_keep_both_capacity_terms(self):
        # Three flights meet head-on in the capacity-one ring cells; each
        # one's capacity term has to leave the cell at its own column, at
        # its block's offset, or the batch breaks capacity.
        grid = make_grid(1, 4, ((0, 0), (0, 3)), horizon=8)
        requests = [
            make_request(grid, "f0", "r0003", "r0000", 0, flexibility=1),
            make_request(grid, "f1", "r0000", "r0003", 1, flexibility=1),
            make_request(grid, "f2", "r0003", "r0000", 0, flexibility=2),
        ]
        snap = OccupancyLedger(grid).snapshot()
        out = solve_tfmp(grid, snap, requests, PARAMS)
        want, _ = oracle_tfmp_optimum(grid, snap, requests, PARAMS)
        assert out.dropped == ()
        assert out.total_tdc == pytest.approx(want) == pytest.approx(2.3)


class TestCapacityAudit:
    def test_overloading_extraction_breaks_capacity(self, monkeypatch):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0)
                    for i in range(2)]

        def on_time(schedule, x):
            request = schedule.request
            return FlightPlan(request.flight_id, tuple(
                (request.requested_departure + i, rid)
                for i, rid in enumerate(schedule.route.legs)))

        # Both flights fly on time: each plan alone fits, but together they
        # put two flights on the capacity-one ring cell.
        monkeypatch.setattr(baseline._Schedule, "plan", on_time)
        with pytest.raises(RuntimeError, match="fixed-route batch breaks capacity"):
            solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests, PARAMS)

    def test_extraction_that_skips_a_cell_fails_recheck(self, monkeypatch):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        monkeypatch.setattr(baseline._Schedule, "plan", lambda schedule, x: FlightPlan(
            schedule.request.flight_id, ((0, "r0000"), (1, "r0002"))))
        with pytest.raises(RuntimeError, match="f0: fixed-route plan failed re-check"):
            solve_tfmp(grid, OccupancyLedger(grid).snapshot(), [request], PARAMS)


class TestDeferral:
    def test_departure_window_past_the_horizon_defers(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        late = make_request(grid, "f0", "r0000", "r0002", 6)
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), [late],
                         PARAMS)
        assert out.deferred == ("f0",)
        assert out.plans == {}
        assert out.objective is None

    def test_now_truncates_the_departure_window(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), [request],
                         PARAMS, now=6)
        assert out.deferred == ("f0",)

    def test_overdue_flight_pays_the_unavoidable_delay(self):
        # Requested for step 0 but planned at step 2: two steps of departure
        # and arrival delay are already sunk, and the objective must say so.
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        out = solve_tfmp(grid, snap, [request], PARAMS, now=2)
        assert out.plans["f0"].d_prop == 2
        assert out.total_tdc == pytest.approx(2.0)
        assert out.objective == pytest.approx(2.0)
        want, _ = oracle_tfmp_optimum(grid, snap, [request], PARAMS, now=2)
        assert out.total_tdc == pytest.approx(want)

    def test_duplicate_ids_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        with pytest.raises(ValueError, match="duplicate"):
            solve_tfmp(grid, OccupancyLedger(grid).snapshot(),
                       [request, request], PARAMS)


class TestVictimDrops:
    def test_inflexible_pair_drops_the_newest(self):
        # Zero flexibility pins both departures to the same slot on a
        # capacity-one ring: no timing fix exists, so one is removed.
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0,
                                 flexibility=0) for i in range(2)]
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests,
                         PARAMS)
        assert out.dropped == ("f1",)
        assert out.attempts == 2
        assert list(out.plans) == ["f0"]
        assert out.total_tdc == pytest.approx(0.0)

    def test_resubmitted_flights_are_protected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [
            make_request(grid, "f0", "r0000", "r0002", 0, flexibility=0),
            make_request(grid, "f1", "r0000", "r0002", 0, flexibility=0,
                         resubmissions=1),
        ]
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests,
                         PARAMS)
        assert out.dropped == ("f0",)
        assert list(out.plans) == ["f1"]

    def test_three_way_contention_keeps_two(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0,
                                 flexibility=1) for i in range(3)]
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests,
                         PARAMS)
        assert out.dropped == ("f2",)
        assert sorted(out.plans) == ["f0", "f1"]
        assert out.total_tdc == pytest.approx(1.0)


class TestRelaxationFirst:
    def test_fixed_route_and_deconfliction_models_solve_lp_first(self, monkeypatch):
        # The fixed-route formulation's relaxation is tight, and so is each
        # deconfliction flight's flow; choice setting goes to HiGHS as a MILP.
        flags: dict[str, set[bool]] = {}
        real_solve = milp.solve

        def spy(model):
            flags.setdefault(model.name, set()).add(model.relaxation_first)
            return real_solve(model)

        monkeypatch.setattr(milp, "solve", spy)
        config = load_scenario(DESK)
        grid = sim.scenario_grid(config)
        for mode in sim.MODES:
            sim.run_day(grid, config, 0, mode)
        assert flags == {"fixed-route-schedule": {True}, "choice-setting": {False},
                         "deconfliction": {True}}
