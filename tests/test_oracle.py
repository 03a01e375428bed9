"""Enumeration reference optimizers: exhaustiveness, budgets, determinism."""
from __future__ import annotations

import pytest

from faircoplan.airspace import OccupancyLedger
from faircoplan.flights import DelayCostParams
from faircoplan.oracle import (
    OracleSizeError,
    TinyInstance,
    enumerate_choice_families,
    enumerate_feasible_plans,
    oracle_joint_optimum,
    oracle_step2_optimum,
)
from faircoplan.step1 import solve_step1

from helpers import blocked, make_grid, make_request

PARAMS = DelayCostParams(alpha=0.3)


@pytest.fixture()
def corridor():
    return make_grid(1, 3, ((0, 0), (0, 2)))


def full_choices(grid, request):
    snap = OccupancyLedger(grid).snapshot()
    return snap, solve_step1(grid, snap, [request], 0).choice_sets[
        request.flight_id]


class TestPlanEnumeration:
    def test_corridor_has_exactly_six_plans(self, corridor):
        # Departures 0..3, ring holds of any length, arrivals 2..4:
        # (0,+1)(0,+2)(0,+3)(1,+1)(1,+2)(2,+1).
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap, choices = full_choices(corridor, request)
        plans = enumerate_feasible_plans(corridor, snap, request,
                                         choices=choices)
        assert len(plans) == 6
        arrivals = sorted((p.d_prop, p.a_prop) for p in plans)
        assert arrivals == [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]

    def test_every_enumerated_plan_is_distinct(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap, choices = full_choices(corridor, request)
        plans = enumerate_feasible_plans(corridor, snap, request,
                                         choices=choices)
        assert len({p.steps for p in plans}) == len(plans)

    def test_blocked_ring_leaves_no_plans(self):
        probe = make_grid(1, 3, ((0, 0), (0, 2)))
        grid = make_grid(1, 3, ((0, 0), (0, 2)),
                         overrides=blocked(probe, 0, 1))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        snap = OccupancyLedger(grid).snapshot()
        assert enumerate_feasible_plans(grid, snap, request) == ()

    def test_empty_choice_set_short_circuits(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap = OccupancyLedger(corridor).snapshot()
        from faircoplan.flights import ChoiceSet
        assert enumerate_feasible_plans(
            corridor, snap, request,
            choices=ChoiceSet("f0", "r0000", "r0002")) == ()

    def test_budget_overrun_raises(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap = OccupancyLedger(corridor).snapshot()
        with pytest.raises(OracleSizeError, match="budget"):
            enumerate_feasible_plans(corridor, snap, request, budget=3)

    def test_enumeration_is_deterministic(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap, choices = full_choices(corridor, request)
        first = enumerate_feasible_plans(corridor, snap, request,
                                         choices=choices)
        second = enumerate_feasible_plans(corridor, snap, request,
                                          choices=choices)
        assert first == second


class TestSingleFlightOracle:
    def test_picks_the_cheapest_plan(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap, choices = full_choices(corridor, request)
        cost, plan = oracle_step2_optimum(corridor, snap, request, choices,
                                          PARAMS)
        assert cost == pytest.approx(0.0)
        assert plan.steps == ((0, "r0000"), (1, "r0001"), (2, "r0002"))

    def test_no_plans_returns_none_pair(self):
        probe = make_grid(1, 3, ((0, 0), (0, 2)))
        grid = make_grid(1, 3, ((0, 0), (0, 2)),
                         overrides=blocked(probe, 0, 1))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        snap = OccupancyLedger(grid).snapshot()
        from faircoplan.flights import ChoiceSet
        cost, plan = oracle_step2_optimum(
            grid, snap, request,
            ChoiceSet("f0", "r0000", "r0002"), PARAMS)
        assert cost is None and plan is None


class TestJointOracle:
    def test_gamma_needs_proposals(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap, choices = full_choices(corridor, request)
        with pytest.raises(ValueError, match="proposed plans"):
            oracle_joint_optimum(corridor, snap, [request],
                                 {"f0": choices}, PARAMS, gamma=1.0)

    def test_combination_budget_guard(self, corridor):
        requests = [make_request(corridor, f"f{i}", "r0000", "r0002", 0)
                    for i in range(2)]
        snap = OccupancyLedger(corridor).snapshot()
        sets = solve_step1(corridor, snap, requests, 0).choice_sets
        with pytest.raises(OracleSizeError):
            oracle_joint_optimum(corridor, snap, requests, sets, PARAMS,
                                 budget=4)


class TestChoiceFamilies:
    def test_families_respect_the_budget(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap = OccupancyLedger(corridor).snapshot()
        with pytest.raises(OracleSizeError):
            enumerate_choice_families(corridor, snap, request, budget=2)


class TestTinyInstance:
    def grid(self, rows=2, cols=3, horizon=8):
        return make_grid(rows, cols, ((0, 0), (0, 2)), horizon=horizon)

    def test_accepts_a_desk_toy(self):
        grid = self.grid()
        inst = TinyInstance("toy", grid,
                            (make_request(grid, "f0", "r0000", "r0002", 0),))
        assert inst.snapshot().remaining("r0001", 0) == 1

    def test_rejects_large_grids(self):
        grid = make_grid(6, 3, ((0, 0), (0, 2)))
        with pytest.raises(ValueError, match="5x5"):
            TinyInstance("big", grid, ())

    def test_rejects_long_horizons(self):
        grid = self.grid(horizon=11)
        with pytest.raises(ValueError, match="horizon"):
            TinyInstance("long", grid, ())

    def test_rejects_crowds(self):
        grid = self.grid()
        reqs = tuple(make_request(grid, f"f{i}", "r0000", "r0002", 0)
                     for i in range(4))
        with pytest.raises(ValueError, match="more than 3"):
            TinyInstance("crowd", grid, reqs)

    def test_rejects_bad_base_occupancy(self):
        grid = self.grid()
        with pytest.raises(ValueError, match="bad base occupancy"):
            TinyInstance("neg", grid, (), base=(("r0001", 0, 0),))
        # r0001 is a capacity-one ring cell: two entries on one step overfill it.
        with pytest.raises(ValueError, match="bad base occupancy.*2 > capacity 1"):
            TinyInstance("over", grid, (),
                         base=(("r0001", 1, 1), ("r0001", 1, 1)))

    def test_base_occupancy_accumulates(self):
        grid = make_grid(2, 3, ((0, 0), (0, 2)), ring_capacity=2)
        inst = TinyInstance("stack", grid, (),
                            base=(("r0001", 1, 1), ("r0001", 1, 1)))
        assert inst.snapshot().remaining("r0001", 1) == 0
