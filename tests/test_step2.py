"""Trajectory step: minimum-delay plans inside a granted choice set."""
from __future__ import annotations

import pytest
from scipy import optimize

from faircoplan import milp
from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.checker import plan_violations
from faircoplan.flights import ChoiceSet, DelayCostParams
from faircoplan.oracle import oracle_step2_optimum
from faircoplan.step1 import solve_step1
from faircoplan.step2 import add_capacity_rows, solve_step2

from helpers import blocked, make_grid, make_request

PARAMS = DelayCostParams(alpha=0.3)


def granted(grid, snapshot, request, now=0):
    return solve_step1(grid, snapshot, [request], now).choice_sets[
        request.flight_id
    ]


@pytest.fixture()
def corridor():
    return make_grid(1, 3, ((0, 0), (0, 2)))


class TestCapacityRows:
    def test_row_only_where_positive_terms_exceed_remaining(self, corridor):
        # Pads hold 2, the ring cell 1.
        snap = OccupancyLedger(corridor).snapshot()
        model = milp.Model()
        a, b, c, d, e, f, g, h = (model.binary(n) for n in "abcdefgh")
        add_capacity_rows(model, snap, {
            ("r0002", 1): {e: 1.0, f: -1.0, g: 1.0, h: -1.0},  # over only with negatives
            ("r0001", 0): {c: 1.0, d: 1.0},  # over
            ("r0000", 0): {a: 1.0, b: 1.0},  # exactly at remaining
        })
        (row,) = model.constraints
        assert row.label == "cap.r0001.0"
        assert row.coeffs == (("c", 1.0), ("d", 1.0))
        assert (row.relation, row.rhs) == ("<=", 1.0)


class TestOnTime:
    def test_uncontested_corridor_flies_as_requested(self, corridor):
        snap = OccupancyLedger(corridor).snapshot()
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        out = solve_step2(corridor, snap, request,
                          granted(corridor, snap, request), PARAMS)
        assert out.tdc == pytest.approx(0.0)
        assert out.plan.steps == ((0, "r0000"), (1, "r0001"), (2, "r0002"))
        assert not out.infeasible

    def test_two_step_dwell_holds_the_sector(self, corridor):
        snap = OccupancyLedger(corridor).snapshot()
        request = make_request(corridor, "f0", "r0000", "r0002", 0,
                               dwell=(("r0001", 2),))
        assert request.requested_arrival == 3
        out = solve_step2(corridor, snap, request,
                          granted(corridor, snap, request), PARAMS)
        assert out.tdc == pytest.approx(0.0)
        assert out.plan.steps == (
            (0, "r0000"), (1, "r0001"), (2, "r0001"), (3, "r0002"))


class TestDelays:
    def test_occupied_ring_slot_delays_departure(self, corridor):
        # Ring slot (r0001, 1) is taken, so leaving at 0 is impossible and
        # pads hold no one: the flight departs one step late end to end.
        snap = OccupancySnapshot(corridor, {("r0001", 1): 1})
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        out = solve_step2(corridor, snap, request,
                          granted(corridor, snap, request), PARAMS)
        assert out.plan.steps == ((1, "r0000"), (2, "r0001"), (3, "r0002"))
        assert out.tdc == pytest.approx(1.0)  # alpha*1 + (1-alpha)*1

    def test_blocked_ring_forces_detour_and_pays_arrival_delay(self):
        grid = make_grid(2, 3, ((0, 0), (0, 2)),
                         overrides=blocked(make_grid(2, 3, ((0, 0), (0, 2))),
                                           0, 1))
        snap = OccupancyLedger(grid).snapshot()
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        assert request.requested_arrival == 2
        out = solve_step2(grid, snap, request,
                          granted(grid, snap, request), PARAMS)
        assert out.plan.a_prop == 4
        assert out.tdc == pytest.approx(0.6)  # alpha * 2 steps late
        assert (2, "r0001") not in out.plan.steps

    @pytest.mark.parametrize("case", ["occupied", "detour", "dwell"])
    def test_matches_plan_enumeration_oracle(self, case, corridor):
        if case == "occupied":
            grid, snap = corridor, OccupancySnapshot(corridor,
                                                     {("r0001", 1): 1})
            request = make_request(grid, "f0", "r0000", "r0002", 0)
        elif case == "detour":
            grid = make_grid(2, 3, ((0, 0), (0, 2)),
                             overrides=blocked(
                                 make_grid(2, 3, ((0, 0), (0, 2))), 0, 1))
            snap = OccupancyLedger(grid).snapshot()
            request = make_request(grid, "f0", "r0000", "r0002", 0)
        else:
            grid, snap = corridor, OccupancyLedger(corridor).snapshot()
            request = make_request(grid, "f0", "r0000", "r0002", 0,
                                   dwell=(("r0001", 3),))
        choices = granted(grid, snap, request)
        out = solve_step2(grid, snap, request, choices, PARAMS)
        want, _ = oracle_step2_optimum(grid, snap, request, choices, PARAMS)
        assert out.tdc == pytest.approx(want)


class TestInfeasible:
    def test_empty_choice_set_is_a_caller_error(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        empty = ChoiceSet("f0", "r0000", "r0002")
        with pytest.raises(ValueError, match="empty choice set"):
            solve_step2(corridor, OccupancyLedger(corridor).snapshot(),
                        request, empty, PARAMS)

    def test_choices_without_the_ring_leave_no_route(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        pads_only = ChoiceSet(
            "f0", "r0000", "r0002",
            frozenset({("r0000", 0), ("r0000", 1), ("r0002", 2),
                       ("r0002", 3)}))
        out = solve_step2(corridor, OccupancyLedger(corridor).snapshot(),
                          request, pads_only, PARAMS)
        assert out.infeasible
        assert out.plan is None and out.tdc is None
        assert out.result is not None

    def test_slots_too_close_for_the_distance_skip_the_solver(self, corridor):
        # Departing at 3 cannot reach the far pad by 4 (two hops away), so
        # the model is never built.
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        cramped = ChoiceSet(
            "f0", "r0000", "r0002",
            frozenset({("r0000", 3), ("r0001", 4), ("r0002", 4)}))
        out = solve_step2(corridor, OccupancyLedger(corridor).snapshot(),
                          request, cramped, PARAMS)
        assert out.infeasible
        assert out.result is None
        assert out.solve_time == 0.0

    def test_limit_status_raises_instead_of_returning_no_plan(self, corridor,
                                                              monkeypatch):
        # No solve has a time limit, so HiGHS status 1 ("a limit was
        # reached") is a solver failure, not an infeasible trajectory.
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        snap = OccupancyLedger(corridor).snapshot()
        choices = granted(corridor, snap, request)

        def hits_a_limit(*args, **kwargs):
            return optimize.OptimizeResult(status=1, x=None,
                                           message="Time limit reached.")

        monkeypatch.setattr(milp.optimize, "milp", hits_a_limit)
        with pytest.raises(RuntimeError, match="^trajectory solve failed: highs status 1"):
            solve_step2(corridor, snap, request, choices, PARAMS)


class TestAudit:
    def test_returned_plan_passes_the_independent_recheck(self, corridor):
        snap = OccupancySnapshot(corridor, {("r0001", 1): 1})
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        choices = granted(corridor, snap, request)
        out = solve_step2(corridor, snap, request, choices, PARAMS)
        assert plan_violations(corridor, snap, request, out.plan, 0,
                               corridor.horizon_steps, choices=choices) == []
