"""Trajectory step: minimum-delay plans inside a granted choice set."""
from __future__ import annotations

from dataclasses import dataclass

import pytest

from faircoplan import milp
from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.blocks import cell_domain, solve_joint
from faircoplan.checker import plan_violations
from faircoplan.flights import ChoiceSet, DelayCostParams
from faircoplan.oracle import oracle_step2_optimum
from faircoplan.selfcheck import random_instance
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2

from helpers import blocked, make_grid, make_request, trajectory_model

PARAMS = DelayCostParams(alpha=0.3)


def granted(grid, snapshot, request, now=0):
    return solve_step1(grid, snapshot, [request], now).choice_sets[
        request.flight_id
    ]


@pytest.fixture()
def corridor():
    return make_grid(1, 3, ((0, 0), (0, 2)))


@dataclass(frozen=True)
class Block:
    """A flight's block for ``solve_joint``: binaries named ``names``, its
    occupancy terms by cell, and a plan that echoes the point it reads."""

    names: tuple[str, ...]
    cells: dict
    windows = ()

    @property
    def fragment(self):
        fragment = milp.Model()
        fragment.binaries(list(self.names))
        return fragment

    def plan(self, x):
        return list(x)


def first_attempt(monkeypatch, blocks, active, snapshot):
    """``solve_joint``'s first model over ``active`` and its outcome, with
    the solve answered by the point 0, 1, 2, ... by column."""
    models = []

    def solve(model):
        models.append(model)
        return milp.SolveResult(status=milp.OPTIMAL, objective=0.0,
                                x=list(range(model.num_vars)))

    monkeypatch.setattr(milp, "solve", solve)
    outcome = solve_joint("joint", blocks, active, {}, snapshot)
    return models[0], outcome


class TestCapacityRows:
    def test_row_only_where_positive_terms_exceed_remaining(self, corridor, monkeypatch):
        # Pads hold 2, the ring cell 1.
        snap = OccupancyLedger(corridor).snapshot()
        blocks = {
            "f0": Block(tuple("acef"), {("r0002", 1): {2: 1.0, 3: -1.0},  # at remaining
                                 ("r0001", 0): {1: 1.0},  # over
                                 ("r0000", 0): {0: 1.0}}),  # exactly at remaining
            "f1": Block(tuple("bdgh"), {("r0000", 0): {0: 1.0}, ("r0001", 0): {1: 1.0},
                                 ("r0002", 1): {2: 1.0, 3: -1.0}}),
        }
        model, outcome = first_attempt(monkeypatch, blocks, ["f1", "f0"], snap)
        assert (model.name, model.relaxation_first) == ("joint", True)
        assert [v.name for v in model.variables] == list("acefbdgh")
        (row,) = model.constraints
        assert row.label == "cap.r0001.0"
        assert row.coeffs == (("c", 1.0), ("d", 1.0))
        assert (row.relation, row.rhs) == ("<=", 1.0)
        # Each block reads its own slice of the point.
        assert outcome.plans == {"f0": [0, 1, 2, 3], "f1": [4, 5, 6, 7]}
        assert (outcome.objective, outcome.dropped, outcome.attempts) == (0.0, (), 1)

    def test_flights_are_counted_not_their_arcs(self, corridor, monkeypatch):
        # One flight reaching the ring cell (room 1) through two arcs uses it
        # once, so it needs no row; a second flight makes one.
        snap = OccupancyLedger(corridor).snapshot()
        blocks = {"a": Block(("a1", "a2"), {("r0001", 1): {0: 1.0, 1: 1.0}}),
                  "b": Block(("b",), {("r0001", 1): {0: 1.0}})}
        model, _ = first_attempt(monkeypatch, blocks, ["a"], snap)
        assert model.num_rows == 0
        model, _ = first_attempt(monkeypatch, blocks, ["a", "b"], snap)
        (row,) = model.constraints
        assert row.label == "cap.r0001.1"
        assert row.coeffs == (("a1", 1.0), ("a2", 1.0), ("b", 1.0))
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
        want, plan = oracle_step2_optimum(grid, snap, request, choices, PARAMS)
        assert out.tdc == pytest.approx(want)
        assert out.plan == plan


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

    def test_slots_too_close_for_the_distance_skip_the_solver(self, corridor,
                                                              monkeypatch):
        # Departing at 3 cannot reach the far pad by 4 (two hops away), so
        # the flight has no cell domain and nothing is searched; no MILP is
        # built either.
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        cramped = ChoiceSet(
            "f0", "r0000", "r0002",
            frozenset({("r0000", 3), ("r0001", 4), ("r0002", 4)}))
        snap = OccupancyLedger(corridor).snapshot()

        def refuse(*args, **kwargs):
            raise AssertionError("step 2 built a MILP")

        monkeypatch.setattr(milp.Model, "__init__", refuse)
        monkeypatch.setattr(milp, "solve", refuse)
        assert cell_domain(corridor, snap, request, cramped, 0) is None
        out = solve_step2(corridor, snap, request, cramped, PARAMS)
        assert out.infeasible


class TestAudit:
    def test_returned_plan_passes_the_independent_recheck(self, corridor):
        snap = OccupancySnapshot(corridor, {("r0001", 1): 1})
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        choices = granted(corridor, snap, request)
        out = solve_step2(corridor, snap, request, choices, PARAMS)
        assert plan_violations(corridor, snap, request, out.plan, 0,
                               choices=choices) == []


def every_free_zone_cell(grid, snap, request, now=0):
    """A choice set offering every zone cell of the period with remaining
    capacity: the richest grant step 1 could make."""
    return ChoiceSet(request.flight_id, request.origin, request.destination,
                     frozenset((rid, t) for rid in grid.zone
                               for t in range(now, now + grid.horizon_steps)
                               if snap.remaining(rid, t) >= 1))


def assert_search_is_exact(grid, snap, request, choices, params, now=0):
    """The search against the trajectory MILP (feasibility and TDC) and the
    enumeration oracle (the plan itself, under the same tie rule)."""
    out = solve_step2(grid, snap, request, choices, params, now)
    flow = trajectory_model(grid, snap, request, choices, params, now)
    result = None if flow is None else milp.solve(flow.fragment)
    if result is None or result.status == milp.INFEASIBLE:
        assert out.plan is None
    else:
        assert result.status == milp.OPTIMAL
        assert out.plan is not None
        assert round(out.tdc, 9) == round(result.objective, 9)
    want_tdc, want_plan = oracle_step2_optimum(grid, snap, request, choices,
                                               params, now)
    assert out.plan == want_plan
    assert out.tdc == want_tdc
    return out


class TestExactSearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_tiny_instances_match_milp_and_oracle(self, seed):
        inst = random_instance(500 + seed)
        grid, snap = inst.grid, inst.snapshot()
        s1 = solve_step1(grid, snap, list(inst.requests), inst.now)
        for request in inst.requests:
            # The step-1 grant, and the richest grant, where ties abound.
            grants = [every_free_zone_cell(grid, snap, request, inst.now)]
            if request.flight_id not in s1.unassigned:
                grants.append(s1.choice_sets[request.flight_id])
            for choices in grants:
                assert_search_is_exact(grid, snap, request, choices,
                                       inst.params, inst.now)

    def test_dwell_applies_to_each_run_of_a_revisited_sector(self):
        # The ring cell r0001 is not offered at t=3, so the flight steps
        # aside into the en-route cell r0004 and comes back; with a dwell
        # of 2 at r0001 both runs there must last two steps.
        grid = make_grid(2, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        offered = frozenset({("r0000", 0), ("r0001", 1), ("r0001", 2),
                             ("r0001", 4), ("r0001", 5), ("r0002", 6)})
        request = make_request(grid, "f0", "r0000", "r0002", 0,
                               dwell=(("r0001", 2),))
        choices = ChoiceSet("f0", "r0000", "r0002", offered)
        out = assert_search_is_exact(grid, snap, request, choices, PARAMS)
        assert out.plan.steps == (
            (0, "r0000"), (1, "r0001"), (2, "r0001"), (3, "r0004"),
            (4, "r0001"), (5, "r0001"), (6, "r0002"))
        # A dwell of 3 fits neither run, though each is long enough for 2.
        longer = make_request(grid, "f0", "r0000", "r0002", 0,
                              dwell=(("r0001", 3),))
        out = assert_search_is_exact(grid, snap, longer, choices, PARAMS)
        assert out.infeasible

    @pytest.mark.parametrize("now", [0, 2])
    def test_arrival_on_the_last_step_of_the_period(self, corridor, now):
        # The ring is taken at now + 5, so the flight leaves at now + 5 and
        # lands on now + 7, the period's last step; with now + 6 taken too
        # the landing would fall outside the period.
        request = make_request(corridor, "f0", "r0000", "r0002", now + 4)
        snap = OccupancySnapshot(corridor, {("r0001", now + 5): 1})
        out = assert_search_is_exact(
            corridor, snap, request,
            every_free_zone_cell(corridor, snap, request, now), PARAMS, now)
        assert out.plan.steps == ((now + 5, "r0000"), (now + 6, "r0001"),
                                  (now + 7, "r0002"))
        assert out.plan.a_prop == now + corridor.horizon_steps - 1
        blocked_too = OccupancySnapshot(corridor, {("r0001", now + 5): 1,
                                                   ("r0001", now + 6): 1})
        out = assert_search_is_exact(
            corridor, blocked_too, request,
            every_free_zone_cell(corridor, blocked_too, request, now), PARAMS, now)
        assert out.infeasible

    def test_plan_length_is_not_bounded_by_the_recursion_limit(self):
        # A ring dwell of 1092 makes the on-time plan 1,094 steps long, more
        # than Python's default recursion limit of 1,000 frames.
        grid = make_grid(1, 3, ((0, 0), (0, 2)), horizon=1100)
        snap = OccupancyLedger(grid).snapshot()
        request = make_request(grid, "f0", "r0000", "r0002", 0,
                               dwell=(("r0001", 1092),))
        choices = every_free_zone_cell(grid, snap, request)
        out = solve_step2(grid, snap, request, choices, PARAMS)
        assert len(out.plan.steps) == 1094
        assert plan_violations(grid, snap, request, out.plan, 0, choices=choices) == []

    def test_long_plan_from_the_arc_fragment_solved_lp_first(self):
        # The 1,094-step plan above, from its arc fragment: the backward
        # prune and the plan walk do not recurse either, and the LP's
        # integral optimum walks to step 2's plan.
        grid = make_grid(1, 3, ((0, 0), (0, 2)), horizon=1100)
        snap = OccupancyLedger(grid).snapshot()
        request = make_request(grid, "f0", "r0000", "r0002", 0,
                               dwell=(("r0001", 1092),))
        choices = every_free_zone_cell(grid, snap, request)
        out = solve_step2(grid, snap, request, choices, PARAMS)
        flow = trajectory_model(grid, snap, request, choices, PARAMS)
        flow.fragment.relaxation_first = True
        result = milp.solve(flow.fragment)
        assert result.status == milp.OPTIMAL
        assert "LP relaxation" in result.detail
        assert result.objective == out.tdc
        assert flow.plan(result.x) == out.plan

    def test_ties_go_to_the_smallest_steps(self):
        # Two equally short routes around the square; r0001 sorts first.
        grid = make_grid(2, 2, ((0, 0), (1, 1)))
        snap = OccupancyLedger(grid).snapshot()
        request = make_request(grid, "f0", "r0000", "r0003", 0)
        out = assert_search_is_exact(
            grid, snap, request, every_free_zone_cell(grid, snap, request), PARAMS)
        assert out.plan.steps == ((0, "r0000"), (1, "r0001"), (2, "r0003"))
