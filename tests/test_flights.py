"""Flight value types: validation, canonicalization, cost arithmetic."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from faircoplan import milp
from faircoplan.airspace import OccupancyLedger
from faircoplan.baseline import solve_tfmp
from faircoplan.flights import (
    ChoiceSet,
    DelayCostParams,
    FlightPlan,
    FlightRequest,
    path_length,
    tdc,
)
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2
from faircoplan.step3 import solve_step3

from helpers import blocked, make_grid, make_request


def req(**overrides) -> FlightRequest:
    base = dict(
        flight_id="f0",
        operator_id="op0",
        origin="r0000",
        destination="r0002",
        requested_departure=0,
        requested_arrival=2,
        flexibility=3,
    )
    base.update(overrides)
    return FlightRequest(**base)


class TestFlightRequest:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError, match="origin equals destination"):
            req(destination="r0000")

    def test_rejects_negative_departure(self):
        with pytest.raises(ValueError, match="negative requested departure"):
            req(requested_departure=-1)

    def test_rejects_arrival_not_after_departure(self):
        with pytest.raises(ValueError, match="arrival must follow"):
            req(requested_arrival=0)

    def test_rejects_negative_flexibility(self):
        with pytest.raises(ValueError, match="negative flexibility"):
            req(flexibility=-1)

    def test_rejects_sub_one_dwell(self):
        with pytest.raises(ValueError, match="dwell < 1"):
            req(dwell=(("r0001", 0),))

    def test_dwell_canonicalized_sorted_last_wins(self):
        r = req(dwell=(("r0003", 2), ("r0001", 5), ("r0001", 2)))
        assert r.dwell == (("r0001", 2), ("r0003", 2))
        assert r.min_dwell("r0001") == 2
        assert r.min_dwell("r0003") == 2
        assert r.min_dwell("r0999") == 1

    def test_shifted_moves_both_times_and_counts_retry(self):
        r = req()
        shifted = r.shifted(3)
        assert shifted.requested_departure == r.requested_departure + 3
        assert shifted.requested_arrival == r.requested_arrival + 3
        assert shifted.resubmissions == r.resubmissions + 1
        assert shifted.flight_id == r.flight_id


class TestChoiceSet:
    def test_slots_are_sorted_and_filtered_by_cell(self):
        cs = ChoiceSet("f0", "r0000", "r0002", frozenset({
            ("r0000", 3), ("r0000", 1), ("r0002", 5), ("r0001", 2),
        }))
        assert cs.departure_slots == (1, 3)
        assert cs.arrival_slots == (5,)
        assert cs.contains("r0001", 2)
        assert not cs.contains("r0001", 3)

    def test_emptied_and_is_empty(self):
        cs = ChoiceSet("f0", "r0000", "r0002", frozenset({("r0000", 1)}))
        assert not cs.is_empty
        stripped = cs.emptied()
        assert stripped.is_empty
        assert stripped.departure_slots == ()


class TestFlightPlan:
    def test_steps_sorted_by_time(self):
        plan = FlightPlan("f0", ((2, "r0002"), (0, "r0000"), (1, "r0001")))
        assert [t for t, _ in plan.steps] == [0, 1, 2]
        assert plan.d_prop == 0
        assert plan.a_prop == 2
        assert plan.origin == "r0000"
        assert plan.destination == "r0002"

    def test_rejects_time_gaps(self):
        with pytest.raises(ValueError):
            FlightPlan("f0", ((0, "r0000"), (2, "r0002")))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FlightPlan("f0", ())

    def test_entries_collapse_holds(self):
        plan = FlightPlan("f0", ((0, "r0000"), (1, "r0001"), (2, "r0001"),
                                 (3, "r0002")))
        assert plan.entries() == ((0, "r0000"), (1, "r0001"), (3, "r0002"))


class TestCosts:
    def test_path_length_counts_entries_not_steps(self):
        held = FlightPlan("f0", ((0, "r0000"), (1, "r0001"), (2, "r0001"),
                                 (3, "r0002")))
        direct = FlightPlan("f0", ((0, "r0000"), (1, "r0001"), (2, "r0002")))
        assert path_length(held) == 3
        assert path_length(direct) == 3

    def test_tdc_weights_departure_and_arrival_delay(self):
        r = req(requested_departure=0, requested_arrival=2)
        plan = FlightPlan("f0", ((1, "r0000"), (2, "r0001"), (3, "r0001"),
                                 (4, "r0002")))
        # departure slips 1, arrival slips 2
        params = DelayCostParams(alpha=0.3)
        assert tdc(plan, r, params) == pytest.approx(0.3 * 2 + 0.7 * 1)

    def test_on_time_plan_costs_zero(self):
        r = req()
        plan = FlightPlan("f0", ((0, "r0000"), (1, "r0001"), (2, "r0002")))
        assert tdc(plan, r, DelayCostParams()) == 0.0

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            DelayCostParams(alpha=1.5)
        with pytest.raises(ValueError):
            DelayCostParams(alpha=-0.1)

    @given(dep=st.integers(0, 5), arr=st.integers(0, 5),
           alpha=st.floats(0.0, 1.0, allow_nan=False))
    def test_tdc_is_linear_in_delays(self, dep, arr, alpha):
        r = req(requested_departure=2, requested_arrival=4)
        steps = [(2 + dep, "r0000")]
        t = 2 + dep
        while t < 4 + arr:
            t += 1
            steps.append((t, "r0001" if t < 4 + arr else "r0002"))
        if arr + 4 <= dep + 2:  # plan must move forward in time
            return
        plan = FlightPlan("f0", tuple(steps))
        got = tdc(plan, r, DelayCostParams(alpha=alpha))
        assert got == pytest.approx(alpha * arr + (1 - alpha) * dep)


PARAMS = DelayCostParams(alpha=0.3)


def pinch_deconfliction():
    """Two proposals that collide in a capacity-one pinch but can be
    deconflicted jointly; f1 was resubmitted, so f0 is the victim."""
    probe = make_grid(2, 4, ((0, 0), (1, 3)))
    grid = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=2,
                     overrides=blocked(probe, 0, 2))
    requests = [make_request(grid, f"f{i}", "r0000", "r0007", 0, flexibility=2,
                             resubmissions=i) for i in range(2)]
    snap = OccupancyLedger(grid).snapshot()
    s1 = solve_step1(grid, snap, requests, 0)
    proposals = {r.flight_id: solve_step2(grid, snap, r, s1.choice_sets[r.flight_id],
                                          PARAMS).plan
                 for r in requests}
    return lambda: solve_step3(grid, snap, requests, s1.choice_sets, proposals,
                               PARAMS)


def corridor_schedule():
    """Two fixed-route flights that fit one corridor together; f1 was
    resubmitted, so f0 is the victim."""
    grid = make_grid(1, 3, ((0, 0), (0, 2)))
    requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0, flexibility=1,
                             resubmissions=i) for i in range(2)]
    return lambda: solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests,
                              PARAMS)


def corridor_choices():
    """The choice-setting solve, the one HiGHS caller outside the drop loop."""
    grid = make_grid(1, 3, ((0, 0), (0, 2)))
    requests = [make_request(grid, "f0", "r0000", "r0002", 0)]
    return lambda: solve_step1(grid, OccupancyLedger(grid).snapshot(), requests, 0)


class TestSolveDropping:
    """The drop-until-feasible loop shared by joint deconfliction and the
    fixed-route schedule, on its error paths; with the choice-setting solve,
    these are every HiGHS caller."""

    @pytest.fixture(params=[("deconfliction", pinch_deconfliction),
                            ("fixed-route-schedule", corridor_schedule),
                            ("choice-setting", corridor_choices)],
                    ids=["deconfliction", "fixed-route-schedule", "choice-setting"])
    def stage(self, request):
        name, build = request.param
        return name, build()

    def test_solver_error_raises_naming_the_model(self, stage, monkeypatch):
        name, run = stage

        def broken(model):
            return milp.SolveResult(status=milp.ERROR, detail="highs status 4: boom")

        monkeypatch.setattr(milp, "solve", broken)
        with pytest.raises(RuntimeError, match=f"^{name} solve failed: highs status 4"):
            run()

    def test_limit_status_raises_like_any_error(self, stage, monkeypatch):
        # No solve has a time limit, so HiGHS status 1 ("a limit was
        # reached") is a solver failure, never a reason to drop a victim.
        name, run = stage

        def hits_a_limit(*args):
            return 1, None, "Time limit reached"

        monkeypatch.setattr(milp, "run_highs", hits_a_limit)
        with pytest.raises(RuntimeError, match=f"^{name} solve failed: highs status 1"):
            run()
