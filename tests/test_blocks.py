"""Time-expanded model blocks: every row states its rule with coefficients
no larger than the instance's longest minimum dwell, so no horizon-sized
Big-M reaches HiGHS; the cell domain, the state graph and its arc fragment."""
from __future__ import annotations

from itertools import product

import pytest

from faircoplan import milp
from faircoplan.airspace import OccupancyLedger
from faircoplan.blocks import arc_fragment, cell_domain, state_graph
from faircoplan.flights import ChoiceSet, DelayCostParams, FlightPlan
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2
from faircoplan.step3 import solve_step3

from helpers import make_grid, make_request, solve_every_step1_model
from test_step1 import mixed_dwell_batch


def test_no_row_coefficient_exceeds_the_longest_dwell(monkeypatch):
    # Both flights cross the pinch cell r0005 at t=4 after ring runs of 3
    # and 2 steps at r0001, so step 3 re-plans them jointly. No zone cell
    # is crowded, so step 1 would grant the whole offer with no model.
    solve_every_step1_model(monkeypatch)
    grid, snap, requests = mixed_dwell_batch(third=False)
    longest = max(steps for r in requests for _, steps in r.dwell)

    models = []
    solve = milp.solve

    def spy(model):
        models.append(model)
        return solve(model)

    monkeypatch.setattr(milp, "solve", spy)
    params = DelayCostParams(alpha=0.3)
    s1 = solve_step1(grid, snap, requests, 0)
    proposals = {r.flight_id: solve_step2(grid, snap, r,
                                          s1.choice_sets[r.flight_id], params).plan
                 for r in requests}
    result = solve_step3(grid, snap, requests, s1.choice_sets, proposals, params)
    assert result.replanned == ("f0", "f1")

    # Step 1 states dwell in rows over its ring choices; the deconfliction
    # flows state it in their states, with no dwell row and no coefficient
    # above 1.
    choice, deconfliction = models
    assert (choice.name, deconfliction.name) == ("choice-setting", "deconfliction")
    dwell_rows = [con for con in choice.constraints if con.label.startswith("dw")]
    assert {abs(c) for con in dwell_rows for _, c in con.coeffs} >= {2.0, 3.0}
    assert max(abs(c) for con in choice.constraints for _, c in con.coeffs) <= longest
    assert not [con for con in deconfliction.constraints if con.label.startswith("dw")]
    assert max(abs(c) for con in deconfliction.constraints for _, c in con.coeffs) <= 1.0


def reference_cell_domain_times(grid, snapshot, request, choices, now, horizon_end,
                                first_dep, last_arr):
    """The cone's cells past the end slots, resource by resource in grid
    order, each en-route cell read through ``remaining`` alone."""
    dist_s = grid.hop_distances(request.origin)
    dist_e = grid.hop_distances(request.destination)
    times = {}
    for res in grid.resources:
        rid = res.resource_id
        if rid in (request.origin, request.destination):
            continue
        lo = max(now, first_dep + dist_s[rid])
        hi = min(horizon_end - 1, last_arr - dist_e[rid])
        if grid.is_zone(rid):
            cells = [t for t in choices.times.get(rid, ()) if lo <= t <= hi]
        else:
            cells = [t for t in range(lo, hi + 1) if snapshot.remaining(rid, t) >= 1]
        if cells:
            times[rid] = tuple(cells)
    return times


@pytest.mark.parametrize("now", [0, 2])
def test_cell_domain_equals_a_cell_by_cell_reference(now):
    # En-route cells r0005, r0006, r0009 and r0010 carry overrides that
    # close and widen them, and two plans overfill r0006 at t=4 (capacity
    # 1), which must read as full, not as negative room.
    overrides = (("r0005", 4, 0), ("r0006", 3, 2), ("r0009", 5, 0), ("r0010", 6, 0),
                 ("r0010", 30, 0))
    grid = make_grid(4, 4, ((0, 0), (3, 3)), horizon=10, overrides=overrides)
    snap = OccupancyLedger(grid).snapshot().with_plans([
        FlightPlan("a", ((4, "r0006"),)), FlightPlan("b", ((4, "r0006"),)),
        FlightPlan("c", ((5, "r0010"),)),
    ])
    horizon_end = now + grid.horizon_steps
    compared = 0
    offered = frozenset((rid, t) for rid in grid.zone
                        for t in range(now, horizon_end) if (t + int(rid[1:])) % 5)
    # One departure and one arrival slot, at the shortest trip's ends,
    # leave cones one step wide on the shortest routes.
    for origin, destination in (("r0000", "r0015"), ("r0015", "r0000")):
        for depart, exact in product(range(now, now + 3), (False, True)):
            request = make_request(grid, "f0", origin, destination, depart,
                                   flexibility=0 if exact else 3)
            granted = offered
            if exact:
                granted = {(rid, t) for rid, t in offered if rid != destination} | {
                    (origin, depart), (destination, request.requested_arrival)}
            choices = ChoiceSet("f0", origin, destination, granted)
            domain = cell_domain(grid, snap, request, choices, now)
            if domain is None:
                continue
            departures, arrivals = domain[origin], domain[destination]
            want = {origin: departures, destination: arrivals,
                    **reference_cell_domain_times(
                        grid, snap, request, choices, now, horizon_end,
                        departures[0], arrivals[-1])}
            assert list(domain.items()) == list(want.items())
            assert all(type(t) is int for cells in domain.values() for t in cells)
            compared += len(domain)
    assert compared > 40


def test_state_graph_arcs_on_a_corridor():
    # A ring dwell of 2 at r0001. The run that starts there at t=2 cannot
    # leave at t=3; no state goes back to the origin r0000, the arrivals at
    # r0002 have no successors though r0002 is usable at t=4, and the ring
    # cell's successors come in id order, staying before moving on.
    grid = make_grid(1, 3, ((0, 0), (0, 2)))
    request = make_request(grid, "f0", "r0000", "r0002", 0, dwell=(("r0001", 2),))
    domain = {"r0000": (0, 1), "r0001": (1, 2, 3), "r0002": (3, 4)}
    graph = state_graph(grid, request, domain)
    assert graph == {
        ("r0000", 0, 1): [("r0001", 1, 1)],
        ("r0001", 1, 1): [("r0001", 2, 2)],
        ("r0000", 1, 1): [("r0001", 2, 1)],
        ("r0001", 2, 2): [("r0001", 3, 2), ("r0002", 3, 1)],
        ("r0001", 2, 1): [("r0001", 3, 2)],
        ("r0001", 3, 2): [("r0002", 4, 1)],
        ("r0002", 3, 1): [],
        ("r0002", 4, 1): [],
    }
    steps = [t for _, t, _ in graph]
    assert steps == sorted(steps)


def test_arc_fragment_on_a_corridor():
    # The corridor above, with the ring cell usable at t=4 too: the state
    # (r0001, 4, 2) reaches no arrival, so the prune drops it and its arc.
    # Two arcs enter the ring cell at t=3, from runs of 1 and 2.
    grid = make_grid(1, 3, ((0, 0), (0, 2)))
    request = make_request(grid, "f0", "r0000", "r0002", 0, dwell=(("r0001", 2),))
    domain = {"r0000": (0, 1), "r0001": (1, 2, 3, 4), "r0002": (3, 4)}
    assert ("r0001", 4, 2) in state_graph(grid, request, domain)
    flow = arc_fragment(grid, request, domain, DelayCostParams(alpha=0.3), prefix="u")
    assert flow.arcs == [
        (None, ("r0000", 0, 1)),
        (None, ("r0000", 1, 1)),
        (("r0000", 0, 1), ("r0001", 1, 1)),
        (("r0001", 1, 1), ("r0001", 2, 2)),
        (("r0000", 1, 1), ("r0001", 2, 1)),
        (("r0001", 2, 2), ("r0001", 3, 2)),
        (("r0001", 2, 2), ("r0002", 3, 1)),
        (("r0001", 2, 1), ("r0001", 3, 2)),
        (("r0001", 3, 2), ("r0002", 4, 1)),
    ]
    assert flow.cells[("r0001", 3)] == {5: 1.0, 7: 1.0}
    assert ("r0001", 4) not in flow.cells
    model = flow.fragment
    rows = [(c.label, dict(c.coeffs), c.relation, c.rhs) for c in model.constraints]
    names = [v.name for v in model.variables]
    assert rows[0] == ("src.f0", {names[0]: 1.0, names[1]: 1.0}, "=", 1.0)
    assert [label for label, *_ in rows[1:]] == [
        "flow.f0.r0000.0.1", "flow.f0.r0001.1.1", "flow.f0.r0000.1.1",
        "flow.f0.r0001.2.2", "flow.f0.r0001.2.1", "flow.f0.r0001.3.2"]
    assert rows[6] == ("flow.f0.r0001.3.2", {names[5]: 1.0, names[7]: 1.0, names[8]: -1.0},
                       "=", 0.0)
    assert all(v.binary for v in model.variables)
    # (1 - alpha) t on the source arcs, alpha t on the arcs into arrivals.
    assert list(milp._arrays(model)[0]) == pytest.approx(
        [0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 1.2])
    assert model.objective_offset == pytest.approx(-0.9)
    result = milp.solve(model)
    assert result.objective == pytest.approx(0.0)
    assert flow.plan(result.x) == FlightPlan(
        "f0", ((0, "r0000"), (1, "r0001"), (2, "r0001"), (3, "r0002")))
