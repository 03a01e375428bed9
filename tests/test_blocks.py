"""Time-expanded model blocks: every row states its rule with coefficients
no larger than the instance's longest minimum dwell, so no horizon-sized
Big-M reaches HiGHS."""
from __future__ import annotations

from faircoplan import milp
from faircoplan.airspace import OccupancyLedger
from faircoplan.flights import DelayCostParams
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2
from faircoplan.step3 import solve_step3

from helpers import blocked, make_grid, make_request


def test_no_row_coefficient_exceeds_the_longest_dwell(monkeypatch):
    # Both flights cross the pinch cell r0005 at t=4 after ring runs of 3
    # and 2 steps at r0001, so step 3 re-plans them jointly.
    probe = make_grid(2, 4, ((0, 0), (1, 3)))
    grid = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=2,
                     overrides=blocked(probe, 0, 2))
    snap = OccupancyLedger(grid).snapshot()
    requests = [
        make_request(grid, "f0", "r0000", "r0007", 0, flexibility=2,
                     dwell=(("r0001", 3),)),
        make_request(grid, "f1", "r0000", "r0007", 1, flexibility=2,
                     dwell=(("r0001", 2),)),
    ]
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

    assert [m.name for m in models] == ["choice-setting", "deconfliction"]
    for model in models:
        dwell_rows = [con for con in model.constraints if con.label.startswith("dw")]
        assert {abs(c) for con in dwell_rows for _, c in con.coeffs} >= {2.0, 3.0}
        largest = max(abs(c) for con in model.constraints for _, c in con.coeffs)
        assert largest <= longest, model.name
