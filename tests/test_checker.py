"""``checker.choice_violations``: each choice-setting rule, with its exact
messages in their order."""
from __future__ import annotations

import pytest

from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.checker import choice_violations
from faircoplan.flights import ChoiceSet
from faircoplan.step1 import solve_step1

from helpers import make_grid, make_request

# A 1 x 5 corridor: vertiports r0000 and r0004, ring sectors r0001 and r0003
# (capacity 1), and the en-route sector r0002 between them.
NOW, END = 0, 10


@pytest.fixture()
def grid():
    return make_grid(1, 5, ((0, 0), (0, 4)), horizon=END)


@pytest.fixture()
def empty(grid):
    return OccupancyLedger(grid).snapshot()


def request(grid, fid="f0", **kwargs):
    # Departure window [1, 4], arrival window [5, 8], choices within [1, 8).
    return make_request(grid, fid, "r0000", "r0004", 1, **kwargs)


# A valid allocation: depart at 1, arrive at 5, one ring step at each end.
VALID = {("r0000", 1), ("r0001", 2), ("r0003", 4), ("r0004", 5)}


def check(grid, snapshot, requests, choices):
    allocation = {r.flight_id: ChoiceSet(r.flight_id, r.origin, r.destination,
                                         frozenset(choices[r.flight_id]))
                  for r in requests if r.flight_id in choices}
    return choice_violations(grid, snapshot, requests, allocation, NOW)


def test_valid_allocation_has_no_violation(grid, empty):
    f0 = request(grid)
    assert (f0.requested_arrival, f0.flexibility) == (5, 3)
    assert check(grid, empty, [f0], {"f0": VALID}) == []


def test_step1_grants_pass(grid, empty):
    requests = [request(grid), request(grid, "f1", dwell=(("r0001", 2),))]
    s1 = solve_step1(grid, empty, requests, NOW)
    assert s1.unassigned == ()
    assert choice_violations(grid, empty, requests, s1.choice_sets, NOW) == []


def test_non_zone_choice(grid, empty):
    assert check(grid, empty, [request(grid)], {"f0": VALID | {("r0002", 3)}}) == [
        "f0: choice at non-zone resource r0002",
    ]


def test_choice_outside_the_period(grid, empty):
    # Outside the period is outside the request's window too.
    assert check(grid, empty, [request(grid)], {"f0": VALID | {("r0001", END)}}) == [
        "f0: choice (r0001, t=10) outside the period window",
        "f0: choice (r0001, t=10) outside [1, 8)",
    ]


def test_choice_outside_the_window(grid, empty):
    assert check(grid, empty, [request(grid)],
                 {"f0": VALID | {("r0001", 0), ("r0003", 8), ("r0003", 9)}}) == [
        "f0: choice (r0001, t=0) outside [1, 8)",
        "f0: choice (r0003, t=8) outside [1, 8)",
        "f0: choice (r0003, t=9) outside [1, 8)",
    ]


def test_non_zone_choice_outside_both_windows(grid, empty):
    # The three per-choice rules report in rule order for each choice.
    assert check(grid, empty, [request(grid)], {"f0": VALID | {("r0002", -1)}}) == [
        "f0: choice at non-zone resource r0002",
        "f0: choice (r0002, t=-1) outside the period window",
        "f0: choice (r0002, t=-1) outside [1, 8)",
    ]


def test_slots_outside_their_windows(grid, empty):
    # A departure slot at 5 (window [1, 4]) and an arrival slot at 4
    # (window [5, 8]), each supported by an adjacent ring choice.
    choices = VALID | {("r0000", 5), ("r0001", 6), ("r0004", 4), ("r0003", 3)}
    assert check(grid, empty, [request(grid)], {"f0": choices}) == [
        "f0: departure slot t=5 outside [1, 4]",
        "f0: arrival slot t=4 outside [5, 8]",
    ]


def test_slots_without_adjacent_support(grid, empty):
    choices = VALID | {("r0000", 3), ("r0004", 7)}
    assert check(grid, empty, [request(grid)], {"f0": choices}) == [
        "f0: departure slot t=3 has no adjacent choice at t+1",
        "f0: arrival slot t=7 has no adjacent choice at t-1",
    ]


def test_ring_runs_that_break_off_below_their_dwell(grid, empty):
    # Dwell 3 at r0001. The run {1} breaks off at 2 with 1 step in its
    # window [-1, 1]; the run {3} at 4 with 2 in [1, 3], counting the
    # earlier run; the run {5, 6, 7} is long enough; the run {9} reaches the
    # period end, where no run is checked. At r0003 (dwell 1) no run is short.
    f0 = request(grid, dwell=(("r0001", 3),))
    assert f0.requested_arrival == 7
    choices = {("r0000", 2), ("r0001", 1), ("r0001", 3), ("r0001", 5), ("r0001", 6),
               ("r0001", 7), ("r0001", 9), ("r0003", 8), ("r0004", 9)}
    assert check(grid, empty, [f0], {"f0": choices}) == [
        "f0: choice run at r0001 breaks off at t=2 with only 1 of 3 dwell steps offered",
        "f0: choice run at r0001 breaks off at t=4 with only 2 of 3 dwell steps offered",
    ]


def test_joint_use_over_remaining_capacity(grid):
    # f0 and f1 share r0001 at 2 (capacity 1); the ledger already holds one
    # flight on r0003 at 4, so f0's choice there is over its remaining 0.
    occupied = OccupancySnapshot(grid, {("r0003", 4): 1})
    f0, f1 = request(grid), request(grid, "f1")
    other = {("r0000", 1), ("r0001", 2), ("r0003", 5), ("r0004", 6)}
    assert check(grid, occupied, [f0, f1], {"f0": VALID, "f1": other}) == [
        "choices over capacity at (r0001, t=2): 2 > 1",
        "choices over capacity at (r0003, t=4): 1 > 0",
    ]


def test_duplicate_ids(grid, empty):
    # Each copy is checked, and joint use counts the allocation once per copy.
    f0 = request(grid)
    assert check(grid, empty, [f0, f0], {"f0": VALID | {("r0002", 3)}}) == [
        "duplicate flight ids in request batch",
        "f0: choice at non-zone resource r0002",
        "f0: choice at non-zone resource r0002",
        "choices over capacity at (r0001, t=2): 2 > 1",
        "choices over capacity at (r0002, t=3): 2 > 1",
        "choices over capacity at (r0003, t=4): 2 > 1",
    ]


def test_missing_choice_set_stops_the_check(grid, empty):
    f0, f1 = request(grid), request(grid, "f1")
    assert check(grid, empty, [f0, f1, f0], {"f0": VALID | {("r0002", 3)}}) == [
        "duplicate flight ids in request batch",
        "no choice set returned for ['f1']",
    ]


def test_messages_come_flight_by_flight_then_rule_by_rule(grid, empty):
    # Per flight: the choices in sorted order, slot windows, slot support,
    # ring dwell; then joint capacity for the whole batch.
    f0 = request(grid, dwell=(("r0003", 2),))
    f1 = request(grid, "f1")
    assert f0.requested_arrival == 6
    bad0 = {("r0000", 1), ("r0000", 6), ("r0001", 2), ("r0002", 4), ("r0003", 5),
            ("r0004", 5), ("r0004", 6)}
    assert check(grid, empty, [f1, f0], {"f0": bad0, "f1": VALID | {("r0001", 8)}}) == [
        "f1: choice (r0001, t=8) outside [1, 8)",
        "f0: choice at non-zone resource r0002",
        "f0: departure slot t=6 outside [1, 4]",
        "f0: arrival slot t=5 outside [6, 9]",
        "f0: departure slot t=6 has no adjacent choice at t+1",
        "f0: arrival slot t=5 has no adjacent choice at t-1",
        "f0: choice run at r0003 breaks off at t=6 with only 1 of 2 dwell steps offered",
        "choices over capacity at (r0001, t=2): 2 > 1",
    ]
