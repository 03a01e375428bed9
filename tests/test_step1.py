"""Choice-setting step: windows, service-first objective, joint capacity."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from faircoplan import milp, sim, step1
from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.oracle import oracle_step1_optimum
from faircoplan.serialize import load_scenario
from faircoplan.step1 import choice_domains, recheck, room_table, solve_step1

from helpers import (
    assert_same_model, blocked, make_grid, make_request, record_solves, solve_every_step1_model,
)
from test_milp import input_digest

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"


@pytest.fixture()
def corridor():
    return make_grid(1, 3, ((0, 0), (0, 2)))


@pytest.fixture()
def empty(corridor):
    return OccupancyLedger(corridor).snapshot()


class TestWindows:
    def test_departure_window_has_flexibility_plus_one_slots(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        dom = choice_domains(corridor, request, 0)
        assert list(dom["r0000"]) == [0, 1, 2, 3]

    def test_arrival_window_has_flexibility_slots(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        dom = choice_domains(corridor, request, 0)
        assert list(dom["r0002"]) == [2, 3, 4]

    def test_intermediate_window_spans_departure_to_arrival_edge(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        dom = choice_domains(corridor, request, 0)
        assert list(dom["r0001"]) == [0, 1, 2, 3, 4]

    def test_now_truncates_windows(self, corridor):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        dom = choice_domains(corridor, request, 2)
        assert dom["r0000"].start == 2
        assert dom["r0002"].start == 3


class TestSingleFlight:
    def test_grants_every_window_cell(self, corridor, empty):
        # Service weight 13 (12 window cells + 1) plus all 12 grants.
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        s1 = solve_step1(corridor, empty, [request], 0)
        assert s1.objective == pytest.approx(25.0)
        cs = s1.choice_sets["f0"]
        assert len(cs.choices) == 12
        assert cs.departure_slots == (0, 1, 2, 3)
        assert cs.arrival_slots == (2, 3, 4)
        assert s1.unassigned == ()
        assert s1.deferred == ()

    def test_matches_enumeration_oracle(self, corridor, empty):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        s1 = solve_step1(corridor, empty, [request], 0)
        want, _ = oracle_step1_optimum(corridor, empty, [request], 0)
        assert s1.objective == pytest.approx(want)

    def test_departure_slots_are_supported(self, corridor, empty):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        cs = solve_step1(corridor, empty, [request], 0).choice_sets["f0"]
        for t in cs.departure_slots:
            assert any(cs.contains(nb, t + 1)
                       for nb in corridor.adjacency["r0000"])
        for t in cs.arrival_slots:
            assert any(cs.contains(nb, t - 1)
                       for nb in corridor.adjacency["r0002"])


class TestObjective:
    # The model minimizes the negated gains, and step 1 reports the gains:
    # 0.0 less the minimum, so a zero optimum reads +0.0.
    def test_objective_is_the_negated_minimum(self, corridor, empty, monkeypatch):
        solve_every_step1_model(monkeypatch)
        solved = record_solves(monkeypatch, "choice-setting")
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        s1 = solve_step1(corridor, empty, [request], 0)
        [(model, result)] = solved
        # 12 choice columns at cost -1, then y.f0 at -13, the service weight.
        assert milp._arrays(model)[0].tolist() == [-1.0] * 12 + [-13.0]
        assert result.objective == -25.0
        assert s1.objective == 0.0 - result.objective == 25.0

    def test_zero_optimum_reads_positive_zero(self, corridor, monkeypatch):
        # Only origin pad cells have room, and no departure slot is supported.
        solved = record_solves(monkeypatch, "choice-setting")
        full = OccupancySnapshot(corridor, {(rid, t): 2 for rid in ("r0001", "r0002")
                                            for t in range(8)})
        s1 = solve_step1(corridor, full, [make_request(corridor, "f0", "r0000", "r0002", 0)], 0)
        [(model, result)] = solved
        assert model.num_vars > 0 and result.objective == 0.0
        assert s1.unassigned == ("f0",)
        assert repr(s1.objective) == "0.0"


class TestContention:
    def test_pair_shares_the_ring_and_matches_oracle(self, corridor, empty):
        requests = [
            make_request(corridor, "f0", "r0000", "r0002", 0),
            make_request(corridor, "f1", "r0000", "r0002", 0),
        ]
        s1 = solve_step1(corridor, empty, requests, 0)
        want, _ = oracle_step1_optimum(corridor, empty, requests, 0)
        assert s1.objective == pytest.approx(want)
        assert s1.objective == pytest.approx(62.0)
        assert s1.unassigned == ()
        # ring capacity 1: no timestep may be granted to both flights
        granted0 = {t for rid, t in s1.choice_sets["f0"].choices
                    if rid == "r0001"}
        granted1 = {t for rid, t in s1.choice_sets["f1"].choices
                    if rid == "r0001"}
        assert granted0.isdisjoint(granted1)

    def test_three_staggered_flights_match_oracle(self, empty):
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=2,
                         ring_capacity=1)
        snap = OccupancyLedger(grid).snapshot()
        requests = [
            make_request(grid, "f0", "r0000", "r0002", 0, flexibility=1),
            make_request(grid, "f1", "r0000", "r0002", 2, flexibility=1),
            make_request(grid, "f2", "r0002", "r0000", 1, flexibility=1),
        ]
        s1 = solve_step1(grid, snap, requests, 0)
        want, _ = oracle_step1_optimum(grid, snap, requests, 0)
        assert s1.objective == pytest.approx(want)

    @pytest.mark.parametrize("closed, ring", [
        (1, (2, 3, 4)),  # the run after the closure is exactly 3 long
        (3, ()),         # the one arrival slot, 4, needs the closed step
        (4, (0, 1, 2, 3)),
    ])
    def test_ring_dwell_of_three_matches_oracle(self, closed, ring):
        # One ring step closed; a dwell of 3 decides which runs may be granted.
        grid = make_grid(1, 3, ((0, 0), (0, 2)), overrides=(("r0001", closed, 0),))
        snap = OccupancyLedger(grid).snapshot()
        request = make_request(grid, "f0", "r0000", "r0002", 0, flexibility=1,
                               dwell=(("r0001", 3),))
        s1 = solve_step1(grid, snap, [request], 0)
        want, _ = oracle_step1_optimum(grid, snap, [request], 0)
        assert s1.objective == pytest.approx(want)
        granted = sorted(t for rid, t in s1.choice_sets["f0"].choices if rid == "r0001")
        assert tuple(granted) == ring

    def test_wider_ring_never_scores_worse(self, corridor, empty):
        requests = [
            make_request(corridor, "f0", "r0000", "r0002", 0),
            make_request(corridor, "f1", "r0000", "r0002", 0),
        ]
        narrow = solve_step1(corridor, empty, requests, 0).objective
        wide_grid = make_grid(1, 3, ((0, 0), (0, 2)), ring_capacity=2)
        wide_snap = OccupancyLedger(wide_grid).snapshot()
        wide = solve_step1(wide_grid, wide_snap, requests, 0).objective
        assert wide >= narrow


class TestUnassignedAndDeferred:
    def test_full_origin_pad_starves_the_flight(self, corridor, monkeypatch):
        solved = record_solves(monkeypatch, "choice-setting")
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        full = OccupancySnapshot(corridor, {("r0000", t): 2 for t in range(8)})
        s1 = solve_step1(corridor, full, [request], 0)
        assert s1.unassigned == ("f0",)
        assert s1.deferred == ()  # capacity starvation, not a window problem
        assert s1.choice_sets["f0"].is_empty
        # Its whole offer is granted with no model: its cells count, but no
        # service weight, before they are stripped.
        want, _ = oracle_step1_optimum(corridor, full, [request], 0)
        assert not solved and s1.objective == want == 8.0

    def test_window_past_horizon_defers(self, corridor, empty):
        late = make_request(corridor, "f0", "r0000", "r0002", 5)
        assert late.requested_arrival + late.flexibility > 8
        s1 = solve_step1(corridor, empty, [late], 0)
        assert s1.deferred == ("f0",)
        assert s1.unassigned == ("f0",)
        assert s1.choice_sets["f0"].is_empty

    def test_unassigned_flight_never_blocks_the_batch(self, corridor, empty):
        late = make_request(corridor, "f0", "r0000", "r0002", 5)
        ok = make_request(corridor, "f1", "r0000", "r0002", 0)
        s1 = solve_step1(corridor, empty, [late, ok], 0)
        assert s1.deferred == ("f0",)
        assert set(s1.deferred) <= set(s1.unassigned)
        assert not s1.choice_sets["f1"].is_empty


class TestValidation:
    def test_duplicate_ids_rejected(self, corridor, empty):
        request = make_request(corridor, "f0", "r0000", "r0002", 0)
        with pytest.raises(ValueError, match="duplicate"):
            solve_step1(corridor, empty, [request, request], 0)

    def test_sector_endpoint_rejected(self, corridor, empty):
        from faircoplan.flights import FlightRequest
        bad = FlightRequest(flight_id="f0", operator_id="op0",
                            origin="r0001", destination="r0002",
                            requested_departure=0, requested_arrival=2,
                            flexibility=3)
        with pytest.raises(ValueError, match="not a vertiport"):
            solve_step1(corridor, empty, [bad], 0)


@pytest.fixture(scope="module")
def desk_step1_inputs() -> list[tuple]:
    """``(grid, snapshot, requests, now)`` of every ``solve_step1`` call of
    desk day 0's fair-coplan lane that builds a choice-setting model once
    its whole-offer shortcut is patched out (``step1_model``)."""
    calls = []
    real_solve_step1 = sim.solve_step1

    def spy(grid, snapshot, requests, now):
        calls.append((grid, snapshot, requests, now))
        return real_solve_step1(grid, snapshot, requests, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "solve_step1", spy)
        config = load_scenario(DESK)
        sim.run_day(sim.scenario_grid(config), config, 0, "fair-coplan")
    return [call for call in calls if step1_model(*call)[0] is not None]


def step1_model(grid, snapshot, requests, now):
    """The choice-setting model ``solve_step1`` builds with its whole-offer
    shortcut patched out (None if it builds none), and the table it
    returns."""
    result, models = step1_solves(grid, snapshot, requests, now, shortcut=False)
    return (models[0] if models else None), result.room


def step1_solves(grid, snapshot, requests, now, shortcut=True):
    """``solve_step1``'s result and the models it solves, captured with
    ``record_solves``, with or without its whole-offer shortcut."""
    with pytest.MonkeyPatch.context() as patch:
        if not shortcut:
            solve_every_step1_model(patch)
        solved = record_solves(patch, "choice-setting")
        result = solve_step1(grid, snapshot, requests, now)
    return result, [model for model, _ in solved]


def hands_highs(model) -> list[np.ndarray]:
    c, lb, ub, integrality, matrix, row_lb, row_ub = milp._arrays(model)
    return [c, lb, ub, integrality, *matrix, row_lb, row_ub]


class TestRoomTable:
    # Step 1 reads the snapshot only through its room table, remaining
    # capacity capped at the number of flights whose window covers the
    # cell; so a campaign can share step 1 between snapshots whose tables
    # are equal.
    def test_model_reads_the_snapshot_only_through_the_table(self, desk_step1_inputs):
        raised = lowered = 0
        for grid, snapshot, requests, now in desk_step1_inputs:
            model, room = step1_model(grid, snapshot, requests, now)
            zone = sorted(grid.zone)
            remaining = snapshot.remaining_table(now)[[grid.row(rid) for rid in zone]]
            assert np.array_equal(room, room_table(grid, snapshot, requests, now))
            # One more place where the table already shows every flight that
            # could use the cell: the table and the model stay as they were.
            for z, j in zip(*np.nonzero(remaining > room)):
                cell = (zone[z], now + int(j))
                if snapshot.counts.get(cell, 0):
                    counts = dict(snapshot.counts)
                    counts[cell] -= 1
                    roomier = OccupancySnapshot(grid, counts)
                    same, same_room = step1_model(grid, roomier, requests, now)
                    assert np.array_equal(same_room, room)
                    assert_same_model(same, model)
                    raised += 1
                    break
            # One place fewer than the table shows: both change.
            z, j = (int(k[0]) for k in np.nonzero(room >= 1))
            cell = (zone[z], now + j)
            counts = dict(snapshot.counts)
            counts[cell] = counts.get(cell, 0) + int(remaining[z, j] - room[z, j]) + 1
            other, other_room = step1_model(grid, OccupancySnapshot(grid, counts), requests, now)
            assert other_room[z, j] == room[z, j] - 1
            assert not all(a.shape == b.shape and np.array_equal(a, b)
                           for a, b in zip(hands_highs(other), hands_highs(model)))
            lowered += 1
        assert raised >= 5 and lowered >= 20


def mixed_dwell_batch(third: bool):
    """Two flights r0000 -> r0007 with ring runs of 3 and 2 steps at r0001,
    past the closed cell r0002; with ``third``, a flight with no dwell the
    other way too. ``(grid, snapshot, requests)``."""
    probe = make_grid(2, 4, ((0, 0), (1, 3)))
    grid = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=2,
                     overrides=blocked(probe, 0, 2))
    requests = [
        make_request(grid, "f0", "r0000", "r0007", 0, flexibility=2, dwell=(("r0001", 3),)),
        make_request(grid, "f1", "r0000", "r0007", 1, flexibility=2, dwell=(("r0001", 2),)),
    ]
    if third:
        requests.append(make_request(grid, "f2", "r0007", "r0000", 0, flexibility=2))
    return grid, OccupancyLedger(grid).snapshot(), requests


def assert_row_order(model, fids):
    """Capacity rows first; then each flight's departure, arrival and dwell
    rows in turn, flight by flight in batch order; the service rows last.
    Every dwell column lies after the choice columns and before the service
    columns."""
    labels = [con.label.split(".") for con in model.constraints]
    stage = [0 if kind == "cap" else 2 if kind.startswith("serve") else 1 for kind, *_ in labels]
    assert stage == sorted(stage)
    flight_rows = [(kind, fid) for (kind, fid, *_), s in zip(labels, stage) if s == 1]
    assert {kind for kind, _ in flight_rows} <= {"dep", "arr", "dwlo", "dwhi", "dwrun"}
    order = [(fids.index(fid), {"dep": 0, "arr": 1}.get(kind, 2)) for kind, fid in flight_rows]
    assert order == sorted(order)
    names = [var.name.split(".")[0] for var in model.variables]
    assert names == sorted(names, key=["c", "dw", "y"].index)


class TestModelLayout:
    # Step 1's HiGHS input is pinned: rows and columns in a fixed order.
    @pytest.mark.parametrize("third, digest", [(False, "a35e5fb216ab34f02b4a58960186a8af"),
                                               (True, "8d6f2bfde6d85254177776d1c406ee8b")],
                             ids=["two-dwells", "and-no-dwell"])
    def test_mixed_dwell_model_is_pinned(self, third, digest):
        # Dwells 3 and 2 on one ring resource (and a flight with none) share
        # one model; the desk digest covers dwells of at most 2.
        grid, snap, requests = mixed_dwell_batch(third)
        model, _ = step1_model(grid, snap, requests, 0)
        assert {request.min_dwell("r0001") for request in requests} >= {2, 3}
        assert input_digest([model]) == digest

    @pytest.mark.parametrize("third", [False, True], ids=["two-dwells", "and-no-dwell"])
    def test_rows_go_flight_by_flight(self, third):
        grid, snap, requests = mixed_dwell_batch(third)
        model, _ = step1_model(grid, snap, requests, 0)
        assert_row_order(model, [request.flight_id for request in requests])
        # Three flights crowd some cells, two do not.
        kinds = {con.label.split(".")[0] for con in model.constraints}
        assert kinds >= {"dep", "arr", "dwlo", "dwhi", "dwrun", "servedep", "servearr"}
        assert ("cap" in kinds) == third

    def test_desk_models_go_flight_by_flight(self, desk_step1_inputs):
        for grid, snapshot, requests, now in desk_step1_inputs:
            model, _ = step1_model(grid, snapshot, requests, now)
            assert_row_order(model, [request.flight_id for request in requests])


class TestWholeOffer:
    # Where no zone cell is offered to more flights than it has room for
    # and the whole offer passes the re-check, step 1 grants it with no
    # model: every optimum agrees with it on what step 1 reads. That check
    # is the batch's only one, and what step 1 returns passes it still.
    def test_desk_days_as_highs_solves_them(self):
        calls = []
        real_solve_step1 = sim.solve_step1

        def spy(grid, snapshot, requests, now):
            calls.append((grid, snapshot, requests, now))
            return real_solve_step1(grid, snapshot, requests, now)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "solve_step1", spy)
            sim.run_campaign(replace(load_scenario(DESK), days=2), modes=("fair-coplan", "coplan"))
        settled = fallback = 0
        checks = []
        real_check = step1.choice_violations

        def check(*args):
            checks.append(args)
            return real_check(*args)

        for call in calls:
            checks.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(step1, "choice_violations", check)
                got, models = step1_solves(*call)
            want, solved = step1_solves(*call, shortcut=False)
            assert (got.choice_sets, got.unassigned, got.deferred, repr(got.objective)) == \
                (want.choice_sets, want.unassigned, want.deferred, repr(want.objective))
            assert list(got.choice_sets) == list(want.choice_sets)
            assert np.array_equal(got.room, want.room)
            if solved and not models:
                settled += 1
                assert len(checks) == 1
                grid, snapshot, requests, now = call
                recheck(grid, snapshot, requests, got, now)
            # An uncrowded batch whose whole offer fails the re-check.
            fallback += bool(models) and not any(
                con.label.startswith("cap.") for con in models[0].constraints)
        assert (settled, fallback) == (21, 1)
