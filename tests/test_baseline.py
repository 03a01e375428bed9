"""Fixed-route baseline: deterministic routes, timing-only schedules."""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from faircoplan import baseline, blocks, milp, sim
from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.baseline import FixedRoute, fixed_route, solve_tfmp
from faircoplan.blocks import solve_joint
from faircoplan.checker import detect_conflicts
from faircoplan.cli import run_cli
from faircoplan.flights import DelayCostParams, FlightPlan
from faircoplan.oracle import oracle_tfmp_optimum
from faircoplan.selfcheck import CASES, SEED, build_catalog, random_instance
from faircoplan.serialize import load_scenario
from faircoplan.sim import generate_demand, scenario_grid

from helpers import (
    assert_same_model, make_grid, make_request, record_solves, solve_every_tfmp_batch,
)

PARAMS = DelayCostParams(alpha=0.3)
DESK = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"
FULL = DESK.with_name("full15x15.yaml")


def block(grid, request, now=0):
    """The flight's fixed-route block, as ``solve_tfmp`` builds it; None if
    it is deferred."""
    route = fixed_route(grid, request.origin, request.destination)
    windows = baseline._windows(grid, request, route, now)
    return None if windows is None else baseline._schedule(grid, request, route, windows,
                                                           PARAMS)


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
        # The energetic bound settles the first three attempts, so HiGHS
        # solves only the accepted model, and it equals a fresh stage call's.
        grid, requests, snap = self.cascade()
        solved = record_solves(monkeypatch, "fixed-route-schedule")
        out = solve_tfmp(grid, snap, requests, PARAMS)
        assert (out.dropped, out.attempts, out.solves) == (("f0", "f3", "f2"), 4, 1)
        accepted = solved.pop()
        assert solved == []
        # Alone, f1's earliest schedule fits, so a fresh stage call files it
        # with no model; with that proof out, HiGHS solves the accepted model.
        alone = [r for r in requests if r.flight_id == "f1"]
        proven = solve_tfmp(grid, snap, alone, PARAMS)
        assert (proven.attempts, proven.solves, solved) == (1, 0, [])
        solve_every_tfmp_batch(monkeypatch)
        fresh_out = solve_tfmp(grid, snap, alone, PARAMS)
        assert_same_attempt(accepted, solved.pop())
        assert fresh_out.plans == proven.plans == out.plans != {}
        # With the bound patched out HiGHS solves all four: the three the
        # bound settled are infeasible, and each model equals a fresh stage
        # call's.
        monkeypatch.setattr(blocks, "_exceeds_room", lambda rid, spans, room: False)
        unbounded = solve_tfmp(grid, snap, requests, PARAMS)
        assert (unbounded.dropped, unbounded.attempts, unbounded.solves) == (out.dropped, 4, 4)
        cascade = list(solved)
        assert [result.status for _, result in cascade] == [milp.INFEASIBLE] * 3 + [milp.OPTIMAL]
        actives = [("f0", "f1", "f2", "f3"), ("f1", "f2", "f3"), ("f1", "f2"), ("f1",)]
        for active, attempt in zip(actives, cascade, strict=True):
            solved.clear()
            solve_tfmp(grid, snap, [r for r in requests if r.flight_id in active], PARAMS)
            assert_same_attempt(attempt, solved[0])
        assert_same_attempt(cascade[-1], accepted)

    def test_each_cell_room_is_read_once(self):
        # The cascade makes four attempts, but the room of each cell the
        # flights can hold is read from the snapshot once.
        grid, requests, snap = self.cascade()
        by_id = {req.flight_id: req for req in requests}
        schedules = {fid: block(grid, req) for fid, req in by_id.items()}
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


def assert_same_attempt(got, want):
    """Two (model, result) solves with the same HiGHS input, status and point."""
    (model, result), (fresh, fresh_result) = got, want
    assert_same_model(model, fresh)
    assert (result.status, result.x) == (fresh_result.status, fresh_result.x)


def joint_flights(model):
    """The flights of a fixed-route joint model, read from its column names
    ``w.{fid}.{leg}.{t}``."""
    return sorted({v.name.rsplit(".", 2)[0][2:] for v in model.variables})


def bound_settles(schedules, active, snapshot, exceeds_room=blocks._exceeds_room):
    """Whether the energetic bound, run on every resource the flights
    ``active`` have a window on, proves their joint model has no point.
    ``exceeds_room`` is bound here, so a test may patch the loop's out."""
    spans = {}
    for fid in active:
        for rid, *span in schedules[fid].windows:
            spans.setdefault(rid, []).append(tuple(span))
    room = {cell: snapshot.remaining(*cell) for fid in active for cell in schedules[fid].cells}
    return any(exceeds_room(rid, windows, room) for rid, windows in spans.items())


class TestEnergeticBound:
    @pytest.mark.parametrize("spans, room, settles", [
        # Two flights must both hold step 0 of a capacity-one cell.
        ([(0, 0, 1), (0, 0, 1)], {0: 1}, True),
        # Either may enter at 0 or 1: they hold the cell in turn.
        ([(0, 1, 1), (0, 1, 1)], {0: 1, 1: 1}, False),
        # Stays of 2 from entries 0..1 need 4 steps of [0, 3).
        ([(0, 1, 2), (0, 1, 2)], {0: 1, 1: 1, 2: 1}, True),
        # Entries 0 and 1 stagger the stays, and step 1 holds both.
        ([(0, 1, 2), (0, 1, 2)], {0: 1, 1: 2, 2: 1}, False),
        # The room of a step no window covers does not count.
        ([(0, 0, 1), (3, 3, 1)], {0: 0, 1: 5, 2: 5, 3: 1}, True),
    ])
    def test_sums_each_intervals_least_hold_against_its_room(self, spans, room, settles):
        assert blocks._exceeds_room("r", spans, {("r", t): n for t, n in room.items()}) is settles

    def test_flights_that_hold_a_cell_in_turn_go_to_highs(self, monkeypatch):
        # Both flights can cross the capacity-one ring cell, one a step
        # after the other: the cell gets a cap row, the bound settles
        # nothing, and HiGHS solves the one attempt.
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0) for i in range(2)]
        solved = record_solves(monkeypatch, "fixed-route-schedule")
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), requests, PARAMS)
        assert (out.dropped, out.attempts, out.solves) == ((), 1, 1)
        (model, result), = solved
        assert result.status == milp.OPTIMAL
        assert any(c.label.startswith("cap.r0001.") for c in model.constraints)

    def test_every_desk_attempt_it_settles_is_infeasible_in_highs(self, monkeypatch):
        # Desk days 0-1 with the bound patched out: HiGHS solves every
        # attempt, and each the bound settles is infeasible. Their number is
        # the attempts less the solves of the same days with the bound in.
        # The cheapest-schedule proof is out in both runs, so every batch
        # reaches the drop loop.
        solve_every_tfmp_batch(monkeypatch)
        config = load_scenario(DESK)
        grid = scenario_grid(config)
        skipped = []
        real_tfmp = sim.solve_tfmp

        def count(*args):
            out = real_tfmp(*args)
            skipped.append(out.attempts - out.solves)
            return out

        monkeypatch.setattr(sim, "solve_tfmp", count)
        for day in (0, 1):
            sim.run_day(grid, config, day, "tfmp")
        calls = []
        real_joint = baseline.solve_joint

        def call(name, schedules, active, requests, snapshot):
            calls.append((schedules, snapshot))
            return real_joint(name, schedules, active, requests, snapshot)

        verdicts = []
        real_solve = milp.solve

        def solve(model):
            result = real_solve(model)
            schedules, snapshot = calls[-1]
            verdicts.append((bound_settles(schedules, joint_flights(model), snapshot),
                             result.status))
            return result

        monkeypatch.setattr(baseline, "solve_joint", call)
        monkeypatch.setattr(blocks, "_exceeds_room", lambda rid, spans, room: False)
        monkeypatch.setattr(milp, "solve", solve)
        for day in (0, 1):
            sim.run_day(grid, config, day, "tfmp")
        settled = [status for settles, status in verdicts if settles]
        assert settled == [milp.INFEASIBLE] * sum(skipped) != []

    def test_selfcheck_attempts_it_settles_have_no_oracle_schedule(self, monkeypatch):
        # On the self-check's fixed-route instances, brute force finds no
        # joint schedule for any attempt the bound settled. The
        # cheapest-schedule proof is out, so every batch reaches the loop.
        solve_every_tfmp_batch(monkeypatch)
        solved = record_solves(monkeypatch, "fixed-route-schedule")
        settled = 0
        instances = build_catalog()[:CASES]
        instances += [random_instance(SEED + i) for i in range(CASES - len(instances))]
        for inst in instances:
            snap = inst.snapshot()
            out = solve_tfmp(inst.grid, snap, list(inst.requests), inst.params, inst.now)
            scheduled = [r for r in sorted(inst.requests, key=lambda r: r.flight_id)
                         if r.flight_id not in out.deferred]
            tried = {tuple(joint_flights(model)) for model, _ in solved}
            solved.clear()
            for k in range(out.attempts):
                active = [r for r in scheduled if r.flight_id not in out.dropped[:k]]
                if tuple(r.flight_id for r in active) not in tried:
                    settled += 1
                    assert oracle_tfmp_optimum(inst.grid, snap, active, inst.params,
                                               inst.now) == (None, {}), inst.name
            assert out.solves == len(tried)
        assert settled > 0

    def test_full_scale_day_records_are_pinned(self, tmp_path):
        # 24 full15x15 periods of tfmp, 2,415 attempts of which HiGHS
        # solves 16; the digest was recorded when HiGHS solved them all.
        out = tmp_path / "full"
        assert run_cli(["simulate", "--config", str(FULL), "--days", "1", "--periods", "24",
                        "--mode", "tfmp", "--out", str(out)]) == 0
        records = (out / "tfmp" / "periods.jsonl").read_bytes()
        assert hashlib.sha256(records).hexdigest() == (
            "2405da89001327dae82a7e9b1aed8c862db0ec91cdd3c7b5192383e3c42b362f")


def highs_runs(monkeypatch):
    """From now on, one entry per ``milp.run_highs`` call."""
    runs = []
    real = milp.run_highs

    def spy(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(milp, "run_highs", spy)
    return runs


def earliest_plans(grid, snapshot, flights, params):
    """The batch's earliest schedules where the narrower earliest-schedule
    rule proves them its unique optimum: alpha > 0, each flight tight (its
    earliest landing is its earliest departure plus its minimum stays) and
    the schedules fitting together; else None."""
    if params.alpha <= 0.0 or not flights:
        return None
    plans = {}
    for fid, (route, windows) in flights.items():
        _, entries, _, stays = zip(*windows)
        if entries[-1] != entries[0] + sum(stays[:-1]):
            return None
        plans[fid] = baseline._route_plan(fid, route, entries)
    return None if detect_conflicts(grid, snapshot, plans).has_conflicts else plans


class TestCheapestOptimum:
    # Each flight's cheapest schedule, found alone over its windows and the
    # snapshot's room, is its block's unique LP optimum when no other
    # schedule reaches its cost; if those fit together they are the batch's
    # unique optimum, filed with no block, model or HiGHS call.
    def test_every_desk_batch_it_settles_matches_highs(self, monkeypatch):
        # Desk days 0-1: each batch the proof settles, re-solved through
        # the drop loop on fresh blocks, has the same plans and objective,
        # in one attempt that HiGHS accepts.
        calls = []
        real = baseline._cheapest_optimum

        def spy(*args):
            outcome = real(*args)
            calls.append((args, outcome))
            return outcome

        batches = []
        real_tfmp = sim.solve_tfmp

        def count(*args):
            out = real_tfmp(*args)
            batches.append(out)
            return out

        monkeypatch.setattr(baseline, "_cheapest_optimum", spy)
        monkeypatch.setattr(sim, "solve_tfmp", count)
        config = load_scenario(DESK)
        grid = scenario_grid(config)
        for day in (0, 1):
            sim.run_day(grid, config, day, "tfmp")
        settled = [(args, outcome) for args, outcome in calls if outcome is not None]
        assert (len(settled), len(batches)) == (24, 53)
        assert sum(out.solves == 0 and out.plans != {} for out in batches) == 24
        for (grid, snapshot, requests, flights, params), outcome in settled:
            schedules = {fid: baseline._schedule(grid, requests[fid], route, windows, params)
                         for fid, (route, windows) in flights.items()}
            joint = solve_joint("fixed-route-schedule", schedules, list(schedules), requests,
                                snapshot)
            assert (joint.plans, joint.dropped, joint.attempts, joint.solves) == (
                outcome.plans, (), 1, 1)
            assert list(joint.plans) == list(outcome.plans)
            assert joint.objective == pytest.approx(outcome.objective, rel=0, abs=1e-9)
            assert (outcome.dropped, outcome.attempts, outcome.solves) == ((), 1, 0)
        # Every batch the earliest-schedule rule settles is still settled, at
        # the same plans in the same order.
        earliest = [(plans, outcome) for (grid, snapshot, _, flights, params), outcome in calls
                    if (plans := earliest_plans(grid, snapshot, flights, params)) is not None]
        assert len(earliest) == 14
        for plans, outcome in earliest:
            assert outcome is not None and list(outcome.plans.items()) == list(plans.items())

    def test_lone_on_time_flight_runs_no_highs(self, monkeypatch):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        runs = highs_runs(monkeypatch)
        out = solve_tfmp(grid, OccupancyLedger(grid).snapshot(), [request], PARAMS)
        assert runs == []
        assert (out.attempts, out.solves, out.dropped) == (1, 0, ())
        assert out.plans["f0"].steps == ((0, "r0000"), (1, "r0001"), (2, "r0002"))
        assert out.objective == out.total_tdc == 0.0

    def test_late_arrival_holds_at_its_one_cheapest_schedule(self, monkeypatch):
        # Requested to land a step after its earliest landing, the flight is
        # not tight, but its one cost-free schedule departs on time and holds
        # the ring cell a step: the only ring cell on its route.
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        on_time = make_request(grid, "f0", "r0000", "r0002", 0)
        slack = replace(on_time, requested_arrival=on_time.requested_arrival + 1)
        snap = OccupancyLedger(grid).snapshot()
        runs = highs_runs(monkeypatch)
        out = solve_tfmp(grid, snap, [slack], PARAMS)
        assert runs == []
        assert (out.attempts, out.solves, out.dropped) == (1, 0, ())
        assert out.plans["f0"].steps == ((0, "r0000"), (1, "r0001"), (2, "r0001"),
                                         (3, "r0002"))
        want, want_plans = oracle_tfmp_optimum(grid, snap, [slack], PARAMS)
        assert out.plans == want_plans
        assert out.objective == out.total_tdc == pytest.approx(want) == 0.0

    def test_blocked_earliest_schedule_holds_in_its_one_free_sector(self, monkeypatch):
        # The second ring cell is closed at step 2, where the earliest
        # schedule enters it: the cheapest schedule holds the first ring
        # cell a step, the only place it can, and HiGHS agrees.
        grid = make_grid(1, 4, ((0, 0), (0, 3)), overrides=(("r0002", 2, 0),))
        request = make_request(grid, "f0", "r0000", "r0003", 0)
        snap = OccupancyLedger(grid).snapshot()
        runs = highs_runs(monkeypatch)
        out = solve_tfmp(grid, snap, [request], PARAMS)
        assert runs == []
        assert (out.attempts, out.solves) == (1, 0)
        assert out.plans["f0"].steps == ((0, "r0000"), (1, "r0001"), (2, "r0001"),
                                         (3, "r0002"), (4, "r0003"))
        solve_every_tfmp_batch(monkeypatch)
        solved = solve_tfmp(grid, snap, [request], PARAMS)
        assert (solved.attempts, solved.solves) == (1, 1) and runs != []
        assert solved.plans == out.plans
        assert solved.objective == pytest.approx(out.objective, rel=0, abs=1e-9)

    @staticmethod
    def refused():
        """(params, grid, requests) batches the proof leaves to HiGHS."""
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        on_time = make_request(grid, "f0", "r0000", "r0002", 0)
        both = [make_request(grid, f"f{i}", "r0000", "r0002", 0) for i in range(2)]
        # The destination pad is closed at the earliest landing, so the
        # flight holds one step in either ring cell of its route.
        held = make_grid(1, 4, ((0, 0), (0, 3)), overrides=(("r0003", 3, 0),))
        # Landing a step past the requested arrival costs 1e-7: a near-tie.
        slack = replace(on_time, requested_arrival=on_time.requested_arrival + 1)
        return {
            # Airborne holding costs nothing: the landing is tied.
            "alpha-0": (DelayCostParams(alpha=0.0), grid, [on_time]),
            "hold-tie": (PARAMS, held, [make_request(held, "f0", "r0000", "r0003", 0)]),
            "near-tie": (DelayCostParams(alpha=1e-7), grid, [slack]),
            # Both cheapest plans hold the capacity-one ring cell at step 1.
            "overload": (PARAMS, grid, both),
        }

    @pytest.mark.parametrize("case", ["alpha-0", "hold-tie", "overload"])
    def test_refused_batches_go_to_highs(self, monkeypatch, case):
        params, grid, requests = self.refused()[case]
        snap = OccupancyLedger(grid).snapshot()
        runs = highs_runs(monkeypatch)
        out = solve_tfmp(grid, snap, requests, params)
        assert (out.attempts, out.solves, out.dropped) == (1, 1, ())
        assert len(runs) >= 1
        want, _ = oracle_tfmp_optimum(grid, snap, requests, params)
        assert out.total_tdc == pytest.approx(want)

    @pytest.mark.parametrize("tight", [False, True], ids=["late-arrival", "on-time"])
    def test_near_tie_goes_to_highs(self, monkeypatch, tight):
        # The cheapest schedule is unique, but landing later costs only 1e-7
        # more per step: HiGHS's answer need only lie within its tolerances
        # of the exact optimum (here it holds the ring cell longer), so
        # filing the exact cheapest schedule could move the record. An
        # on-time flight is tight, and its earliest schedule fits, but that
        # shortcut too needs alpha above the near-tie margin.
        params, grid, requests = self.refused()["near-tie"]
        if tight:
            requests = [make_request(grid, "f0", "r0000", "r0002", 0)]
        snap = OccupancyLedger(grid).snapshot()
        runs = highs_runs(monkeypatch)
        out = solve_tfmp(grid, snap, requests, params)
        assert (out.attempts, out.solves, out.dropped) == (1, 1, ())
        assert len(runs) >= 1
        want, _ = oracle_tfmp_optimum(grid, snap, requests, params)
        assert want <= out.total_tdc <= want + baseline._NEAR_TIE

    def test_alpha_one_agrees_with_highs(self, monkeypatch):
        # No ground weight: the landing alone forces the earliest schedule.
        # Three flights whose earliest plans share no ring cell at a step.
        grid = make_grid(1, 4, ((0, 0), (0, 3)), horizon=10)
        params = DelayCostParams(alpha=1.0)
        requests = [make_request(grid, "f0", "r0000", "r0003", 0),
                    make_request(grid, "f1", "r0003", "r0000", 4, dwell=(("r0001", 2),)),
                    make_request(grid, "f2", "r0000", "r0003", 2)]
        snap = OccupancyLedger(grid).snapshot()
        out = solve_tfmp(grid, snap, requests, params)
        assert (out.attempts, out.solves) == (1, 0)
        solve_every_tfmp_batch(monkeypatch)
        solved = solve_tfmp(grid, snap, requests, params)
        assert (solved.attempts, solved.solves) == (1, 1)
        assert solved.plans == out.plans and list(solved.plans) == list(out.plans)
        assert solved.tdc_by_flight == out.tdc_by_flight
        assert solved.objective == pytest.approx(out.objective, rel=0, abs=1e-9)


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

    @pytest.mark.parametrize("proof", [True, False], ids=["proven", "highs"])
    def test_extraction_that_skips_a_cell_fails_recheck(self, monkeypatch, proof):
        # The lone on-time flight is filed at its earliest schedule with no
        # model, or, with that proof out, from HiGHS's point; both read the
        # plan through the one extraction, corrupted here.
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        if not proof:
            solve_every_tfmp_batch(monkeypatch)
        solved = record_solves(monkeypatch, "fixed-route-schedule")
        monkeypatch.setattr(baseline, "_route_plan", lambda fid, route, entries: FlightPlan(
            fid, ((0, "r0000"), (1, "r0002"))))
        with pytest.raises(RuntimeError, match="f0: fixed-route plan failed re-check"):
            solve_tfmp(grid, OccupancyLedger(grid).snapshot(), [request], PARAMS)
        assert len(solved) == (0 if proof else 1)


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


def full_window_schedule(grid, request, route, windows, params):
    """The reference formulation: ``baseline._schedule`` as it was before it
    declared only each leg's free entry window. Every leg's binaries run to
    the horizon's end, its rows and occupancy terms with them, so each leg's
    window, which ``plan`` walks, ends there too. Of ``windows`` it reads
    only the period: the last leg's latest entry is its last step."""
    horizon_end = windows[-1][2] + 1
    now = horizon_end - grid.horizon_steps
    fid = request.flight_id
    dwells = baseline.leg_dwells(grid, route, request.min_dwell)
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    last = len(route.legs) - 1
    depart_by = min(d + eps, horizon_end - 1 - sum(dwells))
    if max(d, now) > depart_by or a > horizon_end - 1:
        return None

    entry_lo = [max(d, now)]
    for dwell in dwells:
        entry_lo.append(entry_lo[-1] + dwell)
    entry_lo[last] = max(entry_lo[last], a)

    ground, air = 1.0 - params.alpha, params.alpha
    waits = range(entry_lo[0], min(d + eps, horizon_end))
    landings = range(entry_lo[last], horizon_end)
    fragment = milp.Model(name=f"w.{fid}")
    fragment.objective_offset = (ground * (entry_lo[0] - d + len(waits))
                                 + air * (entry_lo[last] - a + len(landings)))
    base = []
    for i, lo in enumerate(entry_lo):
        steps = range(lo, horizon_end)
        cost = ([0.0 - ground if t in waits else 0.0 for t in steps] if i == 0
                else 0.0 - air if i == last else 0.0)
        base.append(fragment.binaries([f"w.{fid}.{i}.{t}" for t in steps], cost) - lo)

    indices = []
    labels = []
    for i, lo in enumerate(entry_lo):
        cols = range(base[i] + lo, base[i] + horizon_end)
        indices += baseline._pairs(cols[1:], cols[:-1])
        labels += [f"mono.{fid}.{i}.{t}" for t in range(lo + 1, horizon_end)]
    relations = [">="] * len(labels)
    for i in range(last):
        steps = range(entry_lo[i + 1], horizon_end)
        later, earlier = base[i + 1], base[i] - dwells[i]
        indices += baseline._pairs(range(later + steps.start, later + horizon_end),
                                   range(earlier + steps.start, earlier + horizon_end))
        exact = grid.resource(route.legs[i]).kind == "vertiport"
        relations += ["=" if exact else "<="] * len(steps)
        labels += [f"order.{fid}.{i + 1}.{t}" for t in steps]
    rows = len(labels)
    indices += (base[0] + depart_by, base[last] + horizon_end - 1)
    fragment.add_rows([*range(2, 2 * rows + 1, 2), 2 * rows + 1, 2 * rows + 2], indices,
                      [1.0, -1.0] * rows + [1.0, 1.0], relations + ["=", "="],
                      [0.0] * rows + [1.0, 1.0], labels + [f"dep.{fid}", f"arr.{fid}"])

    cells = {}
    for i, lo in enumerate(entry_lo):
        gone, after = (base[i + 1], entry_lo[i + 1]) if i < last else (base[i] - 1, lo + 1)
        for t in range(lo, horizon_end):
            occupancy = cells[(route.legs[i], t)] = {base[i] + t: 1.0}
            if t >= after:
                occupancy[gone + t] = -1.0
    return baseline._Schedule(request, route, fragment, cells,
                              tuple((rid, lo, horizon_end - 1, stay) for rid, lo, stay
                                    in zip(route.legs, entry_lo, [*dwells, 1])))


def corridor_flights():
    """(grid, request, now) cases on small corridors: ring dwells, an
    intermediate vertiport, an overdue flight and a departure window that
    the horizon cuts."""
    corridor = make_grid(1, 3, ((0, 0), (0, 2)))
    long = make_grid(1, 7, ((0, 0), (0, 6)), horizon=14)
    through = make_grid(1, 5, ((0, 0), (0, 2), (0, 4)), horizon=12)
    return [
        (corridor, make_request(corridor, "f0", "r0000", "r0002", 0), 0),
        (corridor, make_request(corridor, "f1", "r0000", "r0002", 0), 2),
        (corridor, make_request(corridor, "f2", "r0002", "r0000", 1, flexibility=6), 0),
        (long, make_request(long, "f3", "r0000", "r0006", 1,
                            dwell=(("r0001", 2), ("r0005", 3))), 0),
        (long, make_request(long, "f4", "r0006", "r0000", 0, flexibility=8,
                            dwell=(("r0005", 2),)), 0),
        (through, make_request(through, "f5", "r0000", "r0004", 0,
                               dwell=(("r0001", 2), ("r0003", 2))), 0),
        (through, make_request(through, "f6", "r0004", "r0000", 2, flexibility=1,
                               dwell=(("r0003", 3),)), 1),
    ]


def desk_flights():
    """(grid, request, now) for the requests of the first periods of desk
    day 0, each planned at its own period."""
    config = load_scenario(DESK)
    grid = scenario_grid(config)
    return [(grid, request, period * config.cadence_steps)
            for period in range(4) for request in generate_demand(grid, config, 0, period)]


FLIGHTS = [*corridor_flights(), *desk_flights()]


def declared_windows(schedule):
    """Each leg's declared steps, read from the fragment's column names."""
    windows = {}
    for name in schedule.fragment.variables:
        _, _, leg, t = name.name.rsplit(".", 3)
        windows.setdefault(int(leg), []).append(int(t))
    return [windows[i] for i in range(len(windows))]


def pinned_status(schedule, leg, t):
    """The status of the flight's fragment alone with w(leg, t) pinned at 0."""
    _, lo, _, _ = schedule.windows[leg]
    col = sum(hi - first + 1 for _, first, hi, _ in schedule.windows[:leg])
    model = milp.Model(name="pinned")
    shift = model.append(schedule.fragment)
    model.add({shift + col + t - lo: 1.0}, "=", 0.0, "pin")
    return milp.solve(model).status


class TestLatestEntry:
    @pytest.mark.parametrize("case", FLIGHTS, ids=lambda case: case[1].flight_id)
    def test_each_leg_declares_exactly_its_free_entry_window(self, case):
        grid, request, now = case
        route = fixed_route(grid, request.origin, request.destination)
        schedule = block(grid, request, now)
        assert schedule is not None
        dwells = baseline.leg_dwells(grid, route, request.min_dwell)
        windows = declared_windows(schedule)
        assert len(windows) == len(route.legs)
        earliest = max(request.requested_departure, now)
        for i, steps in enumerate(windows):
            if i == len(route.legs) - 1:
                earliest = max(earliest, request.requested_arrival)
            # One run of steps from the earliest entry to the latest.
            assert steps == list(range(earliest, steps[-1] + 1))
            assert schedule.windows[i][1] == earliest
            earliest += dwells[i] if i < len(dwells) else 0
            latest = steps[-1]
            # Entering leg i only after its latest entry breaks the
            # flight's own rows; entering at it does not.
            assert pinned_status(schedule, i, latest) == milp.INFEASIBLE
            if len(steps) >= 2:
                assert pinned_status(schedule, i, latest - 1) == milp.OPTIMAL

    @pytest.mark.parametrize("case", FLIGHTS, ids=lambda case: case[1].flight_id)
    def test_cells_hold_the_occupancy_of_the_earliest_and_latest_schedules(self, case):
        grid, request, now = case
        schedule = block(grid, request, now)
        windows = declared_windows(schedule)
        for entries in ([steps[0] for steps in windows], [steps[-1] for steps in windows]):
            # Entered-by: 1 from each leg's entry on.
            x = [float(t >= entry) for steps, entry in zip(windows, entries) for t in steps]
            plan = schedule.plan(x)
            assert [t for t, _ in plan.steps] == list(range(entries[0], entries[-1] + 1))
            occupied = set(plan.steps)
            assert {(t, rid) for rid, t in schedule.cells} >= occupied
            for (rid, t), terms in schedule.cells.items():
                held = sum(coeff * x[j] for j, coeff in terms.items())
                assert held == ((t, rid) in occupied)

    def test_same_verdicts_and_optima_as_the_full_window_formulation(self, monkeypatch):
        config = load_scenario(DESK)
        grid = scenario_grid(config)
        calls = []
        real = sim.solve_tfmp

        def record(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "solve_tfmp", record)
        sim.run_day(grid, config, 0, "tfmp")
        monkeypatch.undo()
        assert calls
        # Every batch is built and solved, also one the cheapest-schedule
        # proof would file with no model.
        solve_every_tfmp_batch(monkeypatch)
        outcomes = {}
        for build in (baseline._schedule, full_window_schedule):
            monkeypatch.setattr(baseline, "_schedule", build)
            if build is full_window_schedule:
                # No energetic bound: HiGHS solves every attempt.
                monkeypatch.setattr(blocks, "_exceeds_room", lambda *args: False)
            outcomes[build] = [solve_tfmp(*args) for args in calls]
        for free, full in zip(*outcomes.values(), strict=True):
            assert (free.objective is None) == (full.objective is None)
            if full.objective is not None:
                assert free.objective == pytest.approx(full.objective, rel=0, abs=1e-9)
            assert (free.deferred, free.dropped, free.attempts) == (
                full.deferred, full.dropped, full.attempts)
        assert sum(out.attempts for out in outcomes[full_window_schedule]) > len(calls)
