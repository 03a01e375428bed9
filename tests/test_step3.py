"""Joint deconfliction: conflict detection, fairness spread, victim drops."""
from __future__ import annotations

from pathlib import Path

import pytest

from faircoplan import milp, sim, step3
from faircoplan.airspace import OccupancyLedger, OccupancySnapshot
from faircoplan.blocks import ArcFragment
from faircoplan.checker import detect_conflicts
from faircoplan.flights import DelayCostParams, FlightPlan, path_length
from faircoplan.oracle import oracle_joint_optimum
from faircoplan.serialize import load_scenario
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2
from faircoplan.step3 import fairness_value, solve_step3

from helpers import assert_same_model, blocked, make_grid, make_request, record_solves

PARAMS = DelayCostParams(alpha=0.3)
DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"


def chain(fid, rids, start=0):
    return FlightPlan(fid, tuple((start + i, rid) for i, rid in enumerate(rids)))


def pinch_grid():
    """Two pads joined by routes that all cross one capacity-one cell."""
    probe = make_grid(2, 4, ((0, 0), (1, 3)))
    return make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=2,
                     overrides=blocked(probe, 0, 2))


def head_on():
    """One flight east and two west over a grid where every cell but the
    pads holds one flight: the cheapest replans detour one flight more than
    another, so the spread term prices a real trade-off."""
    grid = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=1)
    requests = [
        make_request(grid, "f0", "r0000", "r0007", 0, flexibility=2),
        make_request(grid, "f1", "r0007", "r0000", 0, flexibility=3),
        make_request(grid, "f2", "r0007", "r0000", 0, flexibility=2),
    ]
    return grid, requests


def deconfliction_models(monkeypatch):
    """Spy on ``milp.solve``; the list fills with each deconfliction model."""
    models = []
    solve = milp.solve

    def spy(model):
        if model.name == "deconfliction":
            models.append(model)
        return solve(model)

    monkeypatch.setattr(milp, "solve", spy)
    return models


def plan_batch(grid, requests):
    snap = OccupancyLedger(grid).snapshot()
    s1 = solve_step1(grid, snap, requests, 0)
    proposals = {}
    for request in requests:
        out = solve_step2(grid, snap, request,
                          s1.choice_sets[request.flight_id], PARAMS)
        proposals[request.flight_id] = out.plan
    return snap, s1.choice_sets, proposals


class TestDetectConflicts:
    def test_shared_capacity_one_cell_is_flagged(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        plans = {
            "f0": chain("f0", ["r0000", "r0001", "r0002"]),
            "f1": chain("f1", ["r0000", "r0001", "r0002"]),
        }
        report = detect_conflicts(grid, snap, plans)
        assert report.has_conflicts
        assert len(report.conflicts) == 1
        c = report.conflicts[0]
        assert (c.resource_id, c.t) == ("r0001", 1)
        assert c.flight_ids == ("f0", "f1")
        assert c.remaining == 1
        assert report.conflicting_flights == {"f0", "f1"}

    def test_staggered_plans_do_not_conflict(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        plans = {
            "f0": chain("f0", ["r0000", "r0001", "r0002"]),
            "f1": chain("f1", ["r0000", "r0001", "r0002"], start=2),
        }
        assert not detect_conflicts(grid, snap, plans).has_conflicts

    def test_prior_occupancy_counts_against_remaining(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancySnapshot(grid, {("r0001", 1): 1})
        plans = {"f0": chain("f0", ["r0000", "r0001", "r0002"])}
        report = detect_conflicts(grid, snap, plans)
        assert report.conflicts[0].remaining == 0
        assert report.conflicts[0].flight_ids == ("f0",)

    def test_closed_cell_rejects_a_single_plan(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)), overrides=(("r0001", 1, 0),))
        snap = OccupancyLedger(grid).snapshot()
        plans = {"f0": chain("f0", ["r0000", "r0001", "r0002"])}
        report = detect_conflicts(grid, snap, plans)
        assert [(c.resource_id, c.t, c.flight_ids, c.remaining)
                for c in report.conflicts] == [("r0001", 1, ("f0",), 0)]
        assert report.conflicting_flights == {"f0"}
        later = {"f0": chain("f0", ["r0000", "r0001", "r0002"], start=1)}
        assert not detect_conflicts(grid, snap, later).has_conflicts

    def test_empty_snapshot_measures_full_capacity(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=3,
                         ring_capacity=2)
        snap = OccupancySnapshot(grid, {})
        plans = {f"f{i}": chain(f"f{i}", ["r0000", "r0001", "r0002"])
                 for i in range(3)}
        pair = {fid: plans[fid] for fid in ("f0", "f1")}
        assert not detect_conflicts(grid, snap, pair).has_conflicts
        report = detect_conflicts(grid, snap, plans)
        assert [(c.resource_id, c.t, c.flight_ids, c.remaining)
                for c in report.conflicts] == [("r0001", 1, ("f0", "f1", "f2"), 2)]
        assert str(report.conflicts[0]) == "(r0001, t=1): 3 flights onto remaining 2"


class TestFairnessValue:
    def test_spread_of_detour_ratios(self):
        rids = [f"x{i}" for i in range(10)]
        proposals = {"a": chain("a", rids[:4]), "b": chain("b", rids[:8])}
        finals = {"a": chain("a", rids[:6]), "b": chain("b", rids[:10])}
        # ratios 1.5 and 1.25
        assert fairness_value(proposals, finals) == pytest.approx(0.25)

    def test_unchanged_plans_have_zero_spread(self):
        rids = [f"x{i}" for i in range(8)]
        proposals = {"a": chain("a", rids[:4]), "b": chain("b", rids[:8])}
        assert fairness_value(proposals, proposals) == pytest.approx(0.0)

    def test_no_finals_means_zero(self):
        assert fairness_value({}, {}) == 0.0

    def test_final_without_proposal_rejected(self):
        rids = [f"x{i}" for i in range(4)]
        with pytest.raises(ValueError, match="without a matching proposal"):
            fairness_value({}, {"a": chain("a", rids)})

    def test_holding_does_not_stretch_the_ratio(self):
        proposal = chain("a", ["x0", "x1", "x2"])
        held = FlightPlan("a", ((0, "x0"), (1, "x1"), (2, "x1"), (3, "x2")))
        assert fairness_value({"a": proposal}, {"a": held}) == 0.0


class TestNoConflictFastPath:
    def test_compatible_proposals_file_untouched(self, monkeypatch):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        requests = [
            make_request(grid, "f0", "r0000", "r0002", 0, flexibility=2),
            make_request(grid, "f1", "r0000", "r0002", 3, flexibility=2),
        ]
        snap, choice_sets, proposals = plan_batch(grid, requests)
        solved, solve = [], milp.solve
        monkeypatch.setattr(milp, "solve",
                            lambda model: solved.append(model.name) or solve(model))
        out = solve_step3(grid, snap, requests, choice_sets, proposals,
                          PARAMS, gamma=1.0)
        assert solved == []
        assert out.plans == proposals
        assert out.replanned == () and out.dropped == ()
        assert out.objective is None
        assert out.fairness == 0.0
        assert out.total_tdc == pytest.approx(0.0)


class TestPinchDeconfliction:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0])
    def test_one_flight_waits_out_the_pinch(self, gamma):
        grid = pinch_grid()
        requests = [
            make_request(grid, "f0", "r0000", "r0007", 0, flexibility=2),
            make_request(grid, "f1", "r0000", "r0007", 0, flexibility=2),
        ]
        snap, choice_sets, proposals = plan_batch(grid, requests)
        assert detect_conflicts(grid, snap, proposals).has_conflicts
        out = solve_step3(grid, snap, requests, choice_sets, proposals,
                          PARAMS, gamma=gamma)
        assert out.dropped == ()
        assert sorted(out.replanned) == ["f0", "f1"]
        assert out.total_tdc == pytest.approx(0.3)
        assert out.fairness == pytest.approx(0.0)
        assert out.objective is not None
        assert out.objective == pytest.approx(0.3)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0])
    def test_matches_the_joint_enumeration_oracle(self, gamma):
        grid, requests = head_on()
        snap, choice_sets, proposals = plan_batch(grid, requests)
        out = solve_step3(grid, snap, requests, choice_sets, proposals,
                          PARAMS, gamma=gamma)
        assert out.dropped == ()
        assert out.replanned == ("f0", "f1", "f2")
        # Replans that differ in path length: the spread is priced, and at
        # gamma = 5 it is worth more delay to remove.
        assert out.fairness == pytest.approx(0.0 if gamma == 5.0 else 0.4)
        want, _ = oracle_joint_optimum(grid, snap, requests, choice_sets,
                                       PARAMS, gamma=gamma, proposals=proposals)
        assert out.objective == pytest.approx(want)


# Row labels and column names of the presence encoding the flows replace.
PRESENCE_ENCODING = ("lmin.", "en.", "dw", "link.", "one.", "end.")


def assert_flow_encoding(model):
    """Only the flows' and the spread's rows and columns: none of the
    presence encoding's."""
    labels = [c.label for c in model.constraints]
    names = [v.name for v in model.variables]
    assert all(label.startswith(("src.", "flow.", "cap.", "rmax.", "rmin."))
               for label in labels)
    assert all(name.startswith(("v.", "ratio.")) for name in names)
    assert not [label for label in labels if label.startswith(PRESENCE_ENCODING)]
    assert not [name for name in names if name.startswith(PRESENCE_ENCODING)]


class TestEntryCountBound:
    def test_spread_rows_hold_the_resource_changing_arcs(self, monkeypatch):
        # Each flight's entry count is 1 + its arcs that change resource, so
        # rmax/rmin hold exactly those arcs at -1/L with right-hand side 1/L,
        # L the proposal's path length.
        grid, requests = head_on()
        snap, choice_sets, proposals = plan_batch(grid, requests)
        models = deconfliction_models(monkeypatch)
        stage = []
        blocks = step3._joint_blocks
        monkeypatch.setattr(step3, "_joint_blocks",
                            lambda *args: stage.append(blocks(*args)) or stage[-1])
        out = solve_step3(grid, snap, requests, choice_sets, proposals,
                          PARAMS, gamma=1.0)
        assert out.replanned == ("f0", "f1", "f2")
        [model], [flows] = models, stage
        assert_flow_encoding(model)
        spread = [c for c in model.constraints if c.label.startswith(("rmax.", "rmin."))]
        assert [c.label for c in spread] == ["rmax.f0", "rmin.f0", "rmax.f1", "rmin.f1",
                                            "rmax.f2", "rmin.f2"]
        for row in spread:
            kind, fid = row.label.split(".")
            share = 1.0 / path_length(proposals[fid])
            flow = flows[fid]
            names = [v.name for v in flow.fragment.variables]
            moves = {names[j] for j, (tail, head) in enumerate(flow.arcs)
                     if tail is not None and tail[0] != head[0]}
            assert len(moves) >= 4  # the hop distance, origin to destination
            bound, *terms = row.coeffs
            assert bound == ("ratio.max" if kind == "rmax" else "ratio.min", 1.0)
            assert {name for name, _ in terms} == moves
            assert {coeff for _, coeff in terms} == {-share}
            assert row.relation == (">=" if kind == "rmax" else "<=")
            assert row.rhs == share

    def test_no_row_without_the_spread(self, monkeypatch):
        grid, requests = head_on()
        snap, choice_sets, proposals = plan_batch(grid, requests)
        models = deconfliction_models(monkeypatch)
        solve_step3(grid, snap, requests, choice_sets, proposals,
                    PARAMS, gamma=0.0)
        [model] = models
        assert not [c for c in model.constraints
                    if c.label.startswith(("lmin.", "rmax.", "rmin."))]
        assert not [v for v in model.variables if v.name.startswith("ratio.")]

    def test_desk_day_models_hold_no_presence_encoding(self, monkeypatch):
        # Every fair-coplan deconfliction model of desk day 0, drop attempts
        # included: the flows state dwell, one cell per step and the end of
        # the plan in their states, so no row or column of the presence
        # encoding is written, and each flight has its two spread rows.
        config = load_scenario(DESK_CONFIG)
        assert config.gamma > 0.0
        models = deconfliction_models(monkeypatch)
        sim.run_day(sim.scenario_grid(config), config, 0, "fair-coplan")
        assert models
        for model in models:
            assert_flow_encoding(model)
            labels = [c.label for c in model.constraints]
            flights = [label.removeprefix("src.") for label in labels
                       if label.startswith("src.")]
            assert [label for label in labels if label.startswith(("rmax.", "rmin."))] == [
                f"{kind}.{fid}" for fid in flights for kind in ("rmax", "rmin")]
            assert model.relaxation_first


class TestCapacityRows:
    def test_desk_day_caps_no_zone_cell(self, monkeypatch):
        # Step 3 caps every cell, but step 1 already holds each zone cell's
        # joint grant within its room and kept plans use only granted cells,
        # so no deconfliction model of desk day 0, in either negotiated
        # lane, drop attempts included, has a zone cell's row.
        config = load_scenario(DESK_CONFIG)
        grid = sim.scenario_grid(config)
        models = deconfliction_models(monkeypatch)
        for mode in ("fair-coplan", "coplan"):
            sim.run_day(grid, config, 0, mode)
        cells = [c.label.split(".")[1] for model in models for c in model.constraints
                 if c.label.startswith("cap.")]
        assert models and cells
        assert not [rid for rid in cells if grid.is_zone(rid)]


class TestVictimDrops:
    def zero_slack_requests(self, grid, resubmissions=(0, 0)):
        return [
            make_request(grid, "f0", "r0000", "r0007", 0, flexibility=1,
                         resubmissions=resubmissions[0]),
            make_request(grid, "f1", "r0000", "r0007", 0, flexibility=1,
                         resubmissions=resubmissions[1]),
        ]

    def test_newest_id_is_dropped_on_ties(self):
        grid = pinch_grid()
        requests = self.zero_slack_requests(grid)
        snap, choice_sets, proposals = plan_batch(grid, requests)
        out = solve_step3(grid, snap, requests, choice_sets, proposals,
                          PARAMS, gamma=0.0)
        assert out.dropped == ("f1",)
        assert out.replanned == ("f0",)
        assert out.attempts == 2
        assert out.total_tdc == pytest.approx(0.0)

    def test_resubmitted_flights_are_protected(self):
        grid = pinch_grid()
        requests = self.zero_slack_requests(grid, resubmissions=(0, 2))
        snap, choice_sets, proposals = plan_batch(grid, requests)
        out = solve_step3(grid, snap, requests, choice_sets, proposals,
                          PARAMS, gamma=0.0)
        assert out.dropped == ("f0",)
        assert "f1" in out.plans


class TestCachedFragments:
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_every_attempt_equals_a_fresh_build(self, monkeypatch, gamma):
        # Two flights with one step of slack through the one-flight pinch
        # cell: only one fits. f0 has fewer resubmissions, so it is dropped
        # and f1's block moves to column 0.
        grid = pinch_grid()
        requests = [make_request(grid, f"f{i}", "r0000", "r0007", 0, flexibility=1,
                                 resubmissions=i) for i in range(2)]
        snap, choice_sets, proposals = plan_batch(grid, requests)
        stage, calls = [], []
        blocks, joint = step3._joint_blocks, step3.solve_joint

        def spy_blocks(*args):
            stage.append(args)
            return blocks(*args)

        def spy_joint(*args):
            calls.append(args)
            return joint(*args)

        monkeypatch.setattr(step3, "_joint_blocks", spy_blocks)
        monkeypatch.setattr(step3, "solve_joint", spy_joint)
        solved = record_solves(monkeypatch, "deconfliction")
        out = solve_step3(grid, snap, requests, choice_sets, proposals, PARAMS,
                          gamma=gamma)
        assert out.dropped == ("f0",) and len(stage) == len(calls) == 1
        attempts = list(solved)
        assert len(attempts) == out.attempts == 2
        grid_, base, _, by_id, choice_sets_, params, now = stage[0]
        name, _, _, requests_, snapshot, extend = calls[0]
        assert (extend is None) == (gamma == 0.0)
        for active, (model, result) in zip([("f0", "f1"), ("f1",)], attempts, strict=True):
            solved.clear()
            fresh_blocks = blocks(grid_, base, active, by_id, choice_sets_, params, now)
            fresh_out = joint(name, fresh_blocks, active, requests_, snapshot, extend)
            fresh, fresh_result = solved[0]
            assert_same_model(model, fresh)
            assert (result.status, result.x) == (fresh_result.status, fresh_result.x)
        assert attempts[-1][1].status == milp.OPTIMAL
        assert fresh_out.plans.items() <= out.plans.items() and fresh_out.plans


class TestCapacityAudit:
    def test_overloading_extraction_breaks_capacity(self, monkeypatch):
        grid = pinch_grid()
        requests = [
            make_request(grid, "f0", "r0000", "r0007", 0, flexibility=2),
            make_request(grid, "f1", "r0000", "r0007", 0, flexibility=2),
        ]
        snap, choice_sets, proposals = plan_batch(grid, requests)
        # Each flight alone passes its re-check against the snapshot; only
        # the joint audit sees both proposals on the one-flight pinch cell.
        monkeypatch.setattr(ArcFragment, "plan",
                            lambda flow, values: proposals[flow.request.flight_id])
        with pytest.raises(RuntimeError, match="deconflicted batch breaks capacity"):
            solve_step3(grid, snap, requests, choice_sets, proposals,
                        PARAMS, gamma=0.0)


class TestGuards:
    def test_negative_gamma_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            solve_step3(grid, OccupancyLedger(grid).snapshot(), [], {}, {},
                        PARAMS, gamma=-0.5)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        with pytest.raises(ValueError, match="finite"):
            solve_step3(grid, OccupancyLedger(grid).snapshot(), [], {}, {},
                        PARAMS, gamma=gamma)

    def test_proposal_without_request_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        plans = {"ghost": chain("ghost", ["r0000", "r0001", "r0002"])}
        with pytest.raises(ValueError, match="no matching request"):
            solve_step3(grid, OccupancyLedger(grid).snapshot(), [], {}, plans,
                        PARAMS)

    def test_duplicate_flight_ids_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        request = make_request(grid, "f0", "r0000", "r0002", 0)
        with pytest.raises(ValueError, match="duplicate flight ids"):
            solve_step3(grid, OccupancyLedger(grid).snapshot(), [request, request], {}, {},
                        PARAMS)

    def test_overloaded_pad_blames_the_choice_step(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=2,
                         ring_capacity=2)
        requests = [make_request(grid, f"f{i}", "r0000", "r0002", 0)
                    for i in range(3)]
        plans = {r.flight_id: chain(r.flight_id, ["r0000", "r0001", "r0002"])
                 for r in requests}
        with pytest.raises(RuntimeError, match="overloaded by proposals"):
            solve_step3(grid, OccupancyLedger(grid).snapshot(), requests, {},
                        plans, PARAMS)

    def test_conflicting_flight_needs_a_choice_set(self):
        grid = make_grid(1, 5, ((0, 0), (0, 4)), ring_capacity=2)
        requests = [make_request(grid, f"f{i}", "r0000", "r0004", 0)
                    for i in range(2)]
        route = ["r0000", "r0001", "r0002", "r0003", "r0004"]
        plans = {r.flight_id: chain(r.flight_id, route) for r in requests}
        with pytest.raises(ValueError, match="lacks a usable choice set"):
            solve_step3(grid, OccupancyLedger(grid).snapshot(), requests, {},
                        plans, PARAMS)
