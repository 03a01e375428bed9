"""Grid construction, capacities, the minimum-stay rule, and the occupancy
ledger."""
from __future__ import annotations

from collections import Counter

import pytest

from faircoplan.airspace import (
    CapacityViolation,
    ConfigError,
    GridConfig,
    OccupancyLedger,
    VertiportSpec,
    build_grid,
    resource_id_for,
)
from faircoplan.baseline import fixed_route, leg_dwells, solve_tfmp
from faircoplan.checker import plan_violations
from faircoplan.flights import DelayCostParams, FlightPlan
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2

from helpers import blocked, make_grid, make_request, rid


class TestGridConstruction:
    def test_corridor_kinds_ring_and_zone(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        assert grid.resource("r0000").kind == "vertiport"
        assert grid.resource("r0001").kind == "sector"
        assert grid.resource("r0002").kind == "vertiport"
        assert grid.ring == frozenset({"r0001"})
        assert grid.zone == frozenset({"r0000", "r0001", "r0002"})
        assert grid.vertiport_ids == ("r0000", "r0002")
        assert grid.hub_ids == ("r0000",)

    def test_resource_id_scheme_is_row_major(self):
        assert resource_id_for(8, 2, 5) == "r0021"
        assert resource_id_for(3, 0, 0) == "r0000"
        grid = make_grid(2, 3, ((0, 0), (1, 2)))
        assert rid(grid, 1, 2) == "r0005"
        assert grid.resource("r0005").cell == (1, 2)

    def test_capacities_by_kind(self):
        grid = make_grid(1, 5, ((0, 0), (0, 4)), vp_capacity=3,
                         ring_capacity=2, sector_capacity=1)
        assert grid.capacity("r0000", 0) == 3  # vertiport ops
        assert grid.capacity("r0001", 0) == 2  # ring
        assert grid.capacity("r0002", 0) == 1  # plain sector

    def test_adjacent_vertiports_rejected(self):
        with pytest.raises(ConfigError, match="adjacent"):
            make_grid(1, 4, ((0, 0), (0, 1)))

    def test_diagonal_connectivity_gives_eight_neighbours(self):
        grid = make_grid(3, 3, ((0, 0), (2, 2)), connectivity="diagonal-8")
        center = rid(grid, 1, 1)
        assert len(grid.adjacency[center]) == 8

    def test_orthogonal_connectivity_gives_four_neighbours(self):
        grid = make_grid(3, 3, ((0, 0), (2, 2)))
        assert len(grid.adjacency[rid(grid, 1, 1)]) == 4
        assert len(grid.adjacency[rid(grid, 0, 1)]) == 3

    def test_capacity_override_applies_only_at_its_step(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)),
                         overrides=(("r0001", 2, 0),))
        assert grid.capacity("r0001", 2) == 0
        assert grid.capacity("r0001", 1) == 1

    def test_blocked_helper_closes_whole_horizon(self):
        probe = make_grid(2, 4, ((0, 0), (1, 3)))
        grid = make_grid(2, 4, ((0, 0), (1, 3)),
                         overrides=blocked(probe, 0, 2))
        assert all(grid.capacity("r0002", t) == 0
                   for t in range(grid.horizon_steps))

    def test_override_on_unknown_resource_rejected(self):
        with pytest.raises(ConfigError):
            make_grid(1, 3, ((0, 0), (0, 2)), overrides=(("r9999", 0, 1),))

    def test_duplicate_override_rejected(self):
        # Kept as a dict, the second entry would silently reopen the closure.
        with pytest.raises(ConfigError, match=r"two capacity overrides for \(r0001, t=2\)"):
            make_grid(1, 3, ((0, 0), (0, 2)), overrides=(("r0001", 2, 0), ("r0001", 2, 5)))
        grid = make_grid(1, 3, ((0, 0), (0, 2)), overrides=(("r0001", 2, 0), ("r0001", 3, 5)))
        assert (grid.capacity("r0001", 2), grid.capacity("r0001", 3)) == (0, 5)

    def test_hop_distances(self):
        grid = make_grid(2, 3, ((0, 0), (1, 2)))
        dist = grid.hop_distances(rid(grid, 0, 0))
        assert dist[rid(grid, 0, 0)] == 0
        assert dist[rid(grid, 1, 2)] == 3
        assert dist[rid(grid, 0, 2)] == 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GridConfig(rows=0, cols=3, vertiports=())
        with pytest.raises(ConfigError):
            GridConfig(rows=2, cols=2, vertiports=(), connectivity="hex")
        with pytest.raises(ConfigError):
            GridConfig(rows=2, cols=2, vertiports=(
                VertiportSpec(5, 5, "hub", 1),))
        with pytest.raises(ConfigError):
            GridConfig(rows=2, cols=2, vertiports=(
                VertiportSpec(0, 0, "hub", 1),
                VertiportSpec(0, 0, "vertistop", 1)))
        with pytest.raises(ConfigError):
            VertiportSpec(0, 0, "heliport", 1)
        with pytest.raises(ConfigError):
            VertiportSpec(0, 0, "hub", 0)


def corridor_plan(fid: str = "f0", depart: int = 0) -> FlightPlan:
    return FlightPlan(fid, ((depart, "r0000"), (depart + 1, "r0001"),
                            (depart + 2, "r0002")))


class TestMinStay:
    """One request lists a dwell on its origin vertiport and on a plain
    (non-ring) sector of its route, on a 1 x 7 corridor: vertiports r0000
    and r0006, ring sectors r0001 and r0005, plain sectors r0002-r0004."""

    @pytest.fixture()
    def corridor(self):
        grid = make_grid(1, 7, ((0, 0), (0, 6)), horizon=14)
        request = make_request(grid, "f0", "r0000", "r0006", 1,
                               dwell=(("r0000", 3), ("r0003", 2)))
        return grid, request

    def test_a_sector_holds_its_dwell_any_other_resource_one_step(self, corridor):
        grid, _ = corridor
        assert grid.ring == {"r0001", "r0005"}
        assert [grid.min_stay(r, 3) for r in ("r0000", "r0001", "r0003", "r0006")] == [1, 3, 3, 1]
        with pytest.raises(KeyError, match="unknown resource"):
            grid.min_stay("r9999", 2)

    def test_planners_checker_and_leg_dwells_agree_at_the_edges(self, corridor):
        # The vertiport dwell is ignored and the plain-sector dwell enforced:
        # one step at the origin, two in r0003, on time at 1 + 7.
        grid, request = corridor
        route = fixed_route(grid, "r0000", "r0006")
        assert leg_dwells(grid, route, request.min_dwell) == [1, 1, 1, 2, 1, 1]
        assert request.requested_arrival == 8
        want = FlightPlan("f0", ((1, "r0000"), (2, "r0001"), (3, "r0002"), (4, "r0003"),
                                 (5, "r0003"), (6, "r0004"), (7, "r0005"), (8, "r0006")))
        snap = OccupancyLedger(grid).snapshot()
        params = DelayCostParams(alpha=0.3)
        choices = solve_step1(grid, snap, [request], 0).choice_sets["f0"]
        assert solve_step2(grid, snap, request, choices, params).plan == want
        assert solve_tfmp(grid, snap, [request], params).plans == {"f0": want}
        assert plan_violations(grid, snap, request, want, 0) == []
        # One step in r0003, the step made up in r0002: only that run is short.
        short = FlightPlan("f0", ((1, "r0000"), (2, "r0001"), (3, "r0002"), (4, "r0002"),
                                  (5, "r0003"), (6, "r0004"), (7, "r0005"), (8, "r0006")))
        assert plan_violations(grid, snap, request, short, 0) == [
            "f0: run of 1 in r0003 at t=5 below dwell 2"]


class TestLedger:
    def test_file_plan_updates_occupancy(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        plan = corridor_plan()
        ledger.file_plan(plan)
        snap = ledger.snapshot()
        assert snap.remaining("r0001", 1) == 0
        assert snap.remaining("r0001", 0) == 1
        assert snap.remaining("r0000", 0) == 1  # pad capacity 2

    def test_overfiling_raises_before_mutation(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))  # ring capacity 1
        ledger = OccupancyLedger(grid)
        ledger.file_plan(corridor_plan("f0"))
        with pytest.raises(CapacityViolation, match="r0001"):
            ledger.file_plan(corridor_plan("f1"))
        # f1's pad steps fit; none of them was counted before the refusal,
        # and f0 stays counted.
        snap = ledger.snapshot()
        assert snap.remaining("r0000", 0) == 1 and snap.remaining("r0002", 2) == 1
        assert snap.remaining("r0001", 1) == 0

    def test_snapshot_is_isolated_from_later_filings(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        snap = ledger.snapshot()
        ledger.file_plan(corridor_plan())
        assert snap.remaining("r0001", 1) == 1
        assert ledger.snapshot().remaining("r0001", 1) == 0

    def test_with_plans_overlays_without_mutating(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        overlay = snap.with_plans([corridor_plan()])
        assert overlay.remaining("r0001", 1) == 0
        assert snap.remaining("r0001", 1) == 1

    def test_remaining_is_clamped_at_zero(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        doubled = snap.with_plans([corridor_plan("f0"), corridor_plan("f1")])
        assert doubled.remaining("r0001", 1) == 0  # capacity 1, two plans

    def test_unknown_resource_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        with pytest.raises(KeyError):
            OccupancyLedger(grid).snapshot().remaining("r9999", 0)

    def test_remaining_matches_capacity_minus_occupancy_everywhere(self):
        # Overrides raise, lower and close cells; the overlay's two plans
        # overfill r0001 at t=1, which is closed.
        overrides = (("r0001", 1, 0), ("r0001", 3, 3), ("r0000", 5, 0),
                     ("r0002", 0, 5))
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=3,
                         overrides=overrides)
        ledger = OccupancyLedger(grid)
        filed = corridor_plan("f0", 2)
        ledger.file_plan(filed)
        snap = ledger.snapshot()
        extra = [corridor_plan("f1"), corridor_plan("f2")]
        overlay = snap.with_plans(extra)

        def occupancy(plans):
            return Counter((rid, t) for plan in plans for t, rid in plan.steps)

        views = ((snap, occupancy([filed])), (overlay, occupancy([filed, *extra])),
                 (snap, occupancy([filed])))  # the base snapshot is read twice
        for view, counts in views:
            for res in grid.resources:
                for t in range(grid.horizon_steps):
                    want = max(grid.capacity(res.resource_id, t)
                               - counts[(res.resource_id, t)], 0)
                    assert view.remaining(res.resource_id, t) == want
        assert snap.remaining("r0001", 3) == 2 and overlay.remaining("r0001", 1) == 0
        assert snap.remaining("r0002", 2) == 3 and overlay.remaining("r0002", 2) == 1

    def test_remaining_table_equals_remaining_cell_by_cell(self):
        # A closed cell (r0001 at t=1) that two plans overfill must clip to 0,
        # and overrides inside the period (t = 1..8) and outside it (r0002
        # at t=0 and r0000 at t=9) must land cell by cell.
        overrides = (("r0001", 1, 0), ("r0001", 3, 3), ("r0000", 5, 0), ("r0002", 0, 5),
                     ("r0000", 9, 0))
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=3, overrides=overrides)
        snap = OccupancyLedger(grid).snapshot().with_plans(
            [corridor_plan("f0"), corridor_plan("f1"), corridor_plan("f2", 2)])
        table = snap.remaining_table(1)
        assert table.shape == (3, grid.horizon_steps)
        assert [grid.row(rid) for rid in grid.resource_ids] == [0, 1, 2]
        assert table.tolist() == [[snap.remaining(rid, t) for t in range(1, 9)]
                                  for rid in grid.resource_ids]
        # r0001 at 1: closed, two plans; r0000 at 5: closed; r0001 at 3: 3 - f2.
        assert table[1, 0] == 0 and table[0, 4] == 0 and table[1, 2] == 2
        # Outside the period: r0002 is widened to 5 at t=0 and r0000 closed
        # at t=9, and the table holds neither.
        assert snap.remaining("r0002", 0) == 5 and snap.remaining("r0000", 9) == 0
        assert table[2].tolist() == [3, 1, 3, 2, 3, 3, 3, 3] and table[0, 7] == 3
        # Read once per period and kept, read-only; another period has its own.
        assert snap.remaining_table(1) is table and not table.flags.writeable
        assert snap.remaining_table(2)[0, 7] == 0
