"""Grid construction, capacities, and the occupancy ledger."""
from __future__ import annotations

import pytest

from faircoplan.airspace import (
    CapacityViolation,
    ConfigError,
    FlightPlanRecord,
    GridConfig,
    OccupancyLedger,
    VertiportSpec,
    build_grid,
    resource_id_for,
)
from faircoplan.flights import FlightPlan

from helpers import blocked, make_grid, rid


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


class TestLedger:
    def test_file_plan_updates_occupancy(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        ledger.file_plan(FlightPlanRecord("f0", "op0", corridor_plan(), 0))
        assert ledger.occupancy("r0001", 1) == 1
        assert ledger.occupancy("r0001", 0) == 0
        assert ledger.remaining("r0001", 1) == 0
        assert ledger.snapshot().remaining("r0001", 1) == 0

    def test_overfiling_raises_before_mutation(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))  # ring capacity 1
        ledger = OccupancyLedger(grid)
        ledger.file_plan(FlightPlanRecord("f0", "op0", corridor_plan("f0"), 0))
        before = ledger.snapshot().counts
        with pytest.raises(CapacityViolation, match="r0001"):
            ledger.file_plan(
                FlightPlanRecord("f1", "op1", corridor_plan("f1"), 0))
        assert ledger.snapshot().counts == before

    def test_snapshot_is_isolated_from_later_filings(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        ledger = OccupancyLedger(grid)
        snap = ledger.snapshot()
        ledger.file_plan(FlightPlanRecord("f0", "op0", corridor_plan(), 0))
        assert snap.occupancy("r0001", 1) == 0
        assert ledger.occupancy("r0001", 1) == 1

    def test_recompute_counts_matches_index(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=3)
        ledger = OccupancyLedger(grid)
        ledger.file_plan(FlightPlanRecord("f0", "op0", corridor_plan("f0"), 0))
        ledger.file_plan(
            FlightPlanRecord("f1", "op1", corridor_plan("f1", 2), 0))
        assert ledger.recompute_counts() == ledger.snapshot().counts

    def test_with_plans_overlays_without_mutating(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        overlay = snap.with_plans([corridor_plan()])
        assert overlay.occupancy("r0001", 1) == 1
        assert snap.occupancy("r0001", 1) == 0

    def test_remaining_is_clamped_at_zero(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        snap = OccupancyLedger(grid).snapshot()
        doubled = snap.with_plans([corridor_plan("f0"), corridor_plan("f1")])
        assert doubled.occupancy("r0001", 1) == 2
        assert doubled.remaining("r0001", 1) == 0

    def test_unknown_resource_rejected(self):
        grid = make_grid(1, 3, ((0, 0), (0, 2)))
        with pytest.raises(KeyError):
            OccupancyLedger(grid).remaining("r9999", 0)

    def test_remaining_matches_capacity_minus_occupancy_everywhere(self):
        # Overrides raise, lower and close cells; the overlay's two plans
        # overfill r0001 at t=1, which is closed.
        overrides = (("r0001", 1, 0), ("r0001", 3, 3), ("r0000", 5, 0),
                     ("r0002", 0, 5))
        grid = make_grid(1, 3, ((0, 0), (0, 2)), vp_capacity=3,
                         overrides=overrides)
        ledger = OccupancyLedger(grid)
        ledger.file_plan(FlightPlanRecord("f0", "op0", corridor_plan("f0", 2), 0))
        snap = ledger.snapshot()
        overlay = snap.with_plans([corridor_plan("f1"), corridor_plan("f2")])
        for view in (snap, overlay, snap):  # the base snapshot is read twice
            for res in grid.resources:
                for t in range(grid.horizon_steps):
                    want = max(grid.capacity(res.resource_id, t)
                               - view.occupancy(res.resource_id, t), 0)
                    assert view.remaining(res.resource_id, t) == want
        assert snap.remaining("r0001", 3) == 2 and overlay.remaining("r0001", 1) == 0
        assert snap.remaining("r0002", 2) == 3 and overlay.remaining("r0002", 2) == 1
