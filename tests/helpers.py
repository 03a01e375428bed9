"""Shared builders for compact test airspaces and flights."""
from __future__ import annotations

from faircoplan.airspace import GridConfig, VertiportSpec, build_grid
from faircoplan.baseline import fixed_route, leg_dwells
from faircoplan.flights import FlightRequest


def rid(grid, row: int, col: int) -> str:
    return f"r{row * grid.config.cols + col:04d}"


def make_grid(
    rows: int,
    cols: int,
    vertiports: tuple[tuple[int, int], ...],
    horizon: int = 8,
    *,
    vp_capacity: int = 2,
    ring_capacity: int = 1,
    sector_capacity: int = 1,
    connectivity: str = "orthogonal-4",
    overrides: tuple[tuple[str, int, int], ...] = (),
):
    """A tiny grid; the first vertiport is the hub, the rest vertistops."""
    specs = tuple(
        VertiportSpec(r, c, "hub" if i == 0 else "vertistop", vp_capacity)
        for i, (r, c) in enumerate(vertiports)
    )
    return build_grid(GridConfig(
        rows=rows,
        cols=cols,
        vertiports=specs,
        connectivity=connectivity,
        horizon_steps=horizon,
        sector_capacity=sector_capacity,
        ring_capacity=ring_capacity,
        capacity_overrides=overrides,
    ))


def blocked(grid, row: int, col: int) -> tuple[tuple[str, int, int], ...]:
    """Capacity-zero overrides closing one cell for the whole horizon."""
    cell = rid(grid, row, col)
    return tuple((cell, t, 0) for t in range(grid.horizon_steps))


def make_request(
    grid,
    flight_id: str,
    origin: str,
    destination: str,
    depart: int,
    *,
    flexibility: int = 3,
    dwell: tuple[tuple[str, int], ...] = (),
    operator_id: str = "op0",
    resubmissions: int = 0,
) -> FlightRequest:
    """A request whose arrival is consistent with its shortest route."""
    probe = FlightRequest(
        flight_id=flight_id,
        operator_id=operator_id,
        origin=origin,
        destination=destination,
        requested_departure=depart,
        requested_arrival=depart + 1,
        flexibility=flexibility,
        dwell=dwell,
    )
    travel = sum(leg_dwells(grid, fixed_route(grid, origin, destination),
                            probe.min_dwell))
    return FlightRequest(
        flight_id=flight_id,
        operator_id=operator_id,
        origin=origin,
        destination=destination,
        requested_departure=depart,
        requested_arrival=depart + travel,
        flexibility=flexibility,
        dwell=dwell,
        resubmissions=resubmissions,
    )
