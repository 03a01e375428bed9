"""Classical fixed-route traffic-flow baseline.

Every flight flies the deterministic hop-shortest route between its
vertiports; the scheduler only times entries. Cumulative binaries
w[f,i,t] ("flight f has entered leg i by t") give monotone rows, ordered
entries with per-sector minimum dwell (holding longer is allowed), a
departure window, an arrival deadline at the end of the horizon, and shared
capacity on every cell the routes cross. Ground and airborne holding are the
only degrees of freedom; there is no rerouting. Flights whose windows cannot
fit the horizon are deferred, and when the timing problem itself is
infeasible, victims are removed under the same rule as the negotiated lane
(fewest resubmissions, newest id on ties) and carried over.

The objective is the same weighted delay cost the negotiated lane uses.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .blocks import add_capacity_rows
from .checker import audit_batch
from .flights import DelayCostParams, FlightPlan, FlightRequest, solve_dropping, tdc

__all__ = [
    "BaselineResult",
    "FixedRoute",
    "fixed_route",
    "leg_dwells",
    "solve_tfmp",
]


@dataclass(frozen=True)
class FixedRoute:
    """Deterministic shortest route, one resource per leg, endpoints included."""

    origin: str
    destination: str
    legs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.legs) < 2 or self.legs[0] != self.origin or self.legs[-1] != self.destination:
            raise ValueError("route legs must run from origin to destination")


def fixed_route(grid: AirspaceGrid, origin: str, destination: str) -> FixedRoute:
    """Hop-shortest route; ties broken toward the smallest resource id."""
    if origin == destination:
        raise ValueError("route endpoints must differ")
    dist = grid.hop_distances(destination)
    if origin not in dist:
        raise ValueError(f"no route from {origin} to {destination}")
    legs = [origin]
    current = origin
    while current != destination:
        current = min(
            nb for nb in grid.adjacency[current] if dist.get(nb, -1) == dist[current] - 1
        )
        legs.append(current)
    return FixedRoute(origin, destination, tuple(legs))


@dataclass
class BaselineResult:
    plans: dict[str, FlightPlan]
    deferred: tuple[str, ...]
    dropped: tuple[str, ...]
    tdc_by_flight: dict[str, float]
    total_tdc: float
    objective: float | None
    attempts: int = 0


def leg_dwells(
    grid: AirspaceGrid, route: FixedRoute, dwell: Callable[[str], int]
) -> list[int]:
    """Minimum steps on each leg before the next entry, given each sector's
    minimum dwell; a vertiport leg takes one. Their sum is the route's
    travel time from departure to landing."""
    return [dwell(rid) if grid.resource(rid).kind == "sector" else 1
            for rid in route.legs[:-1]]


def _build_tfmp(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    included: Sequence[str],
    requests: Mapping[str, FlightRequest],
    routes: Mapping[str, FixedRoute],
    params: DelayCostParams,
    now: int,
    horizon_end: int,
) -> tuple[milp.Model, Callable[[list[float]], dict[str, FlightPlan]]]:
    model = milp.Model(name="fixed-route-schedule", sense="min")
    wvars: dict[str, dict[tuple[int, int], int]] = {}
    objective: dict[int, float] = {}
    offset = 0.0

    for fid in sorted(included):
        req = requests[fid]
        route = routes[fid]
        dwells = leg_dwells(grid, route, req.min_dwell)
        d, a, eps = req.requested_departure, req.requested_arrival, req.flexibility
        last = len(route.legs) - 1

        entry_lo = [max(d, now)]
        for dwell in dwells:
            entry_lo.append(entry_lo[-1] + dwell)
        entry_lo[last] = max(entry_lo[last], a)

        flight_vars: dict[tuple[int, int], int] = {}
        for i in range(len(route.legs)):
            for t in range(entry_lo[i], horizon_end):
                flight_vars[(i, t)] = model.binary(f"w.{fid}.{i}.{t}")
        wvars[fid] = flight_vars

        def w(i: int, t: int) -> int | None:
            return flight_vars.get((i, t))

        # Entered-by is monotone in t.
        for i in range(len(route.legs)):
            for t in range(entry_lo[i] + 1, horizon_end):
                model.add({flight_vars[(i, t)]: 1.0, flight_vars[(i, t - 1)]: -1.0},
                          ">=", 0.0, label=f"mono.{fid}.{i}.{t}")

        # Next leg only after this leg's minimum dwell. Holding beyond the
        # minimum is allowed in sectors only; a vertiport cell is occupied
        # exactly one step, so ground delay moves the pad slot itself.
        for i in range(last):
            exact = grid.resource(route.legs[i]).kind == "vertiport"
            for t in range(entry_lo[i + 1], horizon_end):
                prev = w(i, t - dwells[i])
                coeffs = {flight_vars[(i + 1, t)]: 1.0}
                if prev is not None:
                    coeffs[prev] = -1.0
                    model.add(coeffs, "=" if exact else "<=", 0.0,
                              label=f"order.{fid}.{i + 1}.{t}")
                # else: w(i, t - dwell) can only be 1 there, no row needed.

        # Depart within the window, arrive within the horizon.
        depart_by = min(d + eps, horizon_end - 1 - sum(dwells))
        model.add({flight_vars[(0, depart_by)]: 1.0}, "=", 1.0, label=f"dep.{fid}")
        model.add({flight_vars[(last, horizon_end - 1)]: 1.0}, "=", 1.0,
                  label=f"arr.{fid}")

        # Weighted delay: each unentered step past the requested time costs.
        # Steps before the earliest possible entry are unavoidable and enter
        # the objective as constants (e.g. a carried-over flight whose
        # requested departure already passed).
        offset += (1.0 - params.alpha) * (entry_lo[0] - d)
        offset += params.alpha * (entry_lo[last] - a)
        for t in range(entry_lo[0], d + eps):
            col = flight_vars.get((0, t))
            if col is not None:  # absent only past the horizon, long departed
                objective[col] = objective.get(col, 0.0) - (1.0 - params.alpha)
                offset += 1.0 - params.alpha
        for t in range(entry_lo[last], horizon_end):
            col = flight_vars[(last, t)]
            objective[col] = objective.get(col, 0.0) - params.alpha
            offset += params.alpha

    # Shared capacity on every cell: presence on leg i is "entered i but not
    # i+1"; the destination is occupied only on its entry step.
    usage: dict[tuple[str, int], dict[int, float]] = {}
    for fid in sorted(included):
        route = routes[fid]
        last = len(route.legs) - 1
        flight_vars = wvars[fid]
        for (i, t), col in flight_vars.items():
            rid = route.legs[i]
            cell = usage.setdefault((rid, t), {})
            cell[col] = cell.get(col, 0.0) + 1.0
            if i < last:
                nxt = flight_vars.get((i + 1, t))
                if nxt is not None:
                    cell[nxt] = cell.get(nxt, 0.0) - 1.0
            else:
                prev = flight_vars.get((i, t - 1))
                if prev is not None:
                    cell[prev] = cell.get(prev, 0.0) - 1.0
    add_capacity_rows(model, snapshot, usage)

    model.set_objective(objective, offset=offset)
    return model, lambda x: {
        fid: _extract(requests[fid], routes[fid], flight_vars, x, horizon_end)
        for fid, flight_vars in wvars.items()}


def _extract(
    request: FlightRequest,
    route: FixedRoute,
    flight_vars: Mapping[tuple[int, int], int],
    x: list[float],
    horizon_end: int,
) -> FlightPlan:
    entries = []
    for i in range(len(route.legs)):
        entry = None
        for t in range(0, horizon_end):
            col = flight_vars.get((i, t))
            if col is not None and x[col] >= 0.5:
                entry = t
                break
        if entry is None:
            raise RuntimeError(f"{request.flight_id}: leg {i} never entered")
        entries.append(entry)
    steps = []
    for i in range(len(route.legs) - 1):
        for t in range(entries[i], entries[i + 1]):
            steps.append((t, route.legs[i]))
    steps.append((entries[-1], route.destination))
    return FlightPlan(request.flight_id, tuple(steps))


def solve_tfmp(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Sequence[FlightRequest],
    params: DelayCostParams,
    now: int = 0,
) -> BaselineResult:
    by_id: dict[str, FlightRequest] = {}
    for req in requests:
        if req.flight_id in by_id:
            raise ValueError(f"duplicate flight id {req.flight_id}")
        by_id[req.flight_id] = req
    horizon_end = now + grid.horizon_steps

    routes = {fid: fixed_route(grid, req.origin, req.destination)
              for fid, req in by_id.items()}

    deferred = []
    included = []
    for fid in sorted(by_id):
        req = by_id[fid]
        travel = sum(leg_dwells(grid, routes[fid], req.min_dwell))
        depart_by = min(req.requested_departure + req.flexibility,
                        horizon_end - 1 - travel)
        # Unlike the negotiated lane, no arrival window has to fit: the
        # flight just needs a feasible departure slot and a landing by the
        # last step of the horizon.
        fits = (max(req.requested_departure, now) <= depart_by
                and req.requested_arrival <= horizon_end - 1)
        (included if fits else deferred).append(fid)

    outcome = solve_dropping(
        included, by_id,
        lambda active: _build_tfmp(grid, snapshot, active, by_id, routes, params,
                                   now, horizon_end),
    )
    plans = outcome.plans
    tdc_by_flight: dict[str, float] = {}
    if outcome.objective is not None:
        audit_batch(grid, snapshot, by_id, plans, now, horizon_end, "fixed-route")
        tdc_by_flight = {fid: tdc(plan, by_id[fid], params) for fid, plan in plans.items()}
        expected = sum(tdc_by_flight.values())
        if abs(expected - outcome.objective) > 1e-6 * max(1.0, abs(expected)):
            raise RuntimeError(
                f"fixed-route objective {outcome.objective} disagrees with "
                f"recomputed cost {expected}"
            )

    return BaselineResult(
        plans=plans,
        deferred=tuple(deferred),
        dropped=outcome.dropped,
        tdc_by_flight=tdc_by_flight,
        total_tdc=sum(tdc_by_flight.values()),
        objective=outcome.objective,
        attempts=outcome.attempts,
    )
