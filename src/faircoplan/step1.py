"""Choice-setting MILP: the authority's first negotiation step.

For every requesting flight, jointly pick permitted (resource, timestep)
choices at vertiports and vertiport-adjacent (ring) sectors. The objective
serves flights first and maximizes choice richness second: each flight that
receives at least one departure and one arrival slot earns a weight larger
than every grant combined, and each granted cell adds one on top. Without
the service weight a congested period can reach its grant-count optimum
while starving every departure slot, which would strand the whole batch.

Capacity is budgeted jointly; departure and arrival slots must be supported
by an adjacent choice on the following and preceding step; minimum-dwell
linkage keeps offered ring runs long enough to be usable. Flights that end
up without a departure or an arrival slot are returned unassigned with all
choices stripped.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .checker import choice_violations
from .flights import ChoiceSet, FlightRequest
from .step2 import add_dwell_linkage

# Re-exported so the choice-step namespace carries its own input/output types.
__all__ = [
    "FlightRequest",
    "ChoiceSet",
    "Step1Result",
    "solve_step1",
    "choice_domains",
]


@dataclass
class Step1Result:
    choice_sets: dict[str, ChoiceSet]
    unassigned: tuple[str, ...]
    objective: float
    solve_time: float
    result: milp.SolveResult | None = None
    deferred: tuple[str, ...] = ()


def choice_domains(
    grid: AirspaceGrid, request: FlightRequest, now: int, horizon_end: int
) -> dict[str, range]:
    """Permitted-time range per zone resource from the window constraints.

    Departure slots additionally need room for an adjacent choice at t+1,
    arrival slots for one at t-1, so their ranges stop one step short of the
    period edges.
    """
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    domains: dict[str, range] = {}
    for rid in sorted(grid.zone):
        if rid == request.origin:
            lo = max(d, now)
            hi = min(d + eps, a + eps - 1, horizon_end - 2)
        elif rid == request.destination:
            lo = max(a, now + 1)
            hi = min(a + eps - 1, horizon_end - 1)
        else:
            lo = max(d, now)
            hi = min(a + eps - 1, horizon_end - 1)
        domains[rid] = range(lo, hi + 1)
    return domains


def _validate(grid: AirspaceGrid, requests: list[FlightRequest]) -> None:
    ids = [r.flight_id for r in requests]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate flight ids in request batch")
    for request in requests:
        for rid, what in ((request.origin, "origin"), (request.destination, "destination")):
            if grid.resource(rid).kind != "vertiport":
                raise ValueError(f"{request.flight_id}: {what} {rid} is not a vertiport")


def solve_step1(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: list[FlightRequest],
    now: int = 0,
    *,
    limits: milp.SolveLimits | None = None,
) -> Step1Result:
    _validate(grid, requests)
    horizon_end = now + grid.horizon_steps
    big_m = grid.horizon_steps + 1

    sets: dict[str, ChoiceSet] = {}
    unassigned: list[str] = []
    deferred: list[str] = []
    modeled: list[FlightRequest] = []
    domains: dict[str, dict[str, range]] = {}
    for request in requests:
        dom = choice_domains(grid, request, now, horizon_end)
        fits = (
            request.requested_arrival + request.flexibility <= horizon_end
            and len(dom[request.origin]) > 0
            and len(dom[request.destination]) > 0
        )
        if fits:
            modeled.append(request)
            domains[request.flight_id] = dom
        else:
            deferred.append(request.flight_id)
            unassigned.append(request.flight_id)
            sets[request.flight_id] = ChoiceSet(
                request.flight_id, request.origin, request.destination
            )

    if not modeled:
        return Step1Result(sets, tuple(unassigned), 0.0, 0.0, None, tuple(deferred))

    model = milp.Model(name="choice-setting", sense="max")

    # One service unit outweighs every possible grant, so the solve is
    # lexicographic: serve as many flights as possible, then hand out as
    # many choices as possible. Window sizes (not spare capacity) define
    # the weight so it is reproducible from the requests alone.
    weight = float(1 + sum(
        len(span) for dom in domains.values() for span in dom.values()
    ))

    def vname(fid: str, rid: str, t: int) -> str:
        return f"c.{fid}.{rid}.{t}"

    # Choice variables by flight, then by (resource, timestep) cell.
    live: dict[str, dict[tuple[str, int], str]] = {}
    for request in modeled:
        fid = request.flight_id
        cells = live[fid] = {}
        for rid, span in domains[fid].items():
            for t in span:
                if snapshot.remaining(rid, t) >= 1:
                    cells[(rid, t)] = model.binary(vname(fid, rid, t))

    def var(fid: str, rid: str, t: int) -> str | None:
        return live[fid].get((rid, t))

    # Joint capacity per zone cell, only where it can actually bind.
    by_cell: dict[tuple[str, int], list[str]] = {}
    for cells in live.values():
        for cell, name in cells.items():
            by_cell.setdefault(cell, []).append(name)
    for (rid, t), names in sorted(by_cell.items()):
        rem = snapshot.remaining(rid, t)
        if len(names) > rem:
            model.add({n: 1.0 for n in names}, "<=", rem, label=f"cap.{rid}.{t}")

    for request in modeled:
        fid = request.flight_id
        dom = domains[fid]
        s, e = request.origin, request.destination
        # Departure support: a slot at t needs an adjacent choice at t+1.
        for t in dom[s]:
            name = var(fid, s, t)
            if name is None:
                continue
            coeffs = {name: -float(big_m)}
            for nb in grid.adjacency[s]:
                nb_name = var(fid, nb, t + 1)
                if nb_name is not None:
                    coeffs[nb_name] = coeffs.get(nb_name, 0.0) + 1.0
            model.add(coeffs, ">=", 1.0 - big_m, label=f"dep.{fid}.{t}")
        # Arrival support: a slot at t needs an adjacent choice at t-1.
        for t in dom[e]:
            name = var(fid, e, t)
            if name is None:
                continue
            coeffs = {name: -float(big_m)}
            for nb in grid.adjacency[e]:
                nb_name = var(fid, nb, t - 1)
                if nb_name is not None:
                    coeffs[nb_name] = coeffs.get(nb_name, 0.0) + 1.0
            model.add(coeffs, ">=", 1.0 - big_m, label=f"arr.{fid}.{t}")
        # Dwell linkage on ring sectors: an offered step continues while the
        # trailing window holds fewer than l offered steps.
        for rid in sorted(grid.ring):
            span = dom[rid]
            add_dwell_linkage(model, live[fid], request, rid, span.start, span.stop - 1,
                              horizon_end, big_m, aux_prefix=f"A.{fid}.{rid}")

    served: dict[str, str] = {}
    for request in modeled:
        fid = request.flight_id
        dom = domains[fid]
        dep_vars = [n for t in dom[request.origin]
                    if (n := var(fid, request.origin, t)) is not None]
        arr_vars = [n for t in dom[request.destination]
                    if (n := var(fid, request.destination, t)) is not None]
        if not dep_vars or not arr_vars:
            continue
        y = model.binary(f"y.{fid}")
        served[fid] = y
        model.add({y: -1.0, **{n: 1.0 for n in dep_vars}}, ">=", 0.0,
                  label=f"servedep.{fid}")
        model.add({y: -1.0, **{n: 1.0 for n in arr_vars}}, ">=", 0.0,
                  label=f"servearr.{fid}")

    obj_coeffs = {name: 1.0 for cells in live.values() for name in cells.values()}
    for y in served.values():
        obj_coeffs[y] = weight
    model.set_objective(obj_coeffs)

    result = milp.solve(model, limits=limits)
    if result.status == milp.INFEASIBLE:
        raise RuntimeError(
            "choice-setting model infeasible; the all-zero assignment is always "
            "feasible, so this is a construction bug"
        )
    if result.status == milp.ERROR:
        raise RuntimeError(f"choice-setting solve failed: {result.detail}")

    # The reported objective is the model's (service weight plus granted
    # choices, before stripping unassigned flights), which is what the
    # enumeration oracle optimizes too.
    objective = float(result.objective or 0.0)
    for request in modeled:
        fid = request.flight_id
        chosen = frozenset(
            cell for cell, name in live[fid].items()
            if result.values.get(name, 0.0) >= 0.5
        )
        chset = ChoiceSet(fid, request.origin, request.destination, chosen)
        if not chset.departure_slots or not chset.arrival_slots:
            unassigned.append(fid)
            chset = chset.emptied()
        sets[fid] = chset

    problems = choice_violations(
        grid, snapshot, requests, sets, now, horizon_end
    )
    if problems:
        raise RuntimeError(
            "choice-setting solution failed re-check: " + "; ".join(problems[:5])
        )
    return Step1Result(
        sets, tuple(unassigned), objective, result.wall_time, result, tuple(deferred)
    )
