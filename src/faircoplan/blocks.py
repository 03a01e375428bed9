"""Time-expanded model blocks: one flight's encoding in the (resource, t)
grid, shared by every planner MILP.

``cell_domain`` gives the cells one flight's trajectory may use; step 2
searches it and ``presence_block`` writes it as binary presence variables
in a model fragment of its own, a plain ``milp.Model`` holding the flight's
columns, rows and delay cost. Step 3 builds each flight's fragment once per
stage call and appends the active flights' fragments into each joint
deconfliction MILP with ``Model.append``; the block's columns then sit at
the offset that returns. ``add_dwell_linkage`` holds runs at their minimum
dwell, over step 1's ring choices and over presence blocks, and
``add_capacity_rows`` caps joint use of a cell in steps 1 and 3 and the
fixed-route baseline. ``extract_plan`` reads a solved presence block back
as a plan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest

__all__ = [
    "CellDomain",
    "PresenceBlock",
    "add_capacity_rows",
    "add_dwell_linkage",
    "cell_domain",
    "extract_plan",
    "presence_block",
]


@dataclass
class PresenceBlock:
    """One flight's presence columns, by cell, in its model fragment.

    ``vars`` holds columns of ``fragment``; in a model the fragment is
    appended to, they sit at the offset ``Model.append`` returns.
    """

    request: FlightRequest
    fragment: milp.Model
    vars: dict[tuple[str, int], int]
    departure_slots: tuple[int, ...]
    arrival_slots: tuple[int, ...]


@dataclass(frozen=True)
class CellDomain:
    """The (resource, t) cells one flight's trajectory may use.

    ``times`` maps each usable resource to its usable steps in order; the
    origin's are the departure slots, the destination's the arrival slots.
    """

    times: dict[str, tuple[int, ...]]
    departure_slots: tuple[int, ...]
    arrival_slots: tuple[int, ...]


def add_dwell_linkage(
    model: milp.Model,
    presence: Mapping[tuple[str, int], int],
    request: FlightRequest,
    rid: str,
    first: int,
    last: int,
    horizon_end: int,
) -> None:
    """Minimum dwell at ``rid``: a run may end at step t only once the
    trailing window of ``request.min_dwell(rid)`` steps is full.

    ``presence`` maps (resource, t) to the column of the binary that marks
    the flight (or its offered choice) in that cell; a missing key is a cell
    it cannot use. For each t from first + 1 to min(last + 1, horizon_end -
    1) that follows a usable step, an auxiliary binary ``dw.{fid}.{rid}.{t}``
    is 1 exactly when the window is not yet full, and then the run must go
    on at t. The window has ``dwell`` terms, so ``dwell`` is a tight
    constant for both indicator rows. The auxiliaries are declared, then
    the rows added, each in one call.
    """
    fid = request.flight_id
    dwell = request.min_dwell(rid)
    if dwell <= 1:
        return
    steps = [t for t in range(first + 1, min(last + 1, horizon_end - 1) + 1)
             if (rid, t - 1) in presence]
    aux = model.binaries([f"dw.{fid}.{rid}.{t}" for t in steps])
    ends: list[int] = []
    indices: list[int] = []
    coeffs: list[float] = []
    labels: list[str] = []
    for t in steps:
        window = [w for tt in range(t - dwell, t) if (w := presence.get((rid, tt))) is not None]
        indicator = [aux, *window]
        weights = [float(dwell)] + [1.0] * len(window)
        run = [presence[(rid, t - 1)], aux]
        cur = presence.get((rid, t))
        if cur is not None:
            run.append(cur)
        for row in (indicator, indicator, run):
            indices += row
            ends.append(len(indices))
        coeffs += weights + weights + [-1.0, -1.0, 1.0][:len(run)]
        labels += (f"dwlo.{fid}.{rid}.{t}", f"dwhi.{fid}.{rid}.{t}", f"dwrun.{fid}.{rid}.{t}")
        aux += 1
    model.add_rows(ends, indices, coeffs, [">=", "<=", ">="] * len(steps),
                   [float(dwell), float(2 * dwell - 1), -1.0] * len(steps), labels)


def add_capacity_rows(
    model: milp.Model,
    snapshot: OccupancySnapshot,
    usage: Mapping[tuple[str, int], Mapping[int, float]],
) -> None:
    """Joint capacity: for each (resource, t) cell in sorted order, the row
    ``cap.{rid}.{t}``, the sum of ``usage[cell]`` at most the snapshot's
    remaining capacity. A row is added only where more coefficients are
    positive than the cell has remaining capacity, since elsewhere it
    cannot bind.
    """
    ends: list[int] = []
    indices: list[int] = []
    coeffs: list[float] = []
    rhs: list[float] = []
    labels: list[str] = []
    for (rid, t), row in sorted(usage.items()):
        remaining = snapshot.remaining(rid, t)
        if sum(1 for c in row.values() if c > 0) > remaining:
            indices += row
            coeffs += row.values()
            ends.append(len(indices))
            rhs.append(float(remaining))
            labels.append(f"cap.{rid}.{t}")
    model.add_rows(ends, indices, coeffs, ["<="] * len(ends), rhs, labels)


def cell_domain(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    now: int,
    horizon_end: int,
) -> CellDomain | None:
    """The cells one flight's trajectory may use; None if it cannot fly.

    Departure and arrival slots are the granted ones inside the request's
    windows and the period, trimmed to pairs far enough apart for the hop
    distance between origin and destination. Every other resource keeps the
    steps inside its reachability cone (reachable from the first departure
    slot, able to reach the last arrival slot); zone cells are further gated
    by the choice set, en-route cells by remaining capacity. The cones only
    cut cells no plan can use, so the optimum is unchanged.
    """
    s, e = request.origin, request.destination
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility

    dist_s = grid.hop_distances(s)
    dist_e = grid.hop_distances(e)
    if e not in dist_s:
        return None
    sep = dist_s[e]

    dep_slots = [
        t for t in choices.departure_slots
        if max(d, now) <= t <= min(d + eps, horizon_end - 2)
    ]
    arr_slots = [
        t for t in choices.arrival_slots
        if max(a, now + 1) <= t <= horizon_end - 1
    ]
    if not dep_slots or not arr_slots:
        return None
    last_arr = max(arr_slots)
    dep_slots = [t for t in dep_slots if t + sep <= last_arr]
    if not dep_slots:
        return None
    first_dep = min(dep_slots)
    arr_slots = [t for t in arr_slots if t >= first_dep + sep]
    if not arr_slots:
        return None
    last_arr = max(arr_slots)

    times: dict[str, tuple[int, ...]] = {s: tuple(dep_slots), e: tuple(arr_slots)}
    choice_times: dict[str, set[int]] = {}
    for rid, t in choices.choices:
        choice_times.setdefault(rid, set()).add(t)
    for res in grid.resources:
        rid = res.resource_id
        if rid in (s, e) or rid not in dist_s or rid not in dist_e:
            continue
        lo = max(now, first_dep + dist_s[rid])
        hi = min(horizon_end - 1, last_arr - dist_e[rid])
        if grid.is_zone(rid):
            cells = sorted(t for t in choice_times.get(rid, ()) if lo <= t <= hi)
        else:
            cells = [t for t in range(lo, hi + 1) if snapshot.remaining(rid, t) >= 1]
        if cells:
            times[rid] = tuple(cells)
    return CellDomain(times, tuple(dep_slots), tuple(arr_slots))


def presence_block(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    params: DelayCostParams,
    now: int,
    horizon_end: int,
    prefix: str,
) -> PresenceBlock | None:
    """One flight's trajectory constraints over its ``cell_domain``, as a
    model fragment whose objective is the flight's delay cost; None if it
    cannot fly.

    The columns are the presence binaries ``{prefix}.{rid}.{t}`` by
    resource, then the dwell auxiliaries; each group of rows is written in
    one call.
    """
    domain = cell_domain(grid, snapshot, request, choices, now, horizon_end)
    if domain is None:
        return None
    fid = request.flight_id
    s, e = request.origin, request.destination
    d, a = request.requested_departure, request.requested_arrival
    by_resource = domain.times
    dep_slots, arr_slots = domain.departure_slots, domain.arrival_slots

    fragment = milp.Model(name=prefix, sense="min")
    cells = [(rid, t) for rid in sorted(by_resource) for t in by_resource[rid]]
    fragment.binaries([f"{prefix}.{rid}.{t}" for rid, t in cells])
    uvars = {cell: col for col, cell in enumerate(cells)}

    # Rows are collected here and written in one call per group.
    ends: list[int] = []
    indices: list[int] = []
    coeffs: list[float] = []
    relations: list[str] = []
    rhs: list[float] = []
    labels: list[str] = []

    def row(columns: list[int], weights: list[float], relation: str, bound: float,
            label: str) -> None:
        indices.extend(columns)
        coeffs.extend(weights)
        ends.append(len(indices))
        relations.append(relation)
        rhs.append(bound)
        labels.append(label)

    def write() -> None:
        fragment.add_rows(ends, indices, coeffs, relations, rhs, labels)
        for rows in (ends, indices, coeffs, relations, rhs, labels):
            rows.clear()

    # Exactly one departure slot and one arrival slot.
    row([uvars[(s, t)] for t in dep_slots], [1.0] * len(dep_slots), "=", 1.0, f"dep1.{fid}")
    row([uvars[(e, t)] for t in arr_slots], [1.0] * len(arr_slots), "=", 1.0, f"arr1.{fid}")

    # Presence must extend presence in the same or an adjacent resource one
    # step earlier, except at the origin.
    for rid in sorted(by_resource):
        if rid == s:
            continue
        around = (*grid.adjacency[rid], rid)
        for t in by_resource[rid]:
            earlier = [col for nb in around if (col := uvars.get((nb, t - 1))) is not None]
            row([uvars[(rid, t)], *earlier], [1.0] + [-1.0] * len(earlier), "<=", 0.0,
                f"link.{fid}.{rid}.{t}")

    # Arrival ends the flight: no presence anywhere else after the chosen
    # arrival slot. A lone flight only loses cost-free idling to this, but in
    # the joint deconfliction model the path length feeds the fairness term,
    # so idling must not be able to pad it.
    for rid in sorted(by_resource):
        if rid == e:
            continue
        for t in by_resource[rid]:
            before = [uvars[(e, ta)] for ta in arr_slots if ta < t]
            if before:
                row([uvars[(rid, t)], *before], [1.0] * (1 + len(before)), "<=", 1.0,
                    f"end.{fid}.{rid}.{t}")
    write()

    # Minimum dwell per sector.
    for rid in sorted(by_resource):
        if grid.resource(rid).kind == "sector":
            times = by_resource[rid]
            add_dwell_linkage(fragment, uvars, request, rid, times[0], times[-1],
                              horizon_end)

    # At most one resource per timestep.
    by_time: dict[int, list[int]] = {}
    for (rid, t), col in uvars.items():
        by_time.setdefault(t, []).append(col)
    for t, cols in sorted(by_time.items()):
        if len(cols) > 1:
            row(cols, [1.0] * len(cols), "<=", 1.0, f"one.{fid}.{t}")
    write()

    alpha = params.alpha
    tdc_coeffs: dict[int, float] = {}
    for t in dep_slots:
        tdc_coeffs[uvars[(s, t)]] = (1.0 - alpha) * t
    for t in arr_slots:
        tdc_coeffs[uvars[(e, t)]] = tdc_coeffs.get(uvars[(e, t)], 0.0) + alpha * t
    fragment.set_objective(tdc_coeffs, offset=-(alpha * a + (1.0 - alpha) * d))

    return PresenceBlock(
        request=request,
        fragment=fragment,
        vars=uvars,
        departure_slots=dep_slots,
        arrival_slots=arr_slots,
    )


def extract_plan(block: PresenceBlock, x: list[float]) -> FlightPlan:
    """Read the chosen presences in the solved point ``x`` of the block's
    fragment (by column) as the plan's steps.

    ``arr1`` picks one destination cell and the ``end`` rows forbid presence
    anywhere else after it, so nothing follows the arrival slot.
    """
    request = block.request
    if not any(x[block.vars[(request.destination, t)]] >= 0.5
               for t in block.arrival_slots):
        raise RuntimeError(f"{request.flight_id}: no arrival slot chosen")
    steps = sorted((t, rid) for (rid, t), col in block.vars.items() if x[col] >= 0.5)
    return FlightPlan(request.flight_id, tuple(steps))
