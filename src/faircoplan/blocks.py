"""Time-expanded model blocks: one flight's encoding in the (resource, t)
grid, shared by every planner MILP.

``cell_domain`` gives the cells one flight's trajectory may use;
``state_graph`` holds the moves over them, which step 2 walks, and
``presence_block`` writes them as binary presence variables in a model
fragment of its own, a plain ``milp.Model`` holding the flight's columns,
rows and delay cost. Step 3 builds each flight's fragment once per
stage call and appends the active flights' fragments into each joint
deconfliction MILP with ``Model.append``; the block's columns then sit at
the offset that returns. ``dwell_linkage`` holds runs at their minimum
dwell, over step 1's ring choices and over presence blocks; it handles many
runs in one call and returns their rows as ``Rows``, which step 1 merges
flight by flight with its slot-support rows. ``add_capacity_rows`` caps
joint use of a cell in step 3 and the fixed-route baseline; step 1 writes
its capacity rows from its own per-period tables. ``extract_plan`` reads a
solved presence block back as a plan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest

__all__ = [
    "CellDomain",
    "PresenceBlock",
    "add_capacity_rows",
    "Rows",
    "cell_domain",
    "dwell_linkage",
    "extract_plan",
    "presence_block",
    "state_graph",
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
    arrival_slots: tuple[int, ...]


@dataclass(frozen=True)
class CellDomain:
    """The (resource, t) cells one flight's trajectory may use.

    ``times`` maps each usable resource to its usable steps in order; the
    origin's are the departure slots, the destination's the arrival slots.
    """

    times: dict[str, tuple[int, ...]]


class Rows(NamedTuple):
    """Rows for ``Model.add_rows``, by row length instead of CSR end, with
    the owner of each row (a run, a flight) so that row blocks can be merged."""

    owner: np.ndarray
    lengths: np.ndarray
    indices: np.ndarray
    coeffs: np.ndarray
    relations: list[str]
    rhs: np.ndarray
    labels: list[str]

    def add_to(self, model: milp.Model) -> None:
        model.add_rows(np.cumsum(self.lengths).tolist(), self.indices.tolist(),
                       self.coeffs.tolist(), self.relations, self.rhs.tolist(), self.labels)

    @staticmethod
    def by_owner(blocks: Sequence[Rows]) -> Rows:
        """The rows of ``blocks`` as one block, owner by owner in ascending
        order; one owner's rows keep their order, block by block."""
        owner = np.concatenate([block.owner for block in blocks])
        lengths = np.concatenate([block.lengths for block in blocks])
        order = np.argsort(owner, kind="stable")
        moved = lengths[order]
        # Merged entry k is entry take[k] of the blocks' entries.
        take = np.arange(moved.sum()) + np.repeat(
            (np.cumsum(lengths) - lengths)[order] - (np.cumsum(moved) - moved), moved)
        relations = [relation for block in blocks for relation in block.relations]
        labels = [label for block in blocks for label in block.labels]
        return Rows(owner[order], moved,
                    np.concatenate([block.indices for block in blocks])[take],
                    np.concatenate([block.coeffs for block in blocks])[take],
                    [relations[i] for i in order.tolist()],
                    np.concatenate([block.rhs for block in blocks])[order],
                    [labels[i] for i in order.tolist()])


def dwell_linkage(
    model: milp.Model,
    runs: Sequence[tuple[FlightRequest, str]],
    start: int,
    columns: np.ndarray,
    horizon_end: int,
) -> Rows:
    """Minimum dwell, for each run k, a (request, resource) pair: a run of
    steps in the resource may end at step t only once the trailing window of
    ``request.min_dwell(resource)`` steps is full.

    ``columns[k, i]`` is the column of the binary that marks run k's flight
    (or its offered choice) in its resource at step ``start + i``, or -1 at
    a step it cannot use; steps outside the array are unusable too. For each
    t up to ``horizon_end - 1`` that follows a usable step, an auxiliary
    binary ``dw.{fid}.{rid}.{t}`` is 1 exactly when the window is not yet
    full, and then the run must go on at t. The window has ``dwell`` terms,
    so ``dwell`` is a tight constant for both indicator rows. A run with a
    dwell of 1 needs nothing.

    The auxiliaries are declared in ``model`` in one call, run by run and
    step by step. Their rows, ``dwlo``, ``dwhi`` and ``dwrun`` for each step
    in the same order, are returned, each owned by its run.
    """
    dwell = np.array([request.min_dwell(rid) for request, rid in runs], dtype=np.int64)
    longest = int(dwell.max(initial=1))
    usable = columns[:, :max(horizon_end - 1 - start, 0)] >= 0
    run, before = np.nonzero(usable & (dwell[:, None] > 1))
    steps = (start + 1 + before).tolist()
    names = [f"dw.{runs[k][0].flight_id}.{runs[k][1]}" for k in run.tolist()]
    aux = model.binaries([f"{name}.{t}" for name, t in zip(names, steps)]) + np.arange(len(steps))
    # -1 for the longest dwell's steps before each run's array and the one
    # after it; the window gathers the longest dwell's steps before t and
    # drops those beyond the run's own dwell.
    padded = np.concatenate((np.full((len(runs), longest), -1), columns,
                             np.full((len(runs), 1), -1)), axis=1)
    lags = np.arange(longest)
    window = padded[run[:, None], before[:, None] + 1 + lags]
    own = dwell[run]
    window[lags < longest - own[:, None]] = -1
    previous, current = columns[run, before], padded[run, before + 1 + longest]
    terms = np.concatenate((aux[:, None], window, aux[:, None], window, previous[:, None],
                            aux[:, None], current[:, None]), axis=1)
    weights = np.ones(terms.shape)
    weights[:, 0] = weights[:, longest + 1] = own
    weights[:, -3:] = (-1.0, -1.0, 1.0)
    kept = terms >= 0
    indicator = kept[:, :longest + 1].sum(axis=1)
    lengths = np.stack((indicator, indicator, kept[:, -3:].sum(axis=1)), axis=1)
    bounds = np.stack((own, 2 * own - 1, np.full(len(own), -1)), axis=1)
    return Rows(np.repeat(run, 3), lengths.ravel(), terms[kept], weights[kept],
                [">=", "<=", ">="] * len(steps), bounds.ravel().astype(float),
                [f"{kind}{name[2:]}.{t}" for name, t in zip(names, steps)
                 for kind in ("dwlo", "dwhi", "dwrun")])


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
    by the choice set, en-route cells by remaining capacity, read from the
    snapshot's ``free_table`` for the period. The cones only cut cells no
    plan can use, so the optimum is unchanged.
    """
    s, e = request.origin, request.destination
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility

    dist_s = grid.hop_distances(s)
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
    # The cone by position in grid.resources: steps lo..hi of each resource
    # reachable from the origin and able to reach the destination.
    from_s, to_e = grid.hop_distance_array(s), grid.hop_distance_array(e)
    lo = np.maximum(now, first_dep + from_s)
    hi = np.minimum(horizon_end - 1, last_arr - to_e)
    in_cone = (from_s > 0) & (to_e > 0) & (lo <= hi)
    free = snapshot.free_table(now, horizon_end)
    ids = grid.resource_ids
    for i, first, last in zip(*(np.flatnonzero(in_cone), lo[in_cone], hi[in_cone])):
        rid = ids[i]
        if grid.is_zone(rid):
            cells = tuple(t for t in choices.times.get(rid, ()) if first <= t <= last)
        else:
            cells = tuple((np.flatnonzero(free[i, first - now:last - now + 1])
                           + first).tolist())
        if cells:
            times[rid] = cells
    return CellDomain(times)


def state_graph(
    grid: AirspaceGrid,
    request: FlightRequest,
    domain: CellDomain,
) -> dict[tuple[str, int, int], list[tuple[str, int, int]]]:
    """Each (resource, t, run) state a departure slot reaches over
    ``domain``, in step order, mapped to its successors in resource-id order.

    run is the current run's length in the resource, capped at its minimum
    dwell (1 outside sectors); a departure is ``(origin, t, 1)``, an arrival
    ``(destination, t, 1)``. A resource is left only once the run reaches
    the dwell, the origin is never re-entered, and an arrival ends the plan.
    """
    s, e = request.origin, request.destination
    times = domain.times
    usable = {rid: set(steps) for rid, steps in times.items()}
    dwell = {rid: request.min_dwell(rid) if grid.resource(rid).kind == "sector" else 1
             for rid in times}
    # Next resources in id order; a resource's own id means staying put.
    moves = {rid: [] if rid == e else sorted(nb for nb in (*grid.adjacency[rid], rid)
                                             if nb in times and nb != s)
             for rid in times}
    graph: dict[tuple[str, int, int], list[tuple[str, int, int]]] = {}
    layer: dict[tuple[str, int, int], None] = {}
    for t in range(times[s][0], times[e][-1] + 1):
        if t in usable[s]:
            layer[(s, t, 1)] = None
        after: dict[tuple[str, int, int], None] = {}
        for state in layer:
            rid, _, run = state
            out = graph[state] = []
            for nb in moves[rid]:
                if t + 1 not in usable[nb]:
                    continue
                if nb == rid:
                    out.append((rid, t + 1, min(run + 1, dwell[rid])))
                elif run >= dwell[rid]:
                    out.append((nb, t + 1, 1))
            for succ in out:
                after[succ] = None
        layer = after
    return graph


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
    dep_slots, arr_slots = by_resource[s], by_resource[e]

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

    # Minimum dwell per sector, over the period's steps.
    sectors = [rid for rid, dwell in request.dwell
               if dwell > 1 and rid in by_resource and grid.resource(rid).kind == "sector"]
    columns = np.full((len(sectors), horizon_end - now), -1)
    for k, rid in enumerate(sectors):
        times = by_resource[rid]
        columns[k, np.subtract(times, now)] = uvars[(rid, times[0])] + np.arange(len(times))
    dwell_linkage(fragment, [(request, rid) for rid in sectors], now, columns,
                  horizon_end).add_to(fragment)

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
