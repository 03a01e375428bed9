"""Choice-setting MILP: the authority's first negotiation step.

For every requesting flight, jointly pick permitted (resource, timestep)
choices at vertiports and vertiport-adjacent (ring) sectors. The objective
serves flights first and maximizes choice richness second: each flight that
receives at least one departure and one arrival slot earns a weight larger
than every grant combined, and each granted cell adds one on top. Without
the service weight a congested period can reach its grant-count optimum
while starving every departure slot, which would strand the whole batch.
The model minimizes the negated gains; the reported objective is the gains.

Capacity is budgeted jointly. A departure slot at t needs an adjacent
choice at t+1 and an arrival slot one at t-1: the sum of those choices minus
the slot is at least zero. On ring sectors an offered run may end only once
it has lasted the flight's minimum dwell (``_dwell_linkage``, whose
indicator rows take the dwell itself as their constant). Flights that end up
without a departure or an arrival slot are returned unassigned with all
choices stripped.

Where capacity cannot bind, the grant is forced, and it is proven, not
solved (``_whole_offer``). If no zone cell is offered to more flights than
it has room for and the whole offer passes ``choice_violations``, the point
with every choice and service column at 1 is feasible and reaches the
objective's bound, so every optimum grants the whole offer: step 1 returns
it, with its objective computed in integers, and builds no model; that
check is its only re-check. This settles 108 of the 394 step-1 batches of
the 10-day desk8x8 campaign.

The model is built from per-period tables over (flight, zone resource,
period step), never cell by cell. It reads the snapshot only through one
zone resource × step table, ``room_table``: remaining capacity
(``OccupancySnapshot.remaining_table(now)``), capped at the number of modelled
flights whose window covers the cell. A flight is offered the cells of its
window mask with room, a cell's capacity row is written where more flights
are offered it than it has room, and that room is the row's right-hand
side, so two snapshots with equal tables give the same model; the table is
returned with the result. Every offered cell's choice column is declared
in one ``Model.binaries`` call, by flight, then by (resource, timestep),
and the capacity rows come first, by cell. Then each flight's rows are
written in turn with ``Model.add_rows``: its departure rows, its arrival
rows, then the dwell rows of each ring run in ``request.dwell`` order,
each run declaring its auxiliary columns as it goes. The service columns
and rows come last. The objective is the columns' costs, and the grants
are read back with one ``x >= 0.5`` over the choice columns. This order
fixes the HiGHS input, and with it which of several tied optima is filed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .checker import choice_violations
from .flights import ChoiceSet, FlightRequest

__all__ = ["Step1Result", "solve_step1", "choice_domains", "recheck", "room_table"]


@dataclass
class Step1Result:
    choice_sets: dict[str, ChoiceSet]
    unassigned: tuple[str, ...]
    objective: float
    deferred: tuple[str, ...] = ()
    # ``room_table`` of the snapshot the result was solved on, all the model
    # read of it.
    room: np.ndarray | None = field(default=None, compare=False, repr=False)


def choice_domains(grid: AirspaceGrid, request: FlightRequest, now: int) -> dict[str, range]:
    """Permitted-time range per zone resource from the window constraints.

    Departure slots additionally need room for an adjacent choice at t+1,
    arrival slots for one at t-1, so their ranges stop one step short of the
    period edges.
    """
    horizon_end = now + grid.horizon_steps
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    # Every other zone resource: from departure to the end of the arrival window.
    others = range(max(d, now), min(a + eps - 1, horizon_end - 1) + 1)
    domains = dict.fromkeys(sorted(grid.zone), others)
    domains[request.origin] = range(max(d, now), min(d + eps, a + eps - 1, horizon_end - 2) + 1)
    domains[request.destination] = range(max(a, now + 1), min(a + eps - 1, horizon_end - 1) + 1)
    return domains


def _validate(grid: AirspaceGrid, requests: list[FlightRequest]) -> None:
    ids = [r.flight_id for r in requests]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate flight ids in request batch")
    for request in requests:
        for rid, what in ((request.origin, "origin"), (request.destination, "destination")):
            if grid.resource(rid).kind != "vertiport":
                raise ValueError(f"{request.flight_id}: {what} {rid} is not a vertiport")


def _dwell_linkage(model: milp.Model, name: str, dwell: int, columns: np.ndarray,
                   start: int) -> None:
    """Minimum dwell of one run, a flight in one resource: the run may end at
    step t only once the trailing window of ``dwell`` steps is full.

    ``columns[i]`` is the column of the binary that marks the flight (or its
    offered choice) in the resource at step ``start + i``, or -1 at a step it
    cannot use; steps outside the array are unusable too. For each t up to
    the array's last step that follows a usable step, an auxiliary binary
    ``dw.{name}.{t}`` is 1 exactly when the window is not yet full, and then
    the run must go on at t. The window has ``dwell`` terms, so ``dwell`` is
    a tight constant for both indicator rows. A dwell of 1 needs nothing, so
    callers pass only longer ones.

    The auxiliaries are declared in ``model`` in one call, step by step, and
    then the rows ``dwlo``, ``dwhi`` and ``dwrun`` for each step in the same
    order.
    """
    before = np.flatnonzero(columns[:-1] >= 0)
    steps = (start + 1 + before).tolist()
    aux = model.binaries([f"dw.{name}.{t}" for t in steps]) + np.arange(len(steps))
    # -1 for the dwell's steps before the array and the one after it; the
    # window of step t gathers steps t - dwell .. t - 1.
    padded = np.concatenate((np.full(dwell, -1), columns, [-1]))
    window = padded[before[:, None] + 1 + np.arange(dwell)]
    previous, current = columns[before], padded[before + 1 + dwell]
    terms = np.concatenate((aux[:, None], window, aux[:, None], window, previous[:, None],
                            aux[:, None], current[:, None]), axis=1)
    weights = np.ones(terms.shape)
    weights[:, 0] = weights[:, dwell + 1] = dwell
    weights[:, -3:] = (-1.0, -1.0, 1.0)
    kept = terms >= 0
    indicator = kept[:, :dwell + 1].sum(axis=1)
    lengths = np.stack((indicator, indicator, kept[:, -3:].sum(axis=1)), axis=1)
    model.add_rows(np.cumsum(lengths).tolist(), terms[kept].tolist(), weights[kept].tolist(),
                   [">=", "<=", ">="] * len(steps), [dwell, 2 * dwell - 1, -1] * len(steps),
                   [f"{kind}.{name}.{t}" for t in steps for kind in ("dwlo", "dwhi", "dwrun")])


def _support_rows(model: milp.Model, heads: np.ndarray, tails: np.ndarray,
                  labels: list[str]) -> None:
    """Rows ``sum(tails[k]) - heads[k] >= 0``, one per k, with the head first
    and the tails in order; -1 in ``tails`` is no column."""
    terms = np.concatenate((heads[:, None], tails), axis=1)
    kept = terms >= 0
    model.add_rows(np.cumsum(kept.sum(axis=1)).tolist(), terms[kept].tolist(),
                   np.where(kept.nonzero()[1] == 0, -1.0, 1.0).tolist(), [">="] * len(heads),
                   [0.0] * len(heads), labels)


def _windows(grid: AirspaceGrid, requests: list[FlightRequest],
             now: int) -> tuple[list[FlightRequest], np.ndarray]:
    """The requests step 1 models, those whose windows fit the period, and
    their window masks over (flight, zone resource, period step), zone
    resources in sorted order."""
    horizon_end = now + grid.horizon_steps
    modeled, spans = [], []
    for request in requests:
        dom = choice_domains(grid, request, now)
        if (request.requested_arrival + request.flexibility <= horizon_end
                and len(dom[request.origin]) > 0 and len(dom[request.destination]) > 0):
            modeled.append(request)
            spans.append([(span.start, span.stop) for span in dom.values()])
    spans = np.array(spans, dtype=np.int64).reshape(len(modeled), len(grid.zone), 2)
    steps = np.arange(now, horizon_end)
    return modeled, (spans[..., :1] <= steps) & (steps < spans[..., 1:])


def _room(grid: AirspaceGrid, snapshot: OccupancySnapshot, window: np.ndarray,
          now: int) -> np.ndarray:
    zone_rows = [grid.row(rid) for rid in sorted(grid.zone)]
    return np.minimum(snapshot.remaining_table(now)[zone_rows], window.sum(axis=0))


def room_table(grid: AirspaceGrid, snapshot: OccupancySnapshot,
               requests: list[FlightRequest], now: int = 0) -> np.ndarray:
    """All ``solve_step1`` reads of ``snapshot`` for this batch: row i,
    column j is the remaining capacity of zone resource ``sorted(grid.zone)[i]``
    at step ``now + j``, capped at the number of modelled flights whose
    window covers that cell. Snapshots with equal tables give the same model."""
    return _room(grid, snapshot, _windows(grid, requests, now)[1], now)


def recheck(grid: AirspaceGrid, snapshot: OccupancySnapshot, requests: list[FlightRequest],
            result: Step1Result, now: int = 0) -> None:
    """Raise ``RuntimeError`` unless ``result``'s choice sets pass
    ``choice_violations`` against ``snapshot``."""
    problems = choice_violations(grid, snapshot, requests, result.choice_sets, now)
    if problems:
        raise RuntimeError(
            "choice-setting solution failed re-check: " + "; ".join(problems[:5])
        )


def _choice_sets(zone: list[str], modeled: list[FlightRequest], granted: np.ndarray,
                 now: int) -> dict[str, ChoiceSet]:
    """Each modelled flight's choice set: its cells flagged in ``granted``,
    a table over (flight, zone resource, period step)."""
    sets = {}
    for request, cells in zip(modeled, granted):
        cell_row, cell_step = np.nonzero(cells)
        chosen = zip([zone[z] for z in cell_row.tolist()], (now + cell_step).tolist())
        sets[request.flight_id] = ChoiceSet(request.flight_id, request.origin,
                                            request.destination, frozenset(chosen))
    return sets


def _whole_offer(grid: AirspaceGrid, snapshot: OccupancySnapshot,
                 modeled: list[FlightRequest], offered: np.ndarray, room: np.ndarray,
                 now: int) -> dict[str, ChoiceSet] | None:
    """Each modelled flight's choice set of every cell offered to it, where
    that is proven to be the model's optimum, else None.

    Where no cell is offered to more flights than it has room for, the
    model has no capacity row. If the whole offer then passes
    ``choice_violations``, it meets every slot support and dwell row too, so
    the point with every choice and service column at 1 is feasible. Every
    such column gains, so that point reaches the objective's bound, and every
    optimum agrees with it on the columns step 1 reads.
    """
    if (offered.sum(axis=0) > room).any():
        return None
    sets = _choice_sets(sorted(grid.zone), modeled, offered, now)
    return None if choice_violations(grid, snapshot, modeled, sets, now) else sets


def _solve_model(grid: AirspaceGrid, modeled: list[FlightRequest], offered: np.ndarray,
                 room: np.ndarray, weight: float, now: int) -> tuple[np.ndarray, float]:
    """Build the choice-setting model (see the module docstring) and solve
    it: the granted cells, a table like ``offered``, and the objective."""
    zone = sorted(grid.zone)
    row = {rid: z for z, rid in enumerate(zone)}
    steps = range(now, now + grid.horizon_steps)

    model = milp.Model(name="choice-setting")

    # Choice columns by flight, then by (resource, timestep) cell, gaining 1.
    cells = [f"{rid}.{t}" for rid in zone for t in steps]
    names: list[str] = []
    for request, flat in zip(modeled, offered.reshape(len(modeled), -1)):
        prefix = f"c.{request.flight_id}."
        names += [prefix + cells[i] for i in np.flatnonzero(flat).tolist()]
    first_choice = model.binaries(names, cost=-1.0)
    column = np.full(offered.shape, -1)
    column[offered] = first_choice + np.arange(len(names))

    # Joint capacity per zone cell, only where it can actually bind: where
    # more flights are offered the cell than it has room for. Rows go in
    # (resource, timestep) order, each with its flights in order.
    offers = offered.sum(axis=0)
    crowded = offers > room
    users = column.transpose(1, 2, 0)[crowded]
    model.add_rows(np.cumsum(offers[crowded]).tolist(), users[users >= 0].tolist(),
                   [1.0] * int(offers[crowded].sum()), ["<="] * len(users),
                   room[crowded].astype(float).tolist(),
                   ["cap." + cells[i] for i in np.flatnonzero(crowded).tolist()])

    # Each flight's rows in turn. Slot support: a departure slot at t needs
    # an adjacent choice at t+1, an arrival slot one at t-1 (sum of those
    # choices >= slot). Dwell linkage on ring sectors: an offered step
    # continues while the trailing window holds fewer than l offered steps.
    for f, request in enumerate(modeled):
        fid = request.flight_id
        for slot, shift, kind in ((request.origin, 1, "dep"), (request.destination, -1, "arr")):
            slots = column[f, row[slot]]
            p = np.flatnonzero(slots >= 0)
            neighbours = column[f, [row[nb] for nb in grid.adjacency[slot]]]
            _support_rows(model, slots[p], neighbours[:, p + shift].T,
                          [f"{kind}.{fid}.{t}" for t in (now + p).tolist()])
        for rid, dwell in request.dwell:
            if dwell > 1 and rid in grid.ring:
                _dwell_linkage(model, f"{fid}.{rid}", dwell, column[f, row[rid]], now)

    # Service: y_f, gaining the weight, needs an offered departure slot and
    # an offered arrival slot (sum of the side's slot choices >= y_f), one
    # row per side.
    flights = np.arange(len(modeled))
    departures = column[flights, [row[request.origin] for request in modeled]]
    arrivals = column[flights, [row[request.destination] for request in modeled]]
    served = np.flatnonzero((departures >= 0).any(axis=1) & (arrivals >= 0).any(axis=1))
    fids = [modeled[f].flight_id for f in served.tolist()]
    first_y = model.binaries([f"y.{fid}" for fid in fids], cost=-weight)
    sides = np.stack((departures[served], arrivals[served]), axis=1)
    _support_rows(model, np.repeat(first_y + np.arange(len(fids)), 2),
                  sides.reshape(2 * len(fids), len(steps)),
                  [f"{kind}.{fid}" for fid in fids for kind in ("servedep", "servearr")])

    result = milp.solve(model)
    if result.status == milp.INFEASIBLE:
        raise RuntimeError(
            "choice-setting model infeasible; the all-zero assignment is always "
            "feasible, so this is a construction bug"
        )
    if result.status == milp.ERROR:
        raise RuntimeError(f"choice-setting solve failed: {result.detail}")

    granted = np.zeros(offered.shape, dtype=bool)
    granted[offered] = np.array(result.x[first_choice:first_choice + len(names)]) >= 0.5
    # The negated minimum, 0.0 - it so that a zero optimum reads +0.0.
    return granted, 0.0 - result.objective


def solve_step1(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: list[FlightRequest],
    now: int = 0,
) -> Step1Result:
    _validate(grid, requests)

    # Tables over (flight, zone resource, period step), zone resources in
    # sorted order. A flight is offered a cell inside its window that has
    # room.
    modeled, window = _windows(grid, requests, now)
    room = _room(grid, snapshot, window, now)
    kept = {request.flight_id for request in modeled}
    deferred = [request.flight_id for request in requests if request.flight_id not in kept]
    unassigned = list(deferred)
    sets = {request.flight_id: ChoiceSet(request.flight_id, request.origin, request.destination)
            for request in requests if request.flight_id not in kept}
    if not modeled:
        return Step1Result(sets, tuple(unassigned), 0.0, tuple(deferred), room)

    offered = window & (room >= 1)
    # One service unit outweighs every possible grant, so the solve is
    # lexicographic: serve as many flights as possible, then hand out as
    # many choices as possible. Window sizes (not spare capacity) define
    # the weight so it is reproducible from the requests alone.
    weight = float(1 + window.sum())

    # The reported objective is the gains the model maximizes (service
    # weight plus granted choices, before stripping unassigned flights),
    # which is what the enumeration oracle optimizes too. Where the whole
    # offer is the optimum, it is that offer's gains, with no model solved.
    chosen = _whole_offer(grid, snapshot, modeled, offered, room, now)
    solved = chosen is None
    if solved:
        granted, objective = _solve_model(grid, modeled, offered, room, weight, now)
        chosen = _choice_sets(sorted(grid.zone), modeled, granted, now)
    else:
        served = sum(1 for chset in chosen.values() if chset.departure_slots and chset.arrival_slots)
        objective = float(offered.sum()) + weight * served
    for fid, chset in chosen.items():
        if not chset.departure_slots or not chset.arrival_slots:
            unassigned.append(fid)
            chset = chset.emptied()
        sets[fid] = chset

    out = Step1Result(sets, tuple(unassigned), objective, tuple(deferred), room)
    # A whole offer has passed ``choice_violations`` already; stripping the
    # unserved flights only empties choice sets, which adds no violation.
    if solved:
        recheck(grid, snapshot, requests, out, now)
    return out
