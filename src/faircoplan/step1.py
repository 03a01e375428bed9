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

The model is built in bulk from per-period tables over (flight, zone
resource, period step), never cell by cell. It reads the snapshot only
through one zone resource × step table, ``room_table``: remaining capacity
(``OccupancySnapshot.remaining_table``), capped at the number of modelled
flights whose window covers the cell. A flight is offered the cells of its
window mask with room, a cell's capacity row is written where more flights
are offered it than it has room, and that room is the row's right-hand
side, so two snapshots with equal tables give the same model; the table is
returned with the result. Every offered cell's choice column is declared
in one ``Model.binaries`` call. The capacity, slot-support, dwell and
service rows are written with ``Model.add_rows`` from the same tables
(slot-support and dwell rows as ``_Rows`` blocks, each row owned by its
flight, merged flight by flight), the objective is the columns' costs,
and the grants are read back with one ``x >= 0.5`` over the choice columns.
The columns, names, rows, labels and their order are those of a
cell-by-cell build: choices by flight, then by (resource, timestep);
capacity rows by cell; each flight's departure, arrival and dwell rows in
turn; then the service rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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


def choice_domains(
    grid: AirspaceGrid, request: FlightRequest, now: int, horizon_end: int
) -> dict[str, range]:
    """Permitted-time range per zone resource from the window constraints.

    Departure slots additionally need room for an adjacent choice at t+1,
    arrival slots for one at t-1, so their ranges stop one step short of the
    period edges.
    """
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


class _Rows(NamedTuple):
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
    def by_owner(blocks: Sequence[_Rows]) -> _Rows:
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
        return _Rows(owner[order], moved,
                     np.concatenate([block.indices for block in blocks])[take],
                     np.concatenate([block.coeffs for block in blocks])[take],
                     [relations[i] for i in order.tolist()],
                     np.concatenate([block.rhs for block in blocks])[order],
                     [labels[i] for i in order.tolist()])


def _dwell_linkage(
    model: milp.Model,
    runs: Sequence[tuple[FlightRequest, str]],
    start: int,
    columns: np.ndarray,
    horizon_end: int,
) -> _Rows:
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
    return _Rows(np.repeat(run, 3), lengths.ravel(), terms[kept], weights[kept],
                 [">=", "<=", ">="] * len(steps), bounds.ravel().astype(float),
                 [f"{kind}{name[2:]}.{t}" for name, t in zip(names, steps)
                  for kind in ("dwlo", "dwhi", "dwrun")])


def _support_rows(owner: np.ndarray, head: np.ndarray, tails: np.ndarray,
                  labels: list[str]) -> _Rows:
    """Rows ``sum(tails[k]) - head[k] >= 0``, one per k, with the head first
    and the tails in order; -1 in ``tails`` is no column."""
    terms = np.concatenate((head[:, None], tails), axis=1)
    kept = terms >= 0
    return _Rows(owner, kept.sum(axis=1), terms[kept],
                 np.where(kept.nonzero()[1] == 0, -1.0, 1.0), [">="] * len(head),
                 np.zeros(len(head)), labels)


def _windows(grid: AirspaceGrid, requests: list[FlightRequest], now: int,
             horizon_end: int) -> tuple[list[FlightRequest], np.ndarray]:
    """The requests step 1 models, those whose windows fit the period, and
    their window masks over (flight, zone resource, period step), zone
    resources in sorted order."""
    modeled, spans = [], []
    for request in requests:
        dom = choice_domains(grid, request, now, horizon_end)
        if (request.requested_arrival + request.flexibility <= horizon_end
                and len(dom[request.origin]) > 0 and len(dom[request.destination]) > 0):
            modeled.append(request)
            spans.append([(span.start, span.stop) for span in dom.values()])
    spans = np.array(spans, dtype=np.int64).reshape(len(modeled), len(grid.zone), 2)
    steps = np.arange(now, horizon_end)
    return modeled, (spans[..., :1] <= steps) & (steps < spans[..., 1:])


def _room(grid: AirspaceGrid, snapshot: OccupancySnapshot, window: np.ndarray, now: int,
          horizon_end: int) -> np.ndarray:
    return np.minimum(snapshot.remaining_table(sorted(grid.zone), now, horizon_end),
                      window.sum(axis=0))


def room_table(grid: AirspaceGrid, snapshot: OccupancySnapshot,
               requests: list[FlightRequest], now: int = 0) -> np.ndarray:
    """All ``solve_step1`` reads of ``snapshot`` for this batch: row i,
    column j is the remaining capacity of zone resource ``sorted(grid.zone)[i]``
    at step ``now + j``, capped at the number of modelled flights whose
    window covers that cell. Snapshots with equal tables give the same model."""
    horizon_end = now + grid.horizon_steps
    return _room(grid, snapshot, _windows(grid, requests, now, horizon_end)[1], now,
                 horizon_end)


def recheck(grid: AirspaceGrid, snapshot: OccupancySnapshot, requests: list[FlightRequest],
            result: Step1Result, now: int = 0) -> None:
    """Raise ``RuntimeError`` unless ``result``'s choice sets pass
    ``choice_violations`` against ``snapshot``."""
    problems = choice_violations(
        grid, snapshot, requests, result.choice_sets, now, now + grid.horizon_steps
    )
    if problems:
        raise RuntimeError(
            "choice-setting solution failed re-check: " + "; ".join(problems[:5])
        )


def solve_step1(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: list[FlightRequest],
    now: int = 0,
) -> Step1Result:
    _validate(grid, requests)
    horizon_end = now + grid.horizon_steps

    # Tables over (flight, zone resource, period step), zone resources in
    # sorted order. A flight is offered a cell inside its window that has
    # room; ``column`` (below) holds its choice column, -1 where none.
    modeled, window = _windows(grid, requests, now, horizon_end)
    room = _room(grid, snapshot, window, now, horizon_end)
    kept = {request.flight_id for request in modeled}
    deferred = [request.flight_id for request in requests if request.flight_id not in kept]
    unassigned = list(deferred)
    sets = {request.flight_id: ChoiceSet(request.flight_id, request.origin, request.destination)
            for request in requests if request.flight_id not in kept}
    if not modeled:
        return Step1Result(sets, tuple(unassigned), 0.0, tuple(deferred), room)

    zone = sorted(grid.zone)
    row = {rid: z for z, rid in enumerate(zone)}
    steps = np.arange(now, horizon_end)
    offered = window & (room >= 1)

    model = milp.Model(name="choice-setting")

    # One service unit outweighs every possible grant, so the solve is
    # lexicographic: serve as many flights as possible, then hand out as
    # many choices as possible. Window sizes (not spare capacity) define
    # the weight so it is reproducible from the requests alone.
    weight = float(1 + window.sum())

    # Choice columns by flight, then by (resource, timestep) cell, gaining 1.
    cells = [f"{rid}.{t}" for rid in zone for t in range(now, horizon_end)]
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

    # Slot support: a departure slot at t needs an adjacent choice at t+1,
    # an arrival slot one at t-1 (sum of those choices >= slot). Neighbour
    # lists are padded with a resource row that offers nothing.
    flights = np.arange(len(modeled))
    padded = np.concatenate((column, np.full((len(modeled), 1, len(steps)), -1)), axis=1)
    widest = max(len(grid.adjacency[rid]) for rid in grid.vertiport_ids)
    blocks, slot_columns = [], []
    for side, shift, kind in (("origin", 1, "dep"), ("destination", -1, "arr")):
        slots = [getattr(request, side) for request in modeled]
        nbs = np.array([[row[nb] for nb in grid.adjacency[slot]]
                        + [len(zone)] * (widest - len(grid.adjacency[slot])) for slot in slots])
        slot_cols = column[flights, [row[slot] for slot in slots]]
        slot_columns.append(slot_cols)
        f, p = np.nonzero(slot_cols >= 0)
        blocks.append(_support_rows(
            f, slot_cols[f, p], padded[f[:, None], nbs[f], (p + shift)[:, None]],
            [f"{kind}.{modeled[i].flight_id}.{now + t}" for i, t in zip(f.tolist(), p.tolist())]))
    # Dwell linkage on ring sectors: an offered step continues while the
    # trailing window holds fewer than l offered steps.
    runs = [(f, request, rid) for f, request in enumerate(modeled)
            for rid, dwell in request.dwell if dwell > 1 and rid in grid.ring]
    run_flight = np.array([f for f, _, _ in runs], dtype=np.int64)
    dwell_rows = _dwell_linkage(model, [(request, rid) for _, request, rid in runs], now,
                               column[run_flight, [row[rid] for _, _, rid in runs]],
                               horizon_end)
    blocks.append(dwell_rows._replace(owner=run_flight[dwell_rows.owner]))
    # Each flight's rows in turn: its departure, arrival and dwell rows.
    _Rows.by_owner(blocks).add_to(model)

    # Service: y_f, gaining the weight, needs an offered departure slot and
    # an offered arrival slot (sum of the side's slot choices >= y_f), one
    # row per side.
    departures, arrivals = slot_columns
    served = np.flatnonzero((departures >= 0).any(axis=1) & (arrivals >= 0).any(axis=1))
    fids = [modeled[f].flight_id for f in served.tolist()]
    first_y = model.binaries([f"y.{fid}" for fid in fids], cost=-weight)
    sides = np.stack((departures[served], arrivals[served]), axis=1)
    _support_rows(np.repeat(served, 2), np.repeat(first_y + np.arange(len(fids)), 2),
                  sides.reshape(2 * len(fids), len(steps)),
                  [f"{kind}.{fid}" for fid in fids for kind in ("servedep", "servearr")]
                  ).add_to(model)

    result = milp.solve(model)
    if result.status == milp.INFEASIBLE:
        raise RuntimeError(
            "choice-setting model infeasible; the all-zero assignment is always "
            "feasible, so this is a construction bug"
        )
    if result.status == milp.ERROR:
        raise RuntimeError(f"choice-setting solve failed: {result.detail}")

    # The reported objective is the gains the model maximizes (service
    # weight plus granted choices, before stripping unassigned flights),
    # which is what the enumeration oracle optimizes too: the negated
    # minimum, 0.0 - it so that a zero optimum reads +0.0.
    objective = 0.0 - result.objective
    granted = np.zeros(offered.shape, dtype=bool)
    granted[offered] = np.array(result.x[first_choice:first_choice + len(names)]) >= 0.5
    for f, request in enumerate(modeled):
        fid = request.flight_id
        cell_row, cell_step = np.nonzero(granted[f])
        chosen = zip([zone[z] for z in cell_row.tolist()], (now + cell_step).tolist())
        chset = ChoiceSet(fid, request.origin, request.destination, frozenset(chosen))
        if not chset.departure_slots or not chset.arrival_slots:
            unassigned.append(fid)
            chset = chset.emptied()
        sets[fid] = chset

    out = Step1Result(sets, tuple(unassigned), objective, tuple(deferred), room)
    recheck(grid, snapshot, requests, out, now)
    return out
