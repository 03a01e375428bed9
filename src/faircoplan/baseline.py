"""Classical fixed-route traffic-flow baseline.

Every flight flies the deterministic hop-shortest route between its
vertiports; the scheduler only times entries. Cumulative binaries
w[f,i,t] ("flight f has entered leg i by t") give monotone rows, ordered
entries with per-sector minimum dwell (holding longer is allowed), a
departure window, an arrival deadline at the end of the horizon, and shared
capacity on every cell the routes cross, solved by ``blocks.solve_joint``
as in step 3. Ground and airborne holding are the only degrees of freedom;
there is no rerouting. Flights whose windows cannot fit the horizon are
deferred, and when the timing problem itself is infeasible, victims are
removed under the same rule as the negotiated lane (fewest resubmissions,
newest id on ties) and carried over.

The objective is the same weighted delay cost the negotiated lane uses.

These cumulative binaries are the "by" formulation of Bertsimas & Stock
Patterson (Operations Research 1998), whose LP relaxation is tight, so each
drop-loop attempt's model is solved from its relaxation first
(``milp.Model.relaxation_first``): an LP proves it infeasible or gives an
integral optimum, and only a fractional point goes on to the MILP. The
optimum is as exact as before, but the LP may return another of several
tied schedules, and later periods then plan on a different ledger. On the
10-day desk8x8 campaign that moved tfmp, through ties alone, from 544 to 557
flights served (46 to 33 unserved) and its mean TDC from 1.0553 to 1.0709;
the negotiated lanes' artifacts are unchanged.

Each leg's binaries are declared only over its free entry window, from its
earliest to its latest entry. Past the latest entry the flight's own
departure, arrival and order rows set every entered-by binary to 1, in the
LP relaxation as in the MILP, so those binaries are constants. An occupancy
term on one reads the latest entry's binary instead, which is 1; a cell the
flight has surely left holds no term; a row those constants satisfy is left
out; and a forced delay term moves into the objective offset. The LP and
the MILP are the full-horizon problems with their fixed coordinates
removed, so every verdict, optimum and drop is the same. On the desk8x8 and
full15x15 campaigns that is 42-44 % of the columns handed to HiGHS.

Each schedule also declares its legs' entry windows, which the drop loop's
energetic bound reads (see ``blocks``). A flight holds each leg's resource
for at least its minimum stay from an entry inside the window, so over any
interval it holds at least a count of cell-steps fixed by the window
alone. Where the active flights' counts on one resource exceed its room
over some interval, the attempt has no integral point, and the victim is
dropped without a model: HiGHS would have found the same model infeasible.
The drop list, the accepted model and its solve are those HiGHS alone
gives, so no campaign record changes. Over 24 full15x15 periods the bound settles
2,399 of 2,415 attempts, and HiGHS solves 16 models, not 2,415; on the
10-day desk8x8 campaign it settles 515 of the 558 infeasible attempts.

Before any block is built, a batch is filed at its flights' cheapest
schedules with no model where each is proven unique and they fit together
(``_cheapest_optimum``). Each flight's cheapest schedule is found alone,
over its entry windows and the snapshot's room: with alpha above 1e-6, a
flight whose earliest landing is its earliest departure plus its minimum
stays is cheapest only at its earliest schedule, taken at once where it
has room; else a forward pass over the legs counts, for each reachable
entry, the departures that reach it and whether two schedules do. A
flight's rows alone are totally unimodular (each is a difference of two
binaries or fixes one), so its unique cheapest schedule is its unique LP
optimum. A ``cap`` row restricts each flight at least as much as its own
rows do, so if the cheapest schedules together fit remaining capacity
(``checker.detect_conflicts``) their union is the joint model's unique
optimum, the point HiGHS would return, and no campaign record changes.
The batch is one attempt with no solve, its objective the schedules'
delay cost, and its plans are re-checked once, each on its own
(``checker.audit_plans``). A flight with two cheapest schedules, or
another (departure, landing) pair within 1e-6 of its least cost, leaves
the batch to HiGHS, whose optimum is exact only to its tolerances. This
settles 24 of the 53 batches of the two desk-campaign days, 101 of the 270
of the 10-day desk8x8 campaign, and none on full15x15, where every batch
is crowded.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .blocks import DropOutcome, Window, solve_joint
from .checker import audit_batch, audit_objective, audit_plans, detect_conflicts
from .flights import DelayCostParams, FlightPlan, FlightRequest, slot_tdc, tdc

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
    """One period's fixed-route batch. ``attempts`` counts the drop loop's
    iterations and ``solves`` the models handed to HiGHS; the other
    ``attempts - solves`` were settled by a proof: each by the energetic
    bound, or the one attempt of a batch filed at its flights' cheapest
    schedules (``_cheapest_optimum``)."""

    plans: dict[str, FlightPlan]
    deferred: tuple[str, ...]
    dropped: tuple[str, ...]
    tdc_by_flight: dict[str, float]
    total_tdc: float
    objective: float | None
    attempts: int = 0
    solves: int = 0


def leg_dwells(
    grid: AirspaceGrid, route: FixedRoute, dwell: Callable[[str], int]
) -> list[int]:
    """Minimum steps on each leg before the next entry, ``grid.min_stay``
    of each leg's requested dwell. Their sum is the route's travel time
    from departure to landing."""
    return [grid.min_stay(rid, dwell(rid)) for rid in route.legs[:-1]]


@dataclass(frozen=True)
class _Schedule:
    """One flight's block of the fixed-route model (``blocks.solve_joint``),
    built once per stage call.

    ``fragment`` holds the flight's columns ``w.{fid}.{i}.{t}``, its own
    rows and its objective terms, its constant delay terms in the offset.
    Leg i's columns run over its free entry window, ``windows[i]``'s
    earliest to latest entry, after the earlier legs' columns: past the
    latest entry every feasible point, LP relaxation included, has entered
    the leg, so those binaries are constants and are not declared.
    ``cells`` maps each (resource, t) cell the flight may hold to its
    occupancy there: +1 on the binary that has it entered that cell's leg
    by t (the latest entry's, once t is past it) and, where there is one,
    -1 on the binary that has it gone by t. Cells it has surely left are
    not in ``cells``. ``windows`` holds each leg's (resource, earliest
    entry, latest entry, minimum stay), the stay 1 at the destination,
    which ``plan`` and ``solve_joint``'s energetic bound read.
    """

    request: FlightRequest
    route: FixedRoute
    fragment: milp.Model
    cells: dict[tuple[str, int], dict[int, float]]
    windows: tuple[Window, ...]

    def plan(self, x: Sequence[float]) -> FlightPlan:
        """The plan in the solved point ``x`` of the fragment: each leg is
        entered at its first step whose entered-by binary is set."""
        entries, end = [], 0
        for i, (_, lo, hi, _) in enumerate(self.windows):
            col, end = end, end + hi - lo + 1
            entry = next((lo + k for k, value in enumerate(x[col:end]) if value >= 0.5), None)
            if entry is None:
                raise RuntimeError(f"{self.request.flight_id}: leg {i} never entered")
            entries.append(entry)
        return _route_plan(self.request.flight_id, self.route, entries)


def _route_plan(flight_id: str, route: FixedRoute, entries: Sequence[int]) -> FlightPlan:
    """The plan that enters leg i of ``route`` at ``entries[i]`` and holds it
    until the next entry; the destination is held on its entry step only."""
    legs = route.legs
    steps = [(t, legs[i]) for i in range(len(legs) - 1) for t in range(entries[i], entries[i + 1])]
    steps.append((entries[-1], route.destination))
    return FlightPlan(flight_id, tuple(steps))


def _pairs(first: range, second: range) -> list[int]:
    """The columns of rows of two terms each, row by row: first[k], second[k]."""
    pairs = [0] * (2 * len(first))
    pairs[0::2], pairs[1::2] = first, second
    return pairs


def _windows(
    grid: AirspaceGrid,
    request: FlightRequest,
    route: FixedRoute,
    now: int,
) -> tuple[Window, ...] | None:
    """Each leg's (resource, earliest entry, latest entry, minimum stay),
    the stay 1 at the destination; None if the flight cannot fit the
    horizon and is deferred.

    Unlike the negotiated lane, no arrival window has to fit: the flight
    just needs a departure slot in its window from which it lands by the
    last step of the horizon, and a requested arrival inside the horizon.
    The earliest entries are the requested departure (or ``now``, if later)
    plus the minimum stays, the last leg's raised to the requested arrival.
    Past its latest entry every feasible schedule has entered the leg.
    """
    dwells = leg_dwells(grid, route, request.min_dwell)
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    horizon_end = now + grid.horizon_steps
    last = len(route.legs) - 1
    depart_by = min(d + eps, horizon_end - 1 - sum(dwells))
    if max(d, now) > depart_by or a > horizon_end - 1:
        return None

    entry_lo = [max(d, now)]
    for dwell in dwells:
        entry_lo.append(entry_lo[-1] + dwell)
    entry_lo[last] = max(entry_lo[last], a)

    # Latest entries: w(i, t) is 1 for every t >= entry_hi[i] in every
    # feasible point. The arrival row sets it for the last leg at the
    # horizon's end, each order row carries it back one leg less its dwell,
    # the departure row caps leg 0's, and a vertiport leg's "=" order rows
    # carry it on to the next leg. The forward pass lowers a leg's latest
    # entry only to its predecessor's plus that dwell, which the backward
    # bound allows, so one pass each way reaches the fixed point. The
    # schedule entering every leg at its latest entry is feasible, so no
    # earlier binary is forced. No window is empty, since a vertiport is
    # never next to another: only the last leg's earliest entry is raised,
    # and its predecessor is a sector.
    entry_hi = [horizon_end - 1] * (last + 1)
    for i in reversed(range(last)):
        entry_hi[i] = entry_hi[i + 1] - dwells[i]
    entry_hi[0] = min(entry_hi[0], depart_by)
    for i, rid in enumerate(route.legs[:-1]):
        if grid.resource(rid).kind == "vertiport":
            entry_hi[i + 1] = min(entry_hi[i + 1], entry_hi[i] + dwells[i])
    return tuple(zip(route.legs, entry_lo, entry_hi, [*dwells, 1]))


def _schedule(
    grid: AirspaceGrid,
    request: FlightRequest,
    route: FixedRoute,
    windows: tuple[Window, ...],
    params: DelayCostParams,
) -> _Schedule:
    """The flight's block over its legs' ``windows`` (``_windows``).

    Only each leg's free entry window, from its earliest to its latest
    entry, is declared. The model is the cumulative one over the whole
    horizon with the binaries its own rows force to 1 removed, in the LP
    relaxation as in the MILP, so both have the same feasible points and
    optima, and every verdict is the same.
    """
    fid = request.flight_id
    _, entry_lo, entry_hi, stays = zip(*windows)
    dwells = stays[:-1]
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    last = len(route.legs) - 1
    exact = [grid.resource(rid).kind == "vertiport" for rid in route.legs[:-1]]

    # Weighted delay: each unentered step past the requested time costs.
    # Steps before the earliest possible entry are unavoidable and enter
    # the objective as constants (e.g. a carried-over flight whose
    # requested departure already passed). Past the latest entry the leg
    # has surely been entered, so those steps cost nothing and have no
    # column. 0.0 - weight, not -weight, keeps a zero weight (alpha 0 or 1)
    # at +0.0.
    ground, air = 1.0 - params.alpha, params.alpha
    waits = range(entry_lo[0], min(d + eps, entry_hi[0] + 1))
    landings = range(entry_lo[last], entry_hi[last] + 1)
    fragment = milp.Model(name=f"w.{fid}")
    fragment.objective_offset = (ground * (entry_lo[0] - d + len(waits))
                                 + air * (entry_lo[last] - a + len(landings)))

    # Leg i's columns run over t = entry_lo[i] .. entry_hi[i]: w(i, t) is
    # column base[i] + t, and past entry_hi[i] it reads the column of
    # entry_hi[i], which is 1. Leg 0's waits and the last leg's landings
    # carry the delay cost.
    base = []
    for i, (lo, hi) in enumerate(zip(entry_lo, entry_hi)):
        steps = range(lo, hi + 1)
        cost = ([0.0 - ground if t in waits else 0.0 for t in steps] if i == 0
                else 0.0 - air if i == last else 0.0)
        base.append(fragment.binaries([f"w.{fid}.{i}.{t}" for t in steps], cost) - lo)

    # Entered-by is monotone in t: w(i, t) - w(i, t - 1) >= 0.
    indices: list[int] = []
    labels: list[str] = []
    for i, (lo, hi) in enumerate(zip(entry_lo, entry_hi)):
        cols = range(base[i] + lo, base[i] + hi + 1)
        indices += _pairs(cols[1:], cols[:-1])
        prefix = f"mono.{fid}.{i}."
        labels += [f"{prefix}{t}" for t in range(lo + 1, hi + 1)]
    relations = [">="] * len(labels)

    # Next leg only after this leg's minimum dwell: w(i + 1, t) - w(i, t -
    # dwell) <= 0. Holding beyond the minimum is allowed in sectors only; a
    # vertiport cell is occupied exactly one step, so ground delay moves
    # the pad slot itself. Since entry_lo[i + 1] >= entry_lo[i] + dwells[i],
    # w(i, t - dwells[i]) is always a column up to entry_hi[i]; past it the
    # row reads w(i + 1, t) <= 1 and is left out. A vertiport leg's rows all
    # stay, since its successor's latest entry is its own plus the dwell.
    for i in range(last):
        steps = range(entry_lo[i + 1], min(entry_hi[i + 1], entry_hi[i] + dwells[i]) + 1)
        later, earlier = base[i + 1], base[i] - dwells[i]
        indices += _pairs(range(later + steps.start, later + steps.stop),
                          range(earlier + steps.start, earlier + steps.stop))
        relations += ["=" if exact[i] else "<="] * len(steps)
        prefix = f"order.{fid}.{i + 1}."
        labels += [f"{prefix}{t}" for t in steps]
    rows = len(labels)

    # Depart within the window, arrive within the horizon: the latest
    # entries of the first and last legs.
    indices += (base[0] + entry_hi[0], base[last] + entry_hi[last])
    fragment.add_rows([*range(2, 2 * rows + 1, 2), 2 * rows + 1, 2 * rows + 2], indices,
                      [1.0, -1.0] * rows + [1.0, 1.0], relations + ["=", "="],
                      [0.0] * rows + [1.0, 1.0], labels + [f"dep.{fid}", f"arr.{fid}"])

    # A flight holds cell (legs[i], t) while it has entered leg i but not
    # leg i + 1: its occupancy is w(i, t) - w(i + 1, t), the second term
    # only once leg i + 1 has a column, and 0 from leg i + 1's latest entry
    # on. It holds the destination only on its entry step: w(last, t) -
    # w(last, t - 1), the second term from lo + 1, up to the latest entry.
    cells: dict[tuple[str, int], dict[int, float]] = {}
    for i, (rid, lo, hi) in enumerate(zip(route.legs, entry_lo, entry_hi)):
        if i < last:
            gone, after, end = base[i + 1], entry_lo[i + 1], entry_hi[i + 1]
        else:
            gone, after, end = base[i] - 1, lo + 1, hi + 1
        entered = [*range(base[i] + lo, base[i] + hi + 1), *[base[i] + hi] * (end - hi - 1)]
        cells.update({(rid, t): {j: 1.0} for t, j in zip(range(lo, after), entered)})
        cells.update({(rid, t): {j: 1.0, gone + t: -1.0}
                      for t, j in zip(range(after, end), entered[after - lo:])})
    return _Schedule(request, route, fragment, cells, windows)


# Two (departure, landing) pairs whose delay costs differ by no more than
# this are tied: their floats need not order them as their rationals do.
_NEAR_TIE = 1e-6


def _cheapest_entries(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    windows: tuple[Window, ...],
    params: DelayCostParams,
) -> tuple[list[int], float] | None:
    """Each leg's entry in the flight's unique cheapest schedule over its
    legs' ``windows`` and the snapshot's room, with its delay cost; None if
    it has no schedule or its cheapest is not unique.

    A schedule enters each leg in its window, stays at least the leg's
    minimum (exactly, at a vertiport) and holds each step with room; the
    destination needs room on its entry step. Its cost is ``slot_tdc`` of
    its departure and landing. The cheapest is unique when one schedule
    reaches the least cost and every other reachable (departure, landing)
    pair costs more than it by over ``_NEAR_TIE``.

    A tight flight, whose earliest landing is its earliest departure plus
    the minimum stays, lands at its earliest only on its earliest schedule,
    and any other schedule lands later, for alpha more per step: with
    alpha over ``_NEAR_TIE``, where the earliest schedule has room it is
    the answer. Otherwise a forward pass over the legs maps each entry of
    leg i that a schedule reaches to two bitmasks over departures (bit k
    for departure ``lo[0] + k``): those that reach it, and those that
    reach it by two or more schedules. The entries are read back from the
    landing.
    """
    legs, lo, hi, stays = zip(*windows)
    last = len(windows) - 1
    room = snapshot.remaining
    if (params.alpha > _NEAR_TIE and lo[last] == lo[0] + sum(stays[:last])
            and room(legs[last], lo[last]) >= 1
            and all(room(legs[i], t) >= 1 for i in range(last) for t in range(lo[i], lo[i + 1]))):
        return list(lo), slot_tdc(request, params, lo[0], lo[last])

    layer = {e: (1 << (e - lo[0]), 0) for e in range(lo[0], hi[0] + 1)}
    layers, moves = [layer], []
    for i in range(last):
        rid, stay, stop = legs[i], stays[i], hi[i + 1]
        exact = grid.resource(rid).kind == "vertiport"
        # held[t]: the first step from t on, up to stop, the leg has no
        # room; a flight entering at e can hold the leg until held[e].
        held = {stop: stop}
        for t in range(stop - 1, lo[i] - 1, -1):
            held[t] = held[t + 1] if room(rid, t) >= 1 else t
        # Each entry's next entries: after its stay, in the next window,
        # with room on every step between.
        step: dict[int, range] = {}
        layer = {}
        for e, (reach, repeated) in layers[-1].items():
            step[e] = range(max(e + stay, lo[i + 1]),
                            (min(held[e], e + stay) if exact else held[e]) + 1)
            for nxt in step[e]:
                seen = layer.get(nxt)
                layer[nxt] = (reach, repeated) if seen is None else (
                    seen[0] | reach, seen[1] | repeated | (seen[0] & reach))
        if not layer:
            return None
        moves.append(step)
        layers.append(layer)

    pairs = sorted((slot_tdc(request, params, lo[0] + k, land), land, k)
                   for land, (reach, _) in layer.items() if room(legs[last], land) >= 1
                   for k in range(reach.bit_length()) if reach >> k & 1)
    if not pairs:
        return None
    cost, land, k = pairs[0]
    if layer[land][1] >> k & 1 or (len(pairs) > 1 and pairs[1][0] <= cost + _NEAR_TIE):
        return None
    entries = [land]
    for i in reversed(range(last)):
        entries.append(next(e for e, (reach, _) in layers[i].items()
                            if reach >> k & 1 and entries[-1] in moves[i][e]))
    return entries[::-1], cost


def _cheapest_optimum(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Mapping[str, FlightRequest],
    flights: Mapping[str, tuple[FixedRoute, tuple[Window, ...]]],
    params: DelayCostParams,
) -> DropOutcome | None:
    """The batch ``flights``, each a (route, ``_windows``) pair, filed at
    each flight's unique cheapest schedule (``_cheapest_entries``) where
    those fit together; else None, and the model decides.

    For one flight alone, every row of its block, and each ``cap`` row on
    a cell with no room, holds at most one +1 and one -1 term, or is a
    single fixed entry: the system is totally unimodular, so its LP
    relaxation has integral vertices, and a unique cheapest schedule is
    its unique LP optimum. In the joint model each flight's occupancy is
    nonnegative under its order rows, so a ``cap`` row restricts each
    flight at least as much as its own system does. If the flights'
    cheapest schedules fit remaining capacity together
    (``detect_conflicts``), their union is then the joint LP's unique
    optimum, the point the relaxation-first solve files. The objective is
    their delay cost; the batch is one attempt with no solve. The first
    flight with no schedule or a tied cheapest one refuses the batch.
    """
    if not flights:
        return None
    plans: dict[str, FlightPlan] = {}
    objective = 0.0
    for fid, (route, windows) in flights.items():
        cheapest = _cheapest_entries(grid, snapshot, requests[fid], windows, params)
        if cheapest is None:
            return None
        entries, cost = cheapest
        plans[fid] = _route_plan(fid, route, entries)
        objective += cost
    if detect_conflicts(grid, snapshot, plans).has_conflicts:
        return None
    return DropOutcome(plans, objective, (), 1, 0)


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

    flights: dict[str, tuple[FixedRoute, tuple[Window, ...]]] = {}
    deferred = []
    for fid in sorted(by_id):
        req = by_id[fid]
        route = fixed_route(grid, req.origin, req.destination)
        windows = _windows(grid, req, route, now)
        if windows is None:
            deferred.append(fid)
        else:
            flights[fid] = (route, windows)

    outcome = _cheapest_optimum(grid, snapshot, by_id, flights, params)
    if outcome is not None:
        # The proof has checked joint capacity: each plan is re-checked alone.
        audit_plans(grid, snapshot, by_id, outcome.plans, now, "fixed-route")
    else:
        schedules = {fid: _schedule(grid, by_id[fid], route, windows, params)
                     for fid, (route, windows) in flights.items()}
        outcome = solve_joint("fixed-route-schedule", schedules, list(schedules), by_id,
                              snapshot)
        if outcome.objective is not None:
            audit_batch(grid, snapshot, by_id, outcome.plans, now, "fixed-route")
    plans = outcome.plans
    tdc_by_flight = {fid: tdc(plan, by_id[fid], params) for fid, plan in plans.items()}
    if outcome.objective is not None:
        audit_objective("fixed-route", outcome.objective, sum(tdc_by_flight.values()))

    return BaselineResult(
        plans=plans,
        deferred=tuple(deferred),
        dropped=outcome.dropped,
        tdc_by_flight=tdc_by_flight,
        total_tdc=sum(tdc_by_flight.values()),
        objective=outcome.objective,
        attempts=outcome.attempts,
        solves=outcome.solves,
    )
