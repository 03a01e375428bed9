"""Time-expanded model blocks: one flight's encoding in the (resource, t)
grid, shared by step 2, step 3 and the fixed-route baseline.

``cell_domain`` gives the cells one flight's trajectory may use, as a plain
``{resource: steps}`` dict; ``state_graph`` holds the moves over them,
which step 2 walks, and ``arc_fragment`` writes the same moves as a path,
one binary per arc, in a model fragment of its own: a plain ``milp.Model``
holding the flight's columns, rows and delay cost; ``ArcFragment.plan``
walks the chosen arcs back into a plan.

``solve_joint`` is the one joint solve of step 3 and the fixed-route
baseline, with its one drop-until-feasible policy: per-flight blocks, each
built once per stage call, coupled only by shared cell capacity, solved
with flights dropped by ``flights.pick_victim`` until a joint plan exists.
A block has one shape: its ``fragment``, its ``cells`` (each (resource, t)
cell the flight can hold, mapped to ``{fragment column: coefficient}``,
the flight's occupancy of that cell) and ``plan(x)``, the flight's plan in
a solved point of its fragment. It is an ``ArcFragment`` in step 3 and a
``baseline._Schedule`` in the baseline. A block also has ``windows``: a
fixed-route schedule's legs, each as (resource, earliest entry, latest
entry, minimum stay), whose steps from the earliest entry to the latest
entry plus the stay are all among its ``cells``; a path declares none.
Step 1 writes its capacity rows from its own per-period tables.

Before ``solve_joint`` builds an attempt, it tests the energetic bound of
scheduling (Baptiste, Le Pape & Nuijten, *Constraint-Based Scheduling*,
2001) on the active windows. A flight entering a leg at some e in [lo, hi]
holds the leg's resource over at least [e, e + stay), so in steps [a, b)
it holds at least max(0, min(stay, b - a, lo + stay - a, b - hi)) of them,
and only in steps some window covers. If the flights' sum on a resource
exceeds the room of those steps, no integral point keeps every cell within
its room: HiGHS would find the model infeasible and the loop would drop
the same victim, so the victim is dropped with no model built. The bound
is computed in integers and tested only on resources with a crowded cell;
elsewhere each step's holders fit its room, so no sum can exceed it. Over
24 full15x15 periods of tfmp it settles 2,399 of the 2,415 attempts, so
HiGHS solves 16 models; on the two desk-campaign days it settles 32 of 67.
The baseline calls ``solve_joint`` only for a batch its cheapest-schedule
proof leaves open (``baseline._cheapest_optimum``): it settles 24 of the
two days' 53 batches, 101 of the 270 of the 10-day desk8x8 campaign and
none on full15x15, each with no block built.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, ClassVar, Collection, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, pick_victim

__all__ = [
    "ArcFragment",
    "DropOutcome",
    "arc_fragment",
    "cell_domain",
    "solve_joint",
    "state_graph",
]

# A (resource, t, run) state of ``state_graph``.
State = tuple[str, int, int]
# A fixed-route leg's (resource, earliest entry, latest entry, minimum stay).
Window = tuple[str, int, int, int]


@dataclass(frozen=True)
class ArcFragment:
    """One flight's path over its pruned ``state_graph``, as a model fragment.

    Column j of ``fragment`` is the arc ``arcs[j]``, a (tail, head) pair of
    states; a source arc, the choice of a departure slot, has no tail.
    ``cells`` maps each (resource, t) cell to ``{column: 1.0}`` over the
    arcs into its states, in column order: their sum is the flight's
    occupancy of the cell. In a model the fragment is appended to, column j
    sits at the offset ``Model.append`` returns, plus j.
    """

    request: FlightRequest
    fragment: milp.Model
    arcs: list[tuple[State | None, State]]
    cells: dict[tuple[str, int], dict[int, float]]
    # A path fixes no entry window, so ``solve_joint`` has no bound to test.
    windows: ClassVar[tuple[Window, ...]] = ()

    def plan(self, x: Sequence[float]) -> FlightPlan:
        """The path the chosen arcs of the solved point ``x`` (by fragment
        column) walk, from the chosen departure to the arrival.

        Flow is 1 over each step at most, so an integral point chooses at
        most one arc out of each state; the walk follows them in a loop.
        """
        request = self.request
        chosen = {tail: head for (tail, head), value in zip(self.arcs, x, strict=True)
                  if value >= 0.5}
        state = chosen.get(None)
        if state is None:
            raise RuntimeError(f"{request.flight_id}: no departure slot chosen")
        steps = [(state[1], state[0])]
        while state[0] != request.destination:
            state = chosen.get(state)
            if state is None:
                raise RuntimeError(f"{request.flight_id}: path ends before an arrival")
            steps.append((state[1], state[0]))
        return FlightPlan(request.flight_id, tuple(steps))


class Block(Protocol):
    """One flight's part of a joint model (see the module docstring)."""

    fragment: milp.Model
    cells: Mapping[tuple[str, int], Mapping[int, float]]
    windows: Sequence[Window]

    def plan(self, x: Sequence[float]) -> FlightPlan: ...


class DropOutcome(NamedTuple):
    """What ``solve_joint`` ends with.

    ``plans`` are the kept flights' plans, read from the accepted solve, and
    ``objective`` is that solve's optimum; both are empty (``{}``, None)
    when every flight was dropped. ``attempts`` counts the loop's
    iterations and ``solves`` the models it handed to HiGHS; the energetic
    bound settled the other ``attempts - solves``. The baseline also
    reports a batch filed at its flights' cheapest schedules, with no
    loop, as one attempt and no solve (``baseline._cheapest_optimum``).
    """

    plans: dict[str, FlightPlan]
    objective: float | None
    dropped: tuple[str, ...]
    attempts: int
    solves: int


def solve_joint(
    name: str,
    blocks: Mapping[str, Block],
    active: Sequence[str],
    requests: Mapping[str, FlightRequest],
    snapshot: OccupancySnapshot,
    extend: Callable[[milp.Model, dict[str, int]], None] | None = None,
) -> DropOutcome:
    """Solve the joint model over the flights ``active``; while it has no
    accepted solution, drop ``pick_victim`` and solve again.

    Each attempt's model, named ``name``, is solved from its LP relaxation
    first. It holds the active flights' fragments appended in sorted flight
    order, then shared capacity: for each (resource, t) cell in sorted
    order that more active flights can hold than the snapshot has room
    for, the row ``cap.{rid}.{t}`` sums their occupancy terms, flight by
    flight in sorted order, at most that room. Elsewhere the row cannot
    bind: a flight's occupancy of a cell is at most 1, however many of its
    columns reach it. Each cell's room is read from the snapshot once per
    call. Last, ``extend(model, shifts)``, if given, adds what else the
    stage needs, with ``shifts`` each active flight's column offset.

    Before an attempt is built, each resource holding a crowded cell is
    tested with the energetic bound (``_exceeds_room``) over the active
    flights' ``windows``. If the bound shows the attempt has no integral
    point, the victim is dropped at once, with no model and no solve.

    Only an optimal solve is accepted, and each kept flight's plan is read
    from its block's slice of the point. Only an infeasible solve or the
    bound drops a victim: no solve has a time limit, so infeasibility is
    always proven. Any error raises, naming the model.
    """
    active = sorted(active)
    held = Counter(chain.from_iterable(blocks[fid].cells for fid in active))
    remaining = snapshot.remaining
    room = {cell: remaining(*cell) for cell in held}
    # Each resource's active windows by flight (a fixed route crosses a
    # resource once), and its bound's verdict until a drop changes them.
    spans: dict[str, dict[str, tuple[int, int, int]]] = {}
    for fid in active:
        for rid, lo, hi, stay in blocks[fid].windows:
            spans.setdefault(rid, {})[fid] = (lo, hi, stay)
    verdicts: dict[str, bool] = {}

    def overloaded(rid: str) -> bool:
        verdict = verdicts.get(rid)
        if verdict is None:
            verdict = verdicts[rid] = _exceeds_room(rid, spans[rid].values(), room)
        return verdict

    # The cells more active flights can hold than they have room for; a
    # drop can only uncrowd the victim's cells.
    crowded = {cell for cell, flights in held.items() if flights > room[cell]}
    dropped: list[str] = []
    attempts = solves = 0
    while active:
        attempts += 1
        tested = sorted({rid for rid, _ in crowded if spans.get(rid)})
        # An overload that no drop has touched settles the attempt first.
        settled = (any(verdicts.get(rid, False) for rid in tested)
                   or any(map(overloaded, tested)))
        if not settled:
            model, shifts = _joint_model(name, blocks, active, sorted(crowded), room)
            if extend is not None:
                extend(model, shifts)
            result = milp.solve(model)
            solves += 1
            if result.status == milp.OPTIMAL:
                x = result.x
                plans = {fid: blocks[fid].plan(x[shift:shift + blocks[fid].fragment.num_vars])
                         for fid, shift in shifts.items()}
                return DropOutcome(plans, result.objective, tuple(dropped), attempts, solves)
            if result.status == milp.ERROR:
                raise RuntimeError(f"{name} solve failed: {result.detail}")
        victim = pick_victim(active, requests)
        dropped.append(victim)
        active.remove(victim)
        held.subtract(blocks[victim].cells.keys())
        crowded.difference_update([cell for cell in blocks[victim].cells
                                   if held[cell] <= room[cell]])
        for rid, *_ in blocks[victim].windows:
            del spans[rid][victim]
            verdicts.pop(rid, None)
    return DropOutcome({}, None, tuple(dropped), attempts, solves)


def _joint_model(
    name: str,
    blocks: Mapping[str, Block],
    active: Sequence[str],
    crowded: Sequence[tuple[str, int]],
    room: Mapping[tuple[str, int], int],
) -> tuple[milp.Model, dict[str, int]]:
    """One attempt's model and each active flight's column offset in it:
    the flights' fragments in ``active`` order, then a ``cap`` row for each
    ``crowded`` cell (see ``solve_joint``)."""
    model = milp.Model(name=name, relaxation_first=True)
    shifts = {fid: model.append(blocks[fid].fragment) for fid in active}
    occupancy = [(shifts[fid], blocks[fid].cells) for fid in active]
    ends: list[int] = []
    indices: list[int] = []
    coeffs: list[float] = []
    for cell in crowded:
        for shift, cells in occupancy:
            terms = cells.get(cell)
            if terms is not None:
                indices += [shift + j for j in terms]
                coeffs += terms.values()
        ends.append(len(indices))
    model.add_rows(ends, indices, coeffs, ["<="] * len(ends),
                   [float(room[cell]) for cell in crowded],
                   ["cap.{}.{}".format(*cell) for cell in crowded])
    return model, shifts


def _exceeds_room(
    rid: str,
    spans: Collection[tuple[int, int, int]],
    room: Mapping[tuple[str, int], int],
) -> bool:
    """Whether flights whose (earliest entry, latest entry, minimum stay)
    on resource ``rid`` are ``spans`` need more of its cell-steps in some
    interval than ``room`` leaves there: the energetic bound (Baptiste, Le
    Pape & Nuijten, *Constraint-Based Scheduling*, 2001), in integers.

    A flight entering at e in [lo, hi] holds the resource over at least
    [e, e + stay), so in steps [a, b) it holds at least max(0, min(stay,
    b - a, lo + stay - a, b - hi)) of them. Only the steps some window
    covers can hold them, and each at most its room, so a sum above that
    room leaves no integral point. The intervals tried run from an
    earliest entry to a latest entry plus its stay. Every covered cell is
    one of the flights' ``cells``, so it is in ``room``.
    """
    first = min(lo for lo, _, _ in spans)
    covered = [0] * (max(hi + stay for _, hi, stay in spans) - first)
    for lo, hi, stay in spans:
        covered[lo - first:hi + stay - first] = [1] * (hi + stay - lo)
    # free[k] is the room of the covered steps before first + k.
    free = [0]
    for k, cover in enumerate(covered, first):
        free.append(free[-1] + room[(rid, k)] if cover else free[-1])
    starts = sorted({lo for lo, _, _ in spans})
    for b in sorted({hi + stay for _, hi, stay in spans}):
        for a in starts:
            if a >= b:
                break
            need = sum(max(0, min(stay, b - a, lo + stay - a, b - hi)) for lo, hi, stay in spans)
            if need > free[b - first] - free[a - first]:
                return True
    return False


def cell_domain(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    now: int,
) -> dict[str, tuple[int, ...]] | None:
    """The (resource, t) cells one flight's trajectory may use, as each
    usable resource mapped to its usable steps in order; None if it cannot
    fly. The origin's steps are the departure slots, the destination's the
    arrival slots.

    Departure and arrival slots are the granted ones inside the request's
    windows and the period ``[now, now + horizon)``, trimmed to pairs far
    enough apart for the hop distance between origin and destination. Every
    other resource keeps the steps inside its reachability cone (reachable
    from the first departure slot, able to reach the last arrival slot);
    zone cells are further gated by the choice set, en-route cells by
    remaining capacity, read from the snapshot's ``remaining_table`` for the
    period. The cones only cut cells no plan can use, so the optimum is
    unchanged.
    """
    s, e = request.origin, request.destination
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    horizon_end = now + grid.horizon_steps

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
    room = snapshot.remaining_table(now)
    ids = grid.resource_ids
    for i, first, last in zip(*(np.flatnonzero(in_cone), lo[in_cone], hi[in_cone])):
        rid = ids[i]
        if grid.is_zone(rid):
            cells = tuple(t for t in choices.times.get(rid, ()) if first <= t <= last)
        else:
            cells = tuple((np.flatnonzero(room[i, first - now:last - now + 1]) + first).tolist())
        if cells:
            times[rid] = cells
    return times


def state_graph(
    grid: AirspaceGrid,
    request: FlightRequest,
    domain: dict[str, tuple[int, ...]],
) -> dict[tuple[str, int, int], list[tuple[str, int, int]]]:
    """Each (resource, t, run) state a departure slot reaches over
    ``domain``, a ``cell_domain``, in step order, mapped to its successors
    in resource-id order.

    run is the current run's length in the resource, capped at its minimum
    stay (``AirspaceGrid.min_stay``); a departure is ``(origin, t, 1)``, an
    arrival ``(destination, t, 1)``. A resource is left only once the run
    reaches that stay, the origin is never re-entered, and an arrival ends
    the plan.
    """
    s, e = request.origin, request.destination
    usable = {rid: set(steps) for rid, steps in domain.items()}
    dwell = {rid: grid.min_stay(rid, request.min_dwell(rid)) for rid in domain}
    # Next resources in id order; a resource's own id means staying put.
    moves = {rid: [] if rid == e else sorted(nb for nb in (*grid.adjacency[rid], rid)
                                             if nb in domain and nb != s)
             for rid in domain}
    graph: dict[tuple[str, int, int], list[tuple[str, int, int]]] = {}
    layer: dict[tuple[str, int, int], None] = {}
    for t in range(domain[s][0], domain[e][-1] + 1):
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


def arc_fragment(
    grid: AirspaceGrid,
    request: FlightRequest,
    domain: dict[str, tuple[int, ...]],
    params: DelayCostParams,
    prefix: str,
) -> ArcFragment | None:
    """One flight's trajectory over ``domain``, a ``cell_domain``, as a unit
    flow from a source through its ``state_graph`` to an arrival, in a model
    fragment whose columns carry the flight's delay cost; None if no
    departure reaches an arrival.

    The graph is first pruned backward to the states that reach an arrival.
    The columns are the binaries of the source arcs, one per departure slot
    left, in slot order, then of the kept arcs in the graph's order. The
    rows are ``src.{fid}``, the source arcs summing to 1, then one
    conservation row ``flow.{fid}.{rid}.{t}.{run}`` per kept state other
    than an arrival, inflow less outflow equal to 0, in the graph's order.
    Dwell, one cell per step and the end of the plan at its arrival live in
    the states, so no row states them; the flow is a path polytope over a
    DAG, so the fragment alone is integral. Each arc carries its delay cost,
    (1 - alpha) t on the source arc of slot t and alpha t on each arc into
    an arrival at t, with the requested slots in the objective offset.
    """
    s, e = request.origin, request.destination
    fid = request.flight_id
    graph = state_graph(grid, request, domain)
    alive = {state for state in graph if state[0] == e}
    for state, out in reversed(graph.items()):
        if not alive.isdisjoint(out):
            alive.add(state)
    arcs: list[tuple[State | None, State]] = [
        (None, (s, t, 1)) for t in domain[s] if (s, t, 1) in alive]
    if not arcs:
        return None
    sources = len(arcs)
    arcs += [(state, succ) for state, out in graph.items() if state in alive
             for succ in out if succ in alive]

    alpha = params.alpha
    fragment = milp.Model(name=prefix)
    fragment.binaries([f"{prefix}>{s}.{head[1]}" for _, head in arcs[:sources]]
                      + [f"{prefix}.{rid}.{t}.{run}>{head[0]}.{head[2]}"
                         for (rid, t, run), head in arcs[sources:]],
                      cost=[(1.0 - alpha) * head[1] if tail is None
                            else alpha * head[1] if head[0] == e else 0.0
                            for tail, head in arcs])
    fragment.objective_offset = -(alpha * request.requested_arrival
                                  + (1.0 - alpha) * request.requested_departure)
    into: dict[State, list[int]] = {}
    leaving: dict[State, list[int]] = {}
    cells: dict[tuple[str, int], dict[int, float]] = {}
    for j, (tail, head) in enumerate(arcs):
        into.setdefault(head, []).append(j)
        cells.setdefault(head[:2], {})[j] = 1.0
        if tail is not None:
            leaving.setdefault(tail, []).append(j)

    indices = list(range(sources))
    coeffs = [1.0] * sources
    ends = [sources]
    labels = [f"src.{fid}"]
    for state in graph:
        if state in alive and state[0] != e:
            indices += into[state] + leaving[state]
            coeffs += [1.0] * len(into[state]) + [-1.0] * len(leaving[state])
            ends.append(len(indices))
            labels.append("flow.{}.{}.{}.{}".format(fid, *state))
    fragment.add_rows(ends, indices, coeffs, ["="] * len(ends), [1.0] + [0.0] * (len(ends) - 1),
                      labels)
    return ArcFragment(request, fragment, arcs, cells)
