"""Trajectory step: one operator planning one flight under granted choices.

A plan is a path through the time-expanded grid, one cell per step from a
departure slot at the origin to an arrival slot at the destination. The
cells it may use are the flight's ``cell_domain``: hop-distance cones
between the first departure slot and the last arrival slot, with zone
cells gated by the choice set and en-route cells by remaining capacity.
The total delay cost depends on the two end slots only, so ``solve_step2``
finds the optimum exactly by a label search over (resource, t, run) states,
where run is the length of the current minimum-dwell run (label setting
for resource-constrained shortest paths, Irnich & Desaulniers 2005). Ties
go to the lexicographically smallest plan, so the plan does not depend on
any solver.

The same domain, written as binary presence variables with Big-M dwell
linkage (``add_presence_block``), is each flight's block in step 3's joint
deconfliction MILP.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .checker import plan_violations
from .flights import (
    ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, path_length, slot_tdc, tdc,
)

__all__ = [
    "FlightPlan",
    "CellDomain",
    "DelayCostParams",
    "PresenceBlock",
    "Step2Result",
    "add_capacity_rows",
    "add_dwell_linkage",
    "add_presence_block",
    "cell_domain",
    "extract_plan",
    "solve_step2",
    "path_length",
    "tdc",
]


@dataclass
class PresenceBlock:
    """One flight's presence variables and bookkeeping inside a model."""

    request: FlightRequest
    vars: dict[tuple[str, int], str]
    departure_slots: tuple[int, ...]
    arrival_slots: tuple[int, ...]
    tdc_coeffs: dict[str, float]
    tdc_offset: float


@dataclass(frozen=True)
class CellDomain:
    """The (resource, t) cells one flight's trajectory may use.

    ``times`` maps each usable resource to its usable steps in order; the
    origin's are the departure slots, the destination's the arrival slots.
    """

    times: dict[str, tuple[int, ...]]
    departure_slots: tuple[int, ...]
    arrival_slots: tuple[int, ...]


@dataclass
class Step2Result:
    plan: FlightPlan | None
    tdc: float | None
    solve_time: float

    @property
    def infeasible(self) -> bool:
        return self.plan is None


def add_dwell_linkage(
    model: milp.Model,
    presence: Mapping[tuple[str, int], str],
    request: FlightRequest,
    rid: str,
    first: int,
    last: int,
    horizon_end: int,
    big_m: int,
    aux_prefix: str,
) -> None:
    """Big-M minimum dwell at ``rid``: a run may end at step t only once the
    trailing window of ``request.min_dwell(rid)`` steps is full.

    ``presence`` maps (resource, t) to the binary that marks the flight (or
    its offered choice) in that cell; a missing key is a cell it cannot use.
    For each t from first + 1 to min(last + 1, horizon_end - 1) that follows
    a usable step, an auxiliary binary ``{aux_prefix}.{t}`` is 1 exactly
    when the window is not yet full, and then the run must go on at t.
    """
    fid = request.flight_id
    dwell = request.min_dwell(rid)
    if dwell <= 1:
        return
    for t in range(first + 1, min(last + 1, horizon_end - 1) + 1):
        prev = presence.get((rid, t - 1))
        if prev is None:
            continue
        aux = model.binary(f"{aux_prefix}.{t}")
        window = {}
        for tt in range(t - dwell, t):
            w = presence.get((rid, tt))
            if w is not None:
                window[w] = 1.0
        model.add({aux: float(big_m), **window}, ">=", float(dwell),
                  label=f"dwlo.{fid}.{rid}.{t}")
        model.add({aux: float(big_m), **window}, "<=", float(big_m + dwell - 1),
                  label=f"dwhi.{fid}.{rid}.{t}")
        cur = presence.get((rid, t))
        coeffs = {prev: -1.0, aux: -1.0}
        if cur is not None:
            coeffs[cur] = 1.0
        model.add(coeffs, ">=", -1.0, label=f"dwrun.{fid}.{rid}.{t}")


def add_capacity_rows(
    model: milp.Model,
    snapshot: OccupancySnapshot,
    usage: Mapping[tuple[str, int], Mapping[str, float]],
) -> None:
    """Joint capacity: for each (resource, t) cell in sorted order, the row
    ``cap.{rid}.{t}``, the sum of ``usage[cell]`` at most the snapshot's
    remaining capacity. A row is added only where more coefficients are
    positive than the cell has remaining capacity, since elsewhere it
    cannot bind.
    """
    for (rid, t), coeffs in sorted(usage.items()):
        remaining = snapshot.remaining(rid, t)
        if sum(1 for c in coeffs.values() if c > 0) > remaining:
            model.add(coeffs, "<=", float(remaining), label=f"cap.{rid}.{t}")


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


def add_presence_block(
    model: milp.Model,
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    params: DelayCostParams,
    now: int,
    horizon_end: int,
    prefix: str,
) -> PresenceBlock | None:
    """Add one flight's trajectory constraints over its ``cell_domain``;
    None if it cannot fly."""
    domain = cell_domain(grid, snapshot, request, choices, now, horizon_end)
    if domain is None:
        return None
    fid = request.flight_id
    s, e = request.origin, request.destination
    d, a = request.requested_departure, request.requested_arrival
    big_m = grid.horizon_steps + 1
    by_resource = domain.times
    dep_slots, arr_slots = domain.departure_slots, domain.arrival_slots

    uvars: dict[tuple[str, int], str] = {}
    for rid in sorted(by_resource):
        for t in by_resource[rid]:
            uvars[(rid, t)] = model.binary(f"{prefix}.{rid}.{t}")

    def var(rid: str, t: int) -> str | None:
        return uvars.get((rid, t))

    # Exactly one departure slot and one arrival slot.
    model.add({var(s, t): 1.0 for t in dep_slots}, "=", 1.0, label=f"dep1.{fid}")
    model.add({var(e, t): 1.0 for t in arr_slots}, "=", 1.0, label=f"arr1.{fid}")

    # Presence must extend presence in the same or an adjacent resource one
    # step earlier, except at the origin.
    for rid in sorted(by_resource):
        if rid == s:
            continue
        for t in by_resource[rid]:
            coeffs = {uvars[(rid, t)]: 1.0}
            for nb in (*grid.adjacency[rid], rid):
                prev = var(nb, t - 1)
                if prev is not None:
                    coeffs[prev] = coeffs.get(prev, 0.0) - 1.0
            model.add(coeffs, "<=", 0.0, label=f"link.{fid}.{rid}.{t}")

    # Arrival ends the flight: no presence anywhere else after the chosen
    # arrival slot. A lone flight only loses cost-free idling to this, but in
    # the joint deconfliction model the path length feeds the fairness term,
    # so idling must not be able to pad it.
    for rid in sorted(by_resource):
        if rid == e:
            continue
        for t in by_resource[rid]:
            before = {uvars[(e, ta)]: 1.0 for ta in arr_slots if ta < t}
            if before:
                model.add({uvars[(rid, t)]: 1.0, **before}, "<=", 1.0,
                          label=f"end.{fid}.{rid}.{t}")

    # Minimum dwell per sector, Big-M linked.
    for rid in sorted(by_resource):
        if grid.resource(rid).kind == "sector":
            times = by_resource[rid]
            add_dwell_linkage(model, uvars, request, rid, times[0], times[-1],
                              horizon_end, big_m, aux_prefix=f"{prefix}.dw.{rid}")

    # At most one resource per timestep.
    by_time: dict[int, list[str]] = {}
    for (rid, t), name in uvars.items():
        by_time.setdefault(t, []).append(name)
    for t, names in sorted(by_time.items()):
        if len(names) > 1:
            model.add({n: 1.0 for n in names}, "<=", 1.0, label=f"one.{fid}.{t}")

    alpha = params.alpha
    tdc_coeffs: dict[str, float] = {}
    for t in dep_slots:
        tdc_coeffs[uvars[(s, t)]] = (1.0 - alpha) * t
    for t in arr_slots:
        tdc_coeffs[uvars[(e, t)]] = tdc_coeffs.get(uvars[(e, t)], 0.0) + alpha * t
    tdc_offset = -(alpha * a + (1.0 - alpha) * d)

    return PresenceBlock(
        request=request,
        vars=uvars,
        departure_slots=dep_slots,
        arrival_slots=arr_slots,
        tdc_coeffs=tdc_coeffs,
        tdc_offset=tdc_offset,
    )


def extract_plan(block: PresenceBlock, values: dict[str, float]) -> FlightPlan:
    """Read the chosen presences, dropping any idling past the arrival slot.

    Post-arrival presences are objective-free and constraint-slack, so
    removing them keeps the plan optimal and feasible.
    """
    request = block.request
    arrival = None
    for t in block.arrival_slots:
        if values.get(block.vars[(request.destination, t)], 0.0) >= 0.5:
            arrival = t
            break
    if arrival is None:
        raise RuntimeError(f"{request.flight_id}: no arrival slot chosen")
    steps = sorted(
        (t, rid)
        for (rid, t), name in block.vars.items()
        if t <= arrival and values.get(name, 0.0) >= 0.5
    )
    return FlightPlan(request.flight_id, tuple(steps))


def _search(
    grid: AirspaceGrid,
    request: FlightRequest,
    domain: CellDomain,
    params: DelayCostParams,
) -> tuple[float, FlightPlan] | None:
    """The least-cost plan over ``domain`` under the tie rule, or None.

    A state is (resource, t, run): the cell the flight is in and the length
    of its current run there, capped at the resource's minimum dwell. The
    flight may leave a resource only once the run has reached that dwell;
    it never returns to the origin, and reaching the destination ends the
    plan. The forward pass marks, for every state, which departure slots
    reach it, so it yields every feasible (departure, arrival) pair and
    with them the least cost. The second pass is a depth-first search from
    the chosen departure that tries successors in resource-id order and
    remembers every state from which no arrival at that cost can be
    reached, so it visits each state once; the first plan it completes is
    the lexicographically smallest.
    """
    s, e = request.origin, request.destination
    usable = {(rid, t) for rid, times in domain.times.items() for t in times}
    dwell = {rid: request.min_dwell(rid) if grid.resource(rid).kind == "sector" else 1
             for rid in domain.times}
    # Next resources in id order; a resource's own id means staying put.
    moves = {rid: sorted(nb for nb in (*grid.adjacency[rid], rid)
                         if nb in domain.times and nb != s)
             for rid in domain.times}

    def successors(rid: str, t: int, run: int) -> list[tuple[str, int]]:
        out = []
        for nb in moves[rid]:
            if (nb, t + 1) not in usable:
                continue
            if nb == rid:
                out.append((rid, min(run + 1, dwell[rid])))
            elif run >= dwell[rid]:
                out.append((nb, 1))
        return out

    dep_bit = {t: 1 << i for i, t in enumerate(domain.departure_slots)}
    arrived: dict[int, int] = {}
    layer: dict[tuple[str, int], int] = {}
    for t in range(domain.departure_slots[0], domain.arrival_slots[-1]):
        if t in dep_bit:
            layer[(s, 1)] = dep_bit[t]
        after: dict[tuple[str, int], int] = {}
        for (rid, run), mask in layer.items():
            for state in successors(rid, t, run):
                if state[0] == e:
                    arrived[t + 1] = arrived.get(t + 1, 0) | mask
                else:
                    after[state] = after.get(state, 0) | mask
        layer = after

    best: tuple[float, int] | None = None
    for arrival, mask in arrived.items():
        for departure, bit in dep_bit.items():
            if mask & bit:
                key = (slot_tdc(request, params, departure, arrival), departure)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    cost, departure = best
    targets = {
        arrival for arrival, mask in arrived.items()
        if mask & dep_bit[departure]
        and slot_tdc(request, params, departure, arrival) == cost
    }

    steps = [(departure, s)]
    dead: set[tuple[str, int, int]] = set()

    def extend(rid: str, t: int, run: int) -> bool:
        for nb, nb_run in successors(rid, t, run):
            if nb == e:
                if t + 1 in targets:
                    steps.append((t + 1, e))
                    return True
            elif (nb, t + 1, nb_run) not in dead:
                steps.append((t + 1, nb))
                if extend(nb, t + 1, nb_run):
                    return True
                steps.pop()
                dead.add((nb, t + 1, nb_run))
        return False

    if not extend(s, departure, 1):
        raise RuntimeError(
            f"{request.flight_id}: no path to the arrival the forward pass reached"
        )
    return cost, FlightPlan(request.flight_id, tuple(steps))


def solve_step2(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    params: DelayCostParams,
    now: int = 0,
) -> Step2Result:
    """The flight's least-delay plan inside its granted choices, or no plan.

    Tie rule: least TDC, then the lexicographically smallest ``steps``
    tuple, the key ``oracle.oracle_step2_optimum`` ranks by. The plan is
    re-checked by ``plan_violations``, and its TDC must equal the search's
    optimum. ``solve_time`` is the wall time of the domain and the search.
    """
    if choices.is_empty:
        raise ValueError(
            f"{request.flight_id}: empty choice set; unassigned flights are "
            "carried over, not planned"
        )
    start = time.perf_counter()
    horizon_end = now + grid.horizon_steps
    domain = cell_domain(grid, snapshot, request, choices, now, horizon_end)
    found = None if domain is None else _search(grid, request, domain, params)
    elapsed = time.perf_counter() - start
    if found is None:
        return Step2Result(plan=None, tdc=None, solve_time=elapsed)

    optimum, plan = found
    problems = plan_violations(
        grid, snapshot, request, plan, now, horizon_end, choices=choices
    )
    if problems:
        raise RuntimeError(
            "trajectory search result failed re-check: " + "; ".join(problems[:5])
        )
    cost = tdc(plan, request, params)
    if cost != optimum:
        raise RuntimeError(
            f"{request.flight_id}: plan delay cost {cost} disagrees with the "
            f"search optimum {optimum}"
        )
    return Step2Result(plan=plan, tdc=cost, solve_time=elapsed)
