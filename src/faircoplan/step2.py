"""Trajectory MILP: one operator planning one flight under granted choices.

Binary presence variables u[r,t] ("the flight is in r at t") are created only
where a presence could appear in some optimal plan: zone resources are gated
by the choice set, en-route sectors by remaining capacity, and everything by
hop-distance reachability cones between the first departure slot and the
last arrival slot. The cones only cut assignments that no plan (after
dropping post-arrival idling) can contain, so the optimum is unchanged.

The objective is the total delay cost against the requested times.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .checker import plan_violations
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, path_length, tdc

__all__ = [
    "FlightPlan",
    "DelayCostParams",
    "PresenceBlock",
    "Step2Result",
    "add_dwell_linkage",
    "add_presence_block",
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


@dataclass
class Step2Result:
    plan: FlightPlan | None
    tdc: float | None
    solve_time: float
    result: milp.SolveResult | None = None

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
    """Add one flight's trajectory constraints; None if trivially infeasible."""
    fid = request.flight_id
    s, e = request.origin, request.destination
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    big_m = grid.horizon_steps + 1

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

    by_resource: dict[str, list[int]] = {s: dep_slots, e: arr_slots}
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
            times = sorted(t for t in choice_times.get(rid, ()) if lo <= t <= hi)
        else:
            times = [t for t in range(lo, hi + 1) if snapshot.remaining(rid, t) >= 1]
        if times:
            by_resource[rid] = times

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
        departure_slots=tuple(dep_slots),
        arrival_slots=tuple(arr_slots),
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


def solve_step2(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    params: DelayCostParams,
    now: int = 0,
    *,
    limits: milp.SolveLimits | None = None,
) -> Step2Result:
    if choices.is_empty:
        raise ValueError(
            f"{request.flight_id}: empty choice set; unassigned flights are "
            "carried over, not planned"
        )
    horizon_end = now + grid.horizon_steps
    model = milp.Model(name=f"trajectory.{request.flight_id}", sense="min")
    block = add_presence_block(
        model, grid, snapshot, request, choices, params, now, horizon_end,
        prefix=f"u.{request.flight_id}",
    )
    if block is None:
        return Step2Result(plan=None, tdc=None, solve_time=0.0)
    model.set_objective(block.tdc_coeffs, offset=block.tdc_offset)

    result = milp.solve(model, limits=limits)
    if result.status == milp.INFEASIBLE:
        return Step2Result(plan=None, tdc=None, solve_time=result.wall_time, result=result)
    if result.status == milp.ERROR:
        if result.hit_time_limit:
            return Step2Result(plan=None, tdc=None, solve_time=result.wall_time, result=result)
        raise RuntimeError(f"trajectory solve failed: {result.detail}")

    plan = extract_plan(block, result.values)
    problems = plan_violations(
        grid, snapshot, request, plan, now, horizon_end, choices=choices
    )
    if problems:
        raise RuntimeError(
            f"trajectory solution failed re-check: " + "; ".join(problems[:5])
        )
    cost = tdc(plan, request, params)
    if result.status == milp.OPTIMAL and abs(cost - result.objective) > 1e-6:
        raise RuntimeError(
            f"{request.flight_id}: extracted delay cost {cost} disagrees with "
            f"objective {result.objective}"
        )
    return Step2Result(plan=plan, tdc=cost, solve_time=result.wall_time, result=result)
