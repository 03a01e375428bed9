"""Solution-level constraint re-checks shared by planners, oracle, and audits.

Each feasibility rule is stated here once:

- ``plan_violations``: one plan against the trajectory families (known
  cells inside the period, origin and destination slots, departure and
  arrival windows, adjacent moves, minimum stay (``AirspaceGrid.min_stay``),
  and remaining capacity or choice-set conformance per step);
- ``choice_violations``: a joint choice allocation against the
  choice-setting families, including its joint capacity over zone cells;
- ``detect_conflicts``: joint capacity over a set of plans, cell by cell
  against a snapshot's remaining capacity. It finds the conflicts step 3
  deconflicts and audits each period's new plans before they are filed.

``audit_batch`` is the one re-check after a joint solve (deconfliction and
the fixed-route schedule): ``audit_plans`` (``plan_violations`` on every
plan), then ``detect_conflicts`` on the batch; any problem raises. A
fixed-route batch filed at its flights' cheapest schedules with no solve
has passed ``detect_conflicts`` in its proof, so it takes ``audit_plans``
alone.
``audit_objective`` is the one check of a batch's optimum against the cost
recomputed from its plans.

So a disagreement between a solver and the enumeration oracle can only come
from model construction, never from two diverging notions of feasibility.

Conventions: a planning period covers absolute timesteps [now, now + horizon).
``choices=None`` in plan_violations means the plan is not governed by a
choice set (fixed-route baseline); capacity is then checked on every
resource instead of en-route sectors only.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .airspace import AirspaceGrid, OccupancySnapshot
from .flights import ChoiceSet, FlightPlan, FlightRequest

__all__ = [
    "Conflict",
    "ConflictReport",
    "audit_batch",
    "audit_objective",
    "audit_plans",
    "choice_violations",
    "detect_conflicts",
    "plan_violations",
]


@dataclass(frozen=True)
class Conflict:
    """One overloaded cell: more plans than remaining capacity."""

    resource_id: str
    t: int
    flight_ids: tuple[str, ...]
    remaining: int

    def __str__(self) -> str:
        return (f"({self.resource_id}, t={self.t}): {len(self.flight_ids)} "
                f"flights onto remaining {self.remaining}")


@dataclass(frozen=True)
class ConflictReport:
    conflicts: tuple[Conflict, ...]
    conflicting_flights: frozenset[str]

    @property
    def has_conflicts(self) -> bool:
        return bool(self.conflicts)


def plan_violations(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    plan: FlightPlan,
    now: int,
    *,
    choices: ChoiceSet | None = None,
) -> list[str]:
    """Re-check one plan against the trajectory constraint families."""
    out: list[str] = []
    horizon_end = now + grid.horizon_steps
    fid = request.flight_id
    if plan.flight_id != fid:
        out.append(f"plan {plan.flight_id} checked against request {fid}")
    if choices is not None and choices.flight_id != fid:
        out.append(f"choice set {choices.flight_id} checked against request {fid}")

    for t, rid in plan.steps:
        try:
            grid.resource(rid)
        except KeyError:
            out.append(f"{fid}: unknown resource {rid} at t={t}")
            return out
        if not now <= t < horizon_end:
            out.append(f"{fid}: step at t={t} outside period [{now}, {horizon_end})")

    # Exactly one origin slot and one destination slot, at the plan's ends.
    if plan.origin != request.origin:
        out.append(f"{fid}: plan starts at {plan.origin}, not origin {request.origin}")
    if plan.destination != request.destination:
        out.append(
            f"{fid}: plan ends at {plan.destination}, not destination {request.destination}"
        )
    origin_visits = sum(1 for _, rid in plan.steps if rid == request.origin)
    dest_visits = sum(1 for _, rid in plan.steps if rid == request.destination)
    if origin_visits != 1:
        out.append(f"{fid}: origin occupied {origin_visits} times, expected 1")
    if dest_visits != 1:
        out.append(f"{fid}: destination occupied {dest_visits} times, expected 1")

    d, eps = request.requested_departure, request.flexibility
    if not d <= plan.d_prop <= d + eps:
        out.append(f"{fid}: departure {plan.d_prop} outside [{d}, {d + eps}]")
    if plan.a_prop < request.requested_arrival:
        out.append(
            f"{fid}: arrival {plan.a_prop} before requested {request.requested_arrival}"
        )

    # Consecutive resources identical or adjacent.
    for (t0, r0), (_, r1) in zip(plan.steps, plan.steps[1:]):
        if r0 != r1 and r1 not in grid.adjacency[r0]:
            out.append(f"{fid}: jump {r0} -> {r1} at t={t0} not adjacent")

    # Minimum stay per maximal run; steps are gap-free, so a run lasts until
    # the next one starts.
    entries = plan.entries()
    for (start, rid), end in zip(entries, [t for t, _ in entries[1:]] + [plan.a_prop + 1]):
        length = end - start
        stay = grid.min_stay(rid, request.min_dwell(rid))
        if length < stay:
            out.append(f"{fid}: run of {length} in {rid} at t={start} below dwell {stay}")

    # Capacity and choice-set conformance.
    for t, rid in plan.steps:
        if choices is not None and grid.is_zone(rid):
            if not choices.contains(rid, t):
                out.append(f"{fid}: ({rid}, t={t}) not offered in the choice set")
        elif snapshot.remaining(rid, t) < 1:
            out.append(f"{fid}: no remaining capacity at ({rid}, t={t})")
    return out


def choice_violations(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Iterable[FlightRequest],
    allocation: Mapping[str, ChoiceSet],
    now: int,
) -> list[str]:
    """Re-check a joint choice allocation against the choice-setting families."""
    out: list[str] = []
    horizon_end = now + grid.horizon_steps
    requests = list(requests)
    ids = [r.flight_id for r in requests]
    if len(set(ids)) != len(ids):
        out.append("duplicate flight ids in request batch")
    missing = [fid for fid in ids if fid not in allocation]
    if missing:
        out.append(f"no choice set returned for {missing}")
        return out

    for request in requests:
        fid = request.flight_id
        chset = allocation[fid]
        d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
        lo, hi = max(now, d), min(horizon_end, a + eps)
        for rid, times in chset.times.items():
            zone = grid.is_zone(rid)
            if zone and lo <= times[0] and times[-1] < hi:
                continue
            for t in times:
                if not zone:
                    out.append(f"{fid}: choice at non-zone resource {rid}")
                if not now <= t < horizon_end:
                    out.append(f"{fid}: choice ({rid}, t={t}) outside the period window")
                if t < d or t >= a + eps:
                    out.append(f"{fid}: choice ({rid}, t={t}) outside [{d}, {a + eps})")
        departures, arrivals = chset.departure_slots, chset.arrival_slots
        for t in departures:
            if not d <= t <= d + eps:
                out.append(f"{fid}: departure slot t={t} outside [{d}, {d + eps}]")
        for t in arrivals:
            if not a <= t <= a + eps:
                out.append(f"{fid}: arrival slot t={t} outside [{a}, {a + eps}]")

        # A granted departure slot needs an adjacent choice one step later,
        # a granted arrival slot one step earlier.
        for t in departures:
            if not any(chset.contains(nb, t + 1) for nb in grid.adjacency[request.origin]):
                out.append(f"{fid}: departure slot t={t} has no adjacent choice at t+1")
        for t in arrivals:
            if not any(
                chset.contains(nb, t - 1) for nb in grid.adjacency[request.destination]
            ):
                out.append(f"{fid}: arrival slot t={t} has no adjacent choice at t-1")

        # Dwell linkage on ring sectors: a run of permitted steps that breaks
        # off at t inside the period needs all l steps before t permitted.
        for rid, dwell in request.dwell:
            if dwell <= 1 or rid not in grid.ring:
                continue
            times = chset.times.get(rid, ())
            for i, last in enumerate(times):
                t = last + 1
                if not now < t < horizon_end or (i + 1 < len(times) and times[i + 1] == t):
                    continue
                window = i + 1 - bisect_left(times, t - dwell)
                if window < dwell:
                    out.append(
                        f"{fid}: choice run at {rid} breaks off at t={t} "
                        f"with only {window} of {dwell} dwell steps offered"
                    )

    # Joint capacity over zone resources: each cell's use, counted once over
    # the batch, against its remaining capacity, read from the period's table
    # (cell by cell outside the period).
    demand: Counter[tuple[str, int]] = Counter()
    for fid in ids:
        demand.update(allocation[fid].choices)
    room = snapshot.remaining_table(now)
    over = []
    for (rid, t), count in demand.items():
        left = (int(room[grid.row(rid), t - now]) if now <= t < horizon_end
                else snapshot.remaining(rid, t))
        if count > left:
            over.append((rid, t, count, left))
    for rid, t, count, left in sorted(over):
        out.append(f"choices over capacity at ({rid}, t={t}): {count} > {left}")
    return out


def detect_conflicts(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    plans: Mapping[str, FlightPlan],
) -> ConflictReport:
    """Find every cell where the plans jointly exceed remaining capacity."""
    usage: dict[tuple[str, int], list[str]] = {}
    for fid in sorted(plans):
        for t, rid in plans[fid].steps:
            usage.setdefault((rid, t), []).append(fid)
    conflicts = []
    involved: set[str] = set()
    for (rid, t), fids in sorted(usage.items()):
        remaining = snapshot.remaining(rid, t)
        if len(fids) > remaining:
            conflicts.append(Conflict(rid, t, tuple(fids), remaining))
            involved.update(fids)
    return ConflictReport(tuple(conflicts), frozenset(involved))


def audit_plans(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Mapping[str, FlightRequest],
    plans: Mapping[str, FlightPlan],
    now: int,
    what: str,
    *,
    choice_sets: Mapping[str, ChoiceSet] | None = None,
) -> None:
    """Re-check each plan of a batch on its own (``plan_violations``); the
    first flight with a problem raises.

    ``what`` names the batch in the error ("deconflicted", "fixed-route").
    With ``choice_sets`` each plan is held to its own choice set on zone
    cells; without, capacity is checked on every cell.
    """
    for fid in sorted(plans):
        problems = plan_violations(
            grid, snapshot, requests[fid], plans[fid], now,
            choices=None if choice_sets is None else choice_sets[fid],
        )
        if problems:
            raise RuntimeError(
                f"{fid}: {what} plan failed re-check: " + "; ".join(problems[:5])
            )


def audit_batch(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Mapping[str, FlightRequest],
    plans: Mapping[str, FlightPlan],
    now: int,
    what: str,
    *,
    choice_sets: Mapping[str, ChoiceSet] | None = None,
) -> None:
    """Re-check a solved batch: each plan on its own (``audit_plans``), then
    joint capacity; any problem raises."""
    audit_plans(grid, snapshot, requests, plans, now, what, choice_sets=choice_sets)
    report = detect_conflicts(grid, snapshot, plans)
    if report.has_conflicts:
        raise RuntimeError(
            f"{what} batch breaks capacity: "
            + "; ".join(map(str, report.conflicts[:5]))
        )


def audit_objective(what: str, objective: float, expected: float) -> None:
    """Raise unless a joint solve's ``objective``, ``what`` in the error, equals
    ``expected``, the cost recomputed from its plans, to 1e-6 (relative above 1)."""
    if abs(expected - objective) > 1e-6 * max(1.0, abs(expected)):
        raise RuntimeError(
            f"{what} objective {objective} disagrees with recomputed cost {expected}")
