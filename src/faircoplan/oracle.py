"""Brute-force reference optimizers for tiny instances.

Everything here enumerates raw candidate spaces and filters them through the
shared feasibility checker, with no reuse of the production models: plans are
grown cell by cell over the adjacency graph, choice families are subsets of a
window-by-window domain, and fixed-route schedules are entry-time vectors.
The results are ground truth for the self-check suite. Work is metered; a
search that would exceed its node budget raises OracleSizeError instead of
running forever.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .airspace import AirspaceGrid, OccupancySnapshot
from .baseline import FixedRoute, fixed_route, leg_dwells
from .checker import choice_violations, plan_violations
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, path_length, tdc
from .step1 import choice_domains

__all__ = [
    "DEFAULT_BUDGET",
    "OracleSizeError",
    "TinyInstance",
    "choice_domain",
    "enumerate_feasible_plans",
    "enumerate_choice_families",
    "oracle_step1_optimum",
    "oracle_step2_optimum",
    "oracle_joint_optimum",
    "oracle_tfmp_optimum",
]

DEFAULT_BUDGET = 10_000_000


class OracleSizeError(RuntimeError):
    """The instance is too large for exhaustive search."""


@dataclass(frozen=True)
class TinyInstance:
    """A brute-forceable scenario: at most 5x5 cells, 10 steps, 3 flights."""

    name: str
    grid: AirspaceGrid
    requests: tuple[FlightRequest, ...]
    base: tuple[tuple[str, int, int], ...] = ()
    now: int = 0
    gamma: float = 0.0
    params: DelayCostParams = DelayCostParams()

    def __post_init__(self) -> None:
        cfg = self.grid.config
        if cfg.rows > 5 or cfg.cols > 5:
            raise ValueError(f"{self.name}: grid larger than 5x5")
        if cfg.horizon_steps > 10:
            raise ValueError(f"{self.name}: horizon longer than 10 steps")
        if len(self.requests) > 3:
            raise ValueError(f"{self.name}: more than 3 requests")
        for rid, t, count in self.base:
            self.grid.resource(rid)
            if count < 1 or t < 0:
                raise ValueError(f"{self.name}: bad base occupancy ({rid}, {t}, {count})")
        # Every capacity check reads remaining capacity, which is clipped at
        # zero; it matches occupancy + demand <= capacity only while the base
        # itself fits, as the ledger guarantees for campaigns.
        for (rid, t), count in sorted(self._counts().items()):
            if count > self.grid.capacity(rid, t):
                raise ValueError(
                    f"{self.name}: bad base occupancy at ({rid}, {t}): "
                    f"{count} > capacity {self.grid.capacity(rid, t)}"
                )

    def _counts(self) -> dict[tuple[str, int], int]:
        counts: dict[tuple[str, int], int] = {}
        for rid, t, count in self.base:
            counts[(rid, t)] = counts.get((rid, t), 0) + count
        return counts

    def snapshot(self) -> OccupancySnapshot:
        return OccupancySnapshot(self.grid, self._counts())


class _Meter:
    def __init__(self, budget: int, what: str) -> None:
        self.budget = budget
        self.what = what
        self.nodes = 0

    def tick(self, cost: int = 1) -> None:
        self.nodes += cost
        if self.nodes > self.budget:
            raise OracleSizeError(
                f"{self.what}: exceeded search budget of {self.budget} nodes"
            )


def enumerate_feasible_plans(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    now: int = 0,
    *,
    choices: ChoiceSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[FlightPlan, ...]:
    """Every plan the flight could legally fly, by exhaustive growth.

    With a choice set, this is the space the trajectory step optimizes over;
    without one, any capacity-feasible trajectory counts. Plans end on the
    step the destination is first occupied.
    """
    end = now + grid.horizon_steps
    d, eps = request.requested_departure, request.flexibility
    if choices is not None:
        if choices.is_empty:
            return ()
        dep_slots: Sequence[int] = choices.departure_slots
        latest_arrival = max(choices.arrival_slots) if choices.arrival_slots else -1
    else:
        dep_slots = range(max(d, now), min(d + eps, end - 2) + 1)
        latest_arrival = end - 1
    dist_to_dest = grid.hop_distances(request.destination)
    if request.origin not in dist_to_dest:
        return ()

    meter = _Meter(budget, f"plan enumeration for {request.flight_id}")
    plans: list[FlightPlan] = []

    def grow(steps: list[tuple[int, str]]) -> None:
        meter.tick()
        t, rid = steps[-1]
        nxt = t + 1
        if nxt > latest_arrival:
            return
        for nb in sorted((*grid.adjacency[rid], rid)):
            if nb == request.origin:
                continue
            remaining_ok = snapshot.remaining(nb, nxt) >= 1
            if grid.is_zone(nb):
                if choices is not None:
                    if not choices.contains(nb, nxt):
                        continue
                elif not remaining_ok:
                    continue
            elif not remaining_ok:
                continue
            if nxt + dist_to_dest.get(nb, end) > latest_arrival:
                continue
            steps.append((nxt, nb))
            if nb == request.destination:
                candidate = FlightPlan(request.flight_id, tuple(steps))
                if not plan_violations(grid, snapshot, request, candidate, now,
                                       choices=choices):
                    plans.append(candidate)
            else:
                grow(steps)
            steps.pop()

    for t0 in sorted(dep_slots):
        if now <= t0 <= end - 2:
            grow([(t0, request.origin)])
    return tuple(plans)


def oracle_step2_optimum(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    choices: ChoiceSet,
    params: DelayCostParams,
    now: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, FlightPlan] | tuple[None, None]:
    """Cheapest single-flight plan by enumeration; (None, None) if none exist.

    Tie rule: least TDC, then the lexicographically smallest ``steps``
    tuple, the rule ``step2.solve_step2`` applies.
    """
    plans = enumerate_feasible_plans(grid, snapshot, request, now,
                                     choices=choices, budget=budget)
    if not plans:
        return None, None
    best = min(plans, key=lambda p: (tdc(p, request, params), p.steps))
    return tdc(best, request, params), best


def choice_domain(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    now: int,
) -> list[tuple[str, int]]:
    """Zone cells inside the flight's time window with spare capacity."""
    end = now + grid.horizon_steps
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    lo, hi = max(d, now), min(a + eps - 1, end - 1)
    return sorted(
        (rid, t)
        for rid in sorted(grid.zone)
        for t in range(lo, hi + 1)
        if snapshot.remaining(rid, t) >= 1
    )


def enumerate_choice_families(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    request: FlightRequest,
    now: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[frozenset[tuple[str, int]], ...]:
    """Every per-flight choice grant that is valid on its own.

    Candidate cells are simply all zone cells inside the flight's time
    window with spare capacity; subsets are filtered through the shared
    checker. The empty family (flight left unassigned) is always valid.
    """
    domain = choice_domain(grid, snapshot, request, now)
    if len(domain) > 22:
        raise OracleSizeError(
            f"choice domain for {request.flight_id} has {len(domain)} cells; "
            "subset enumeration would be unreasonable"
        )
    meter = _Meter(budget, f"choice enumeration for {request.flight_id}")
    families: list[frozenset[tuple[str, int]]] = []
    for size in range(len(domain) + 1):
        for combo in itertools.combinations(domain, size):
            meter.tick()
            cells = frozenset(combo)
            allocation = {
                request.flight_id: ChoiceSet(
                    request.flight_id, request.origin, request.destination, cells
                )
            }
            if not choice_violations(grid, snapshot, [request], allocation, now):
                families.append(cells)
    return tuple(families)


def oracle_step1_optimum(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Sequence[FlightRequest],
    now: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, dict[str, frozenset[tuple[str, int]]]]:
    """Best jointly-valid choice allocation under the service-first score.

    A family that contains at least one departure and one arrival slot earns
    the same service weight the choice-setting model uses (one more than the
    combined window sizes), and every granted cell adds one. Flights whose
    windows do not fit the horizon are carried over, not planned, so they
    contribute an empty grant here — the same rule the production step
    applies.
    """
    end = now + grid.horizon_steps
    ordered = sorted(requests, key=lambda r: r.flight_id)
    window_total = 0
    families: list[tuple[FlightRequest, tuple[frozenset[tuple[str, int]], ...]]] = []
    for req in ordered:
        dom = choice_domains(grid, req, now)
        fits = (
            req.requested_arrival + req.flexibility <= end
            and len(dom[req.origin]) > 0
            and len(dom[req.destination]) > 0
        )
        if not fits:
            fams: tuple[frozenset[tuple[str, int]], ...] = (frozenset(),)
        else:
            window_total += sum(len(span) for span in dom.values())
            fams = enumerate_choice_families(grid, snapshot, req, now, budget=budget)
        families.append((req, fams))
    weight = float(1 + window_total)

    def score(req: FlightRequest, cells: frozenset[tuple[str, int]]) -> float:
        count = float(len(cells))
        if (any(rid == req.origin for rid, _ in cells)
                and any(rid == req.destination for rid, _ in cells)):
            count += weight
        return count

    # Best-scoring families first so the additive bound prunes aggressively.
    scored = [
        (req, tuple(sorted(fams, key=lambda c: (-score(req, c), sorted(c)))))
        for req, fams in families
    ]

    suffix_best = [0.0] * (len(scored) + 1)
    for i in range(len(scored) - 1, -1, -1):
        largest = max(score(scored[i][0], c) for c in scored[i][1])
        suffix_best[i] = suffix_best[i + 1] + largest

    meter = _Meter(budget, "joint choice search")
    best_total = -1.0
    best_pick: list[frozenset[tuple[str, int]]] = []
    counts: Counter[tuple[str, int]] = Counter()
    pick: list[frozenset[tuple[str, int]]] = []

    def search(i: int, total: float) -> None:
        nonlocal best_total, best_pick
        meter.tick()
        if total + suffix_best[i] <= best_total:
            return
        if i == len(scored):
            best_total = total
            best_pick = list(pick)
            return
        req, fams = scored[i]
        for cells in fams:
            ok = True
            for cell in cells:
                counts[cell] += 1
                if counts[cell] > snapshot.remaining(*cell):
                    ok = False
            if ok:
                pick.append(cells)
                search(i + 1, total + score(req, cells))
                pick.pop()
            for cell in cells:
                counts[cell] -= 1

    search(0, 0.0)
    if best_total < 0:
        raise RuntimeError("joint choice search found nothing; the all-empty "
                           "allocation should always be valid")
    allocation: dict[str, frozenset[tuple[str, int]]] = {}
    check: dict[str, ChoiceSet] = {}
    for (req, _), cells in zip(families, best_pick):
        allocation[req.flight_id] = cells
        check[req.flight_id] = ChoiceSet(req.flight_id, req.origin,
                                         req.destination, cells)
    problems = choice_violations(grid, snapshot, list(ordered), check, now)
    if problems:
        raise RuntimeError("oracle winner failed validation: " + "; ".join(problems[:5]))
    return best_total, allocation


def oracle_joint_optimum(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Sequence[FlightRequest],
    choice_sets: Mapping[str, ChoiceSet],
    params: DelayCostParams,
    *,
    gamma: float = 0.0,
    proposals: Mapping[str, FlightPlan] | None = None,
    now: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, dict[str, FlightPlan]] | tuple[None, dict[str, FlightPlan]]:
    """True optimum of planning the given flights together.

    Minimizes total delay cost plus gamma times the spread of detour ratios
    (final over proposed path length; proposals required when gamma > 0)
    subject to joint capacity on every cell. Ties go to the lexicographically
    smallest tuple of plans in flight-id order. (None, {}) when some flight
    has no feasible plan at all or no combination fits together.
    """
    if gamma > 0.0 and proposals is None:
        raise ValueError("gamma > 0 needs the proposed plans for ratios")
    ordered = sorted(requests, key=lambda r: r.flight_id)
    options: list[tuple[FlightRequest, tuple[FlightPlan, ...]]] = []
    for req in ordered:
        plans = enumerate_feasible_plans(
            grid, snapshot, req, now, choices=choice_sets[req.flight_id],
            budget=budget,
        )
        if not plans:
            return None, {}
        options.append((req, plans))

    total_combos = 1
    for _, plans in options:
        total_combos *= len(plans)
        if total_combos > budget:
            raise OracleSizeError(
                f"joint plan space exceeds budget ({total_combos}+ combinations)"
            )

    return _joint_search(options, snapshot, params, gamma, proposals,
                         _Meter(budget, "joint plan search"))


def _joint_search(
    options: Sequence[tuple[FlightRequest, Sequence[FlightPlan]]],
    snapshot: OccupancySnapshot,
    params: DelayCostParams,
    gamma: float,
    proposals: Mapping[str, FlightPlan] | None,
    meter: _Meter,
) -> tuple[float, dict[str, FlightPlan]] | tuple[None, dict[str, FlightPlan]]:
    """Branch and bound over one plan per flight under joint capacity.

    Partial delay cost prunes; ties go to the lexicographically smallest
    tuple of plans in option order.
    """
    best_obj: float | None = None
    best_key: tuple | None = None
    best_pick: list[FlightPlan] = []
    counts: Counter[tuple[str, int]] = Counter()
    pick: list[FlightPlan] = []

    def objective(chosen: list[FlightPlan]) -> float:
        cost = sum(tdc(p, req, params) for p, (req, _) in zip(chosen, options))
        if gamma > 0.0:
            ratios = [
                path_length(p) / path_length(proposals[p.flight_id])
                for p in chosen
            ]
            cost += gamma * (max(ratios) - min(ratios))
        return cost

    def search(i: int, partial_cost: float) -> None:
        nonlocal best_obj, best_key, best_pick
        meter.tick()
        if best_obj is not None and partial_cost > best_obj + 1e-9:
            return
        if i == len(options):
            obj = objective(pick)
            key = (round(obj, 9), tuple(p.steps for p in pick))
            if best_key is None or key < best_key:
                best_obj, best_key, best_pick = obj, key, list(pick)
            return
        req, plans = options[i]
        for plan in plans:
            ok = True
            for t, rid in plan.steps:
                counts[(rid, t)] += 1
                if counts[(rid, t)] > snapshot.remaining(rid, t):
                    ok = False
            if ok:
                pick.append(plan)
                search(i + 1, partial_cost + tdc(plan, req, params))
                pick.pop()
            for t, rid in plan.steps:
                counts[(rid, t)] -= 1

    search(0, 0.0)
    if best_obj is None:
        return None, {}
    return best_obj, {p.flight_id: p for p in best_pick}


def oracle_tfmp_optimum(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Sequence[FlightRequest],
    params: DelayCostParams,
    now: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, dict[str, FlightPlan]] | tuple[None, dict[str, FlightPlan]]:
    """True optimum of the fixed-route timing problem: each flight's
    entry-time schedules, combined by the joint plan search at gamma = 0."""
    ordered = sorted(requests, key=lambda r: r.flight_id)
    meter = _Meter(budget, "fixed-route schedule search")

    options: list[tuple[FlightRequest, tuple[FlightPlan, ...]]] = []
    for req in ordered:
        route = fixed_route(grid, req.origin, req.destination)
        dwells = leg_dwells(grid, route, req.min_dwell)
        plans = _schedules(grid, req, route, dwells, now, meter)
        if not plans:
            return None, {}
        options.append((req, plans))
    return _joint_search(options, snapshot, params, 0.0, None, meter)


def _schedules(
    grid: AirspaceGrid,
    request: FlightRequest,
    route: FixedRoute,
    dwells: list[int],
    now: int,
    meter: _Meter,
) -> tuple[FlightPlan, ...]:
    """All entry-time vectors along the fixed route, as occupancy plans.

    Holding beyond the minimum dwell is possible in sectors only; a leg that
    follows a vertiport must be entered the very next step.
    """
    end = now + grid.horizon_steps
    d, a, eps = request.requested_departure, request.requested_arrival, request.flexibility
    last = len(route.legs) - 1
    suffix = [0] * (last + 1)
    for i in range(last - 1, -1, -1):
        suffix[i] = suffix[i + 1] + dwells[i]
    plans: list[FlightPlan] = []

    def place(i: int, entries: list[int]) -> None:
        meter.tick()
        if i == last + 1:
            steps = []
            for j in range(last):
                for t in range(entries[j], entries[j + 1]):
                    steps.append((t, route.legs[j]))
            steps.append((entries[last], route.legs[last]))
            plans.append(FlightPlan(request.flight_id, tuple(steps)))
            return
        if i == 0:
            lo, hi = max(d, now), min(d + eps, end - 1 - suffix[0])
        else:
            lo = entries[-1] + dwells[i - 1]
            hi = (lo if grid.resource(route.legs[i - 1]).kind == "vertiport"
                  else end - 1 - suffix[i])
            if i == last:
                lo = max(lo, a)
        for t in range(lo, hi + 1):
            entries.append(t)
            place(i + 1, entries)
            entries.pop()

    place(0, [])
    return tuple(plans)
