"""Trajectory step: one operator planning one flight under granted choices.

A plan is a path through the time-expanded grid, one cell per step from a
departure slot at the origin to an arrival slot at the destination. The
cells it may use are the flight's ``blocks.cell_domain``: hop-distance
cones between the first departure slot and the last arrival slot, with zone
cells gated by the choice set and en-route cells by remaining capacity.
The total delay cost depends on the two end slots only, so ``solve_step2``
finds the optimum exactly by a label search over (resource, t, run) states,
where run is the length of the current minimum-dwell run (label setting
for resource-constrained shortest paths, Irnich & Desaulniers 2005). Ties
go to the lexicographically smallest plan, so the plan does not depend on
any solver.
"""
from __future__ import annotations

from dataclasses import dataclass

from .airspace import AirspaceGrid, OccupancySnapshot
from .blocks import CellDomain, cell_domain
from .checker import plan_violations
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, slot_tdc, tdc

__all__ = ["Step2Result", "solve_step2"]


@dataclass
class Step2Result:
    plan: FlightPlan | None
    tdc: float | None

    @property
    def infeasible(self) -> bool:
        return self.plan is None


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
    optimum. It carries no timer: ``sim.run_period`` times the whole call,
    domain, search and re-check, as the period's step-2 time.
    """
    if choices.is_empty:
        raise ValueError(
            f"{request.flight_id}: empty choice set; unassigned flights are "
            "carried over, not planned"
        )
    horizon_end = now + grid.horizon_steps
    domain = cell_domain(grid, snapshot, request, choices, now, horizon_end)
    found = None if domain is None else _search(grid, request, domain, params)
    if found is None:
        return Step2Result(plan=None, tdc=None)

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
    return Step2Result(plan=plan, tdc=cost)
