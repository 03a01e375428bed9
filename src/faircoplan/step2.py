"""Trajectory step: one operator planning one flight under granted choices.

A plan is a path through the time-expanded grid, one cell per step from a
departure slot at the origin to an arrival slot at the destination. The
cells it may use are the flight's ``blocks.cell_domain``: hop-distance
cones between the first departure slot and the last arrival slot, with zone
cells gated by the choice set and en-route cells by remaining capacity.
``blocks.state_graph`` holds the moves over them between (resource, t, run)
states, where run is the length of the current minimum-dwell run. The total
delay cost depends on the two end slots only, so ``solve_step2`` finds the
optimum exactly by label setting over that graph (resource-constrained
shortest paths, Irnich & Desaulniers 2005): a forward pass, a backward
pass and a walk, with no recursion, so the plan's length is bounded by the
period alone. Ties go to the lexicographically smallest plan, so the plan
does not depend on any solver.
"""
from __future__ import annotations

from dataclasses import dataclass

from .airspace import AirspaceGrid, OccupancySnapshot
from .blocks import cell_domain, state_graph
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
    domain: dict[str, tuple[int, ...]],
    params: DelayCostParams,
) -> tuple[float, FlightPlan] | None:
    """The least-cost plan over ``domain`` under the tie rule, or None.

    Three passes over the flight's ``state_graph``. The forward pass marks,
    for every state, which departure slots reach it, so it yields every
    feasible (departure, arrival) pair and with them the least cost. The
    backward pass marks the states from which an arrival at that cost is
    reached. The walk from the chosen departure then takes the first marked
    successor at every step; successors come in resource-id order, so the
    plan is the lexicographically smallest.
    """
    s, e = request.origin, request.destination
    graph = state_graph(grid, request, domain)
    dep_bit = {t: 1 << i for i, t in enumerate(domain[s])}
    reach = {(s, t, 1): bit for t, bit in dep_bit.items()}
    for state, out in graph.items():
        mask = reach[state]
        for succ in out:
            reach[succ] = reach.get(succ, 0) | mask
    arrived = {t: reach[(e, t, 1)] for t in domain[e] if (e, t, 1) in reach}

    best = min(((slot_tdc(request, params, departure, arrival), departure)
                for arrival, mask in arrived.items()
                for departure, bit in dep_bit.items() if mask & bit), default=None)
    if best is None:
        return None
    cost, departure = best
    marked = {(e, arrival, 1) for arrival, mask in arrived.items()
              if mask & dep_bit[departure]
              and slot_tdc(request, params, departure, arrival) == cost}
    for state, out in reversed(graph.items()):
        if not marked.isdisjoint(out):
            marked.add(state)

    state = (s, departure, 1)
    steps = [(departure, s)]
    while state[0] != e:
        state = next(succ for succ in graph[state] if succ in marked)
        steps.append((state[1], state[0]))
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
    domain = cell_domain(grid, snapshot, request, choices, now)
    found = None if domain is None else _search(grid, request, domain, params)
    if found is None:
        return Step2Result(plan=None, tdc=None)

    optimum, plan = found
    problems = plan_violations(
        grid, snapshot, request, plan, now, choices=choices
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
