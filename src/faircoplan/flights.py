"""Flight-side value types shared by every planner.

A flight is described by a FlightRequest (what the operator wants), receives a
ChoiceSet (where the airspace authority permits it to be, restricted to
vertiports and vertiport-adjacent sectors), and ends up with a FlightPlan (one
resource per airborne timestep). Delay cost and path length are the two
quantities the optimization objectives are built from. When a batch has no
joint plan, ``blocks.solve_joint`` drops flights by ``pick_victim`` until
one exists.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence


@dataclass(frozen=True)
class DelayCostParams:
    """Weighting between arrival (airborne) and departure (ground) delay."""

    alpha: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class FlightRequest:
    """One flight's demand as submitted to the planning authority.

    ``dwell`` lists per-resource minimum dwell times as (resource id, steps)
    pairs; resources not listed default to 1 step.
    """

    flight_id: str
    operator_id: str
    origin: str
    destination: str
    requested_departure: int
    requested_arrival: int
    flexibility: int = 3
    dwell: tuple[tuple[str, int], ...] = ()
    resubmissions: int = 0

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError(f"{self.flight_id}: origin equals destination")
        if self.requested_departure < 0:
            raise ValueError(f"{self.flight_id}: negative requested departure")
        if self.requested_arrival <= self.requested_departure:
            raise ValueError(f"{self.flight_id}: arrival must follow departure")
        if self.flexibility < 0:
            raise ValueError(f"{self.flight_id}: negative flexibility")
        if self.resubmissions < 0:
            raise ValueError(f"{self.flight_id}: negative resubmission count")
        canon = tuple(sorted(dict(self.dwell).items()))
        for rid, steps in canon:
            if steps < 1:
                raise ValueError(f"{self.flight_id}: dwell < 1 at {rid}")
        object.__setattr__(self, "dwell", canon)

    def min_dwell(self, resource_id: str) -> int:
        for rid, steps in self.dwell:
            if rid == resource_id:
                return steps
        return 1

    def shifted(self, steps: int) -> "FlightRequest":
        """Carryover update: push both requested times forward, count the retry."""
        return replace(
            self,
            requested_departure=self.requested_departure + steps,
            requested_arrival=self.requested_arrival + steps,
            resubmissions=self.resubmissions + 1,
        )


@dataclass(frozen=True)
class ChoiceSet:
    """Permitted (resource, timestep) pairs for one flight.

    Only vertiports and vertiport-adjacent sectors appear here; en-route
    sectors are governed directly by remaining capacity. An empty departure
    slot set means the flight was not assigned this period. ``times`` and
    the slots are computed once per instance (the choices never change) and
    are not fields, so they take no part in equality or hashing.
    """

    flight_id: str
    origin: str
    destination: str
    choices: frozenset[tuple[str, int]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", frozenset(self.choices))

    def contains(self, resource_id: str, t: int) -> bool:
        return (resource_id, t) in self.choices

    @cached_property
    def times(self) -> dict[str, tuple[int, ...]]:
        """The permitted steps by resource, ascending, resources in sorted
        order. Shared by every reader: do not modify it."""
        by_resource: dict[str, list[int]] = {}
        for rid, t in self.choices:
            by_resource.setdefault(rid, []).append(t)
        return {rid: tuple(sorted(by_resource[rid])) for rid in sorted(by_resource)}

    @cached_property
    def departure_slots(self) -> tuple[int, ...]:
        return self.times.get(self.origin, ())

    @cached_property
    def arrival_slots(self) -> tuple[int, ...]:
        return self.times.get(self.destination, ())

    @property
    def is_empty(self) -> bool:
        return not self.choices

    def emptied(self) -> "ChoiceSet":
        return replace(self, choices=frozenset())


@dataclass(frozen=True)
class FlightPlan:
    """A resource-occupancy schedule: exactly one resource per airborne step.

    ``steps`` is ordered by timestep and must be gap-free; the first entry is
    the departure slot at the origin, the last the arrival slot at the
    destination.
    """

    flight_id: str
    steps: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        steps = tuple(sorted(self.steps))
        if not steps:
            raise ValueError(f"{self.flight_id}: empty plan")
        for (t0, _), (t1, _) in zip(steps, steps[1:]):
            if t1 != t0 + 1:
                raise ValueError(
                    f"{self.flight_id}: occupied timesteps not contiguous at t={t1}"
                )
        object.__setattr__(self, "steps", steps)

    @property
    def d_prop(self) -> int:
        return self.steps[0][0]

    @property
    def a_prop(self) -> int:
        return self.steps[-1][0]

    @property
    def origin(self) -> str:
        return self.steps[0][1]

    @property
    def destination(self) -> str:
        return self.steps[-1][1]

    def entries(self) -> tuple[tuple[int, str], ...]:
        """The (timestep, resource) pairs where a new maximal run starts."""
        out = []
        prev = None
        for t, rid in self.steps:
            if rid != prev:
                out.append((t, rid))
            prev = rid
        return tuple(out)


def path_length(plan: FlightPlan) -> int:
    """Number of resource entries (maximal runs) along the plan."""
    return len(plan.entries())


def slot_tdc(request: FlightRequest, params: DelayCostParams, departure: int,
             arrival: int) -> float:
    """Total delay cost of departing and arriving at the given steps:
    alpha * arrival delay + (1 - alpha) * departure delay."""
    arrival_delay = arrival - request.requested_arrival
    departure_delay = departure - request.requested_departure
    return params.alpha * arrival_delay + (1.0 - params.alpha) * departure_delay


def tdc(plan: FlightPlan, request: FlightRequest, params: DelayCostParams) -> float:
    """Total delay cost of a plan; it depends on its two end slots only."""
    return slot_tdc(request, params, plan.d_prop, plan.a_prop)


def pick_victim(active: Sequence[str], requests: Mapping[str, FlightRequest]) -> str:
    """The flight to drop when no joint plan exists: fewest resubmissions
    first; among those, the newest (largest) id."""
    fewest = min(requests[fid].resubmissions for fid in active)
    return max(fid for fid in active if requests[fid].resubmissions == fewest)
