"""Joint deconfliction of conflicting trajectory proposals.

Proposals that fit together are filed untouched. The flights involved in at
least one overloaded cell are re-planned together in a single MILP. Each
flight is a unit flow over its ``blocks.state_graph``, one binary per arc
(``blocks.arc_fragment``), the network-flow view of rerouting in air
traffic flow management (Bertsimas & Stock Patterson, Transportation
Science 2000). Only shared cell capacity and, for gamma > 0, the spread
of detour ratios couple the flights; ``blocks.solve_joint``, the
fixed-route baseline's joint solve too, appends the flows and writes the
capacity rows, and only en-route cells ever get a row. A flight's detour
ratio is its final path length over its proposed path length; path length
counts entries into resources (runs), which is 1 + the arcs that change
resource. Each flight's flow alone is integral, so the model is solved from
its LP relaxation first (``milp.Model.relaxation_first``), and only a
fractional point goes on to the MILP. The optimum is exact either way, but
the LP may return another of several tied plans. When no joint solution
exists, ``blocks.solve_joint`` removes victims one at a time (fewest
resubmissions first, newest flight id on ties), and they are carried over
to the next period.

γ enters only the joint solve. Everything before it, the proposals'
conflicts, the kept plans and each conflicting flight's fragment, is one
``Step3Input``, which ``solve_step3`` builds when not given one and returns
with its result; the campaign builds it once for both negotiated lanes
wherever their inputs agree (see ``sim.run_campaign``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .blocks import ArcFragment, arc_fragment, cell_domain, solve_joint
from .checker import ConflictReport, audit_batch, audit_objective, detect_conflicts
from .flights import ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, path_length, tdc

__all__ = ["DeconflictionResult", "Step3Input", "fairness_value", "solve_step3"]


@dataclass
class DeconflictionResult:
    """Final plans for one period's batch after deconfliction, and
    ``prepared``, the γ-free half they were solved from."""

    plans: dict[str, FlightPlan]
    replanned: tuple[str, ...]
    dropped: tuple[str, ...]
    fairness: float
    tdc_by_flight: dict[str, float]
    total_tdc: float
    objective: float | None
    prepared: Step3Input
    attempts: int = 0

    @property
    def report(self) -> ConflictReport:
        """The proposals' conflict report."""
        return self.prepared.report


def fairness_value(
    proposals: Mapping[str, FlightPlan],
    finals: Mapping[str, FlightPlan],
) -> float:
    """Spread (max minus min) of final-over-proposed path length ratios."""
    ratios = []
    for fid in finals:
        if fid not in proposals:
            raise ValueError(f"{fid}: final plan without a matching proposal")
        ratios.append(path_length(finals[fid]) / path_length(proposals[fid]))
    if not ratios:
        return 0.0
    return max(ratios) - min(ratios)


def _add_spread(
    model: milp.Model,
    shifts: Mapping[str, int],
    flows: Mapping[str, ArcFragment],
    proposals: Mapping[str, FlightPlan],
    gamma: float,
) -> None:
    """The detour-ratio spread, after the flights' columns and the capacity
    rows: the columns ``ratio.max`` and ``ratio.min``, at cost gamma and
    -gamma, then rows ``rmax.{fid}`` and ``rmin.{fid}`` holding each
    flight in ``shifts`` between them: its detour ratio, 1 + its arcs that
    change resource, over its proposal's path length."""
    f_max = model.continuous("ratio.max", 0.0, math.inf, cost=gamma)
    model.continuous("ratio.min", 0.0, math.inf, cost=-gamma)
    fids = sorted(shifts)
    ends, indices, coeffs, rhs = [], [], [], []
    for fid in fids:
        share = 1.0 / path_length(proposals[fid])
        moves = [shifts[fid] + j for j, (tail, head) in enumerate(flows[fid].arcs)
                 if tail is not None and tail[0] != head[0]]
        for bound in (f_max, f_max + 1):
            indices += [bound, *moves]
            coeffs += [1.0, *[-share] * len(moves)]
            ends.append(len(indices))
            rhs.append(share)
    model.add_rows(ends, indices, coeffs, [">=", "<="] * len(fids), rhs,
                   [f"{kind}.{fid}" for fid in fids for kind in ("rmax", "rmin")])


def _joint_blocks(
    grid: AirspaceGrid,
    base: OccupancySnapshot,
    flights: Sequence[str],
    requests: Mapping[str, FlightRequest],
    choice_sets: Mapping[str, ChoiceSet],
    params: DelayCostParams,
    now: int,
) -> dict[str, ArcFragment]:
    """Each flight's arc fragment: built once per preparation, since it
    depends on no other flight."""
    flows: dict[str, ArcFragment] = {}
    for fid in sorted(flights):
        domain = cell_domain(grid, base, requests[fid], choice_sets[fid], now)
        flow = None if domain is None else arc_fragment(grid, requests[fid], domain, params,
                                                        prefix=f"v.{fid}")
        if flow is None:
            raise RuntimeError(
                f"{fid}: conflicting flight has no representable trajectory "
                "despite holding a proposal"
            )
        flows[fid] = flow
    return flows


@dataclass(frozen=True)
class Step3Input:
    """Step 3's γ-free half for one batch, as ``_prepare`` builds it:
    the requests by id, the proposals' conflict report, the kept plans and
    their TDC, and, when proposals conflict, ``base`` (the snapshot with the
    kept plans added) and each conflicting flight's arc fragment over its
    cell domain in ``base``, by flight id in sorted order. Building it reads
    the snapshot only inside the period window ``[now, now + horizon)``.
    Readers must not modify it."""

    requests: dict[str, FlightRequest]
    report: ConflictReport
    kept: dict[str, FlightPlan]
    kept_tdc: dict[str, float]
    base: OccupancySnapshot | None
    flows: dict[str, ArcFragment]


def _prepare(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Sequence[FlightRequest],
    choice_sets: Mapping[str, ChoiceSet],
    proposals: Mapping[str, FlightPlan],
    params: DelayCostParams,
    now: int,
) -> Step3Input:
    """Everything of ``solve_step3`` that γ does not enter: the input
    checks, the proposals' conflicts, the kept plans and, for the
    conflicting flights, ``base`` and their arc fragments."""
    by_id = {req.flight_id: req for req in requests}
    if len(by_id) != len(requests):
        raise ValueError("duplicate flight ids in request batch")
    for fid in proposals:
        if fid not in by_id:
            raise ValueError(f"proposal {fid} has no matching request")

    report = detect_conflicts(grid, snapshot, proposals)
    zone_overloads = [c for c in report.conflicts if grid.is_zone(c.resource_id)]
    if zone_overloads:
        c = zone_overloads[0]
        raise RuntimeError(
            f"vertiport/ring cell ({c.resource_id}, t={c.t}) overloaded by "
            f"proposals {c.flight_ids}; the choice-setting step should have "
            "made this impossible"
        )

    kept = {fid: proposals[fid] for fid in sorted(proposals)
            if fid not in report.conflicting_flights}
    kept_tdc = {fid: tdc(plan, by_id[fid], params) for fid, plan in kept.items()}
    if not report.has_conflicts:
        return Step3Input(by_id, report, kept, kept_tdc, None, {})

    for fid in report.conflicting_flights:
        if fid not in choice_sets or choice_sets[fid].is_empty:
            raise ValueError(f"conflicting flight {fid} lacks a usable choice set")

    base = snapshot.with_plans(kept.values())
    flows = _joint_blocks(grid, base, report.conflicting_flights, by_id, choice_sets,
                          params, now)
    return Step3Input(by_id, report, kept, kept_tdc, base, flows)


def solve_step3(
    grid: AirspaceGrid,
    snapshot: OccupancySnapshot,
    requests: Sequence[FlightRequest],
    choice_sets: Mapping[str, ChoiceSet],
    proposals: Mapping[str, FlightPlan],
    params: DelayCostParams,
    gamma: float = 1.0,
    now: int = 0,
    *,
    prepared: Step3Input | None = None,
) -> DeconflictionResult:
    """Deconflict the proposals at fairness weight ``gamma``.

    ``prepared`` is the ``Step3Input`` of these same inputs, built here
    when None: a result's ``prepared`` serves a solve of the same inputs at
    any other weight, since only the joint solve reads γ. It is read, not
    modified.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be non-negative and finite, got {gamma}")
    if prepared is None:
        prepared = _prepare(grid, snapshot, requests, choice_sets, proposals, params, now)
    by_id, report, kept, flows = prepared.requests, prepared.report, prepared.kept, prepared.flows
    tdc_by_flight = dict(prepared.kept_tdc)

    if not report.has_conflicts:
        return DeconflictionResult(
            plans=dict(kept), replanned=(), dropped=(), fairness=0.0,
            tdc_by_flight=tdc_by_flight,
            total_tdc=sum(tdc_by_flight.values()), objective=None, prepared=prepared,
        )

    # Every cell is capped, but no zone cell ever gets a row: step 1 caps
    # each zone cell's joint grant at its remaining capacity, and the kept
    # plans in ``base`` use only granted cells, so the conflicting flights
    # granted a zone cell never outnumber its room in ``base``.
    outcome = solve_joint(
        "deconfliction", flows, report.conflicting_flights, by_id, prepared.base,
        (lambda model, shifts: _add_spread(model, shifts, flows, proposals, gamma))
        if gamma > 0.0 else None,
    )
    replans = outcome.plans
    final = {**kept, **replans}
    # Every final plan against the period snapshot, then jointly: a replan
    # onto a cell the kept plans fill breaks joint capacity.
    audit_batch(grid, snapshot, by_id, final, now, "deconflicted",
                choice_sets=choice_sets)
    for fid, plan in replans.items():
        tdc_by_flight[fid] = tdc(plan, by_id[fid], params)

    fairness = fairness_value(proposals, replans)
    if outcome.objective is not None:
        audit_objective("deconfliction", outcome.objective,
                        sum(tdc_by_flight[fid] for fid in replans)
                        + (gamma * fairness if gamma > 0.0 else 0.0))

    return DeconflictionResult(
        plans=final,
        replanned=tuple(replans),
        dropped=outcome.dropped,
        fairness=fairness,
        tdc_by_flight=tdc_by_flight,
        total_tdc=sum(tdc_by_flight.values()),
        objective=outcome.objective,
        prepared=prepared,
        attempts=outcome.attempts,
    )
