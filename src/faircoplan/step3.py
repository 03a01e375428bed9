"""Joint deconfliction of conflicting trajectory proposals.

Proposals that fit together are filed untouched. The flights involved in at
least one overloaded cell are re-planned together in a single MILP that
reuses the per-flight trajectory block, adds shared en-route capacity rows,
and (for gamma > 0) penalises the spread of detour ratios: each flight's
final path length over its proposed path length. When no joint solution
exists, victims are removed one at a time — fewest resubmissions first,
newest flight id on ties — and carried over to the next period.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import milp
from .airspace import AirspaceGrid, OccupancySnapshot
from .checker import overlay_violations, plan_violations
from .flights import (
    ChoiceSet, DelayCostParams, FlightPlan, FlightRequest, path_length, solve_dropping, tdc,
)
from .step2 import PresenceBlock, add_presence_block, extract_plan

__all__ = [
    "Conflict",
    "ConflictReport",
    "DeconflictionResult",
    "detect_conflicts",
    "fairness_value",
    "solve_step3",
]


@dataclass(frozen=True)
class Conflict:
    """One overloaded cell: more proposals than remaining capacity."""

    resource_id: str
    t: int
    flight_ids: tuple[str, ...]
    remaining: int


@dataclass(frozen=True)
class ConflictReport:
    conflicts: tuple[Conflict, ...]
    conflicting_flights: frozenset[str]

    @property
    def has_conflicts(self) -> bool:
        return bool(self.conflicts)


@dataclass
class DeconflictionResult:
    """Final plans for one period's batch after deconfliction."""

    plans: dict[str, FlightPlan]
    replanned: tuple[str, ...]
    dropped: tuple[str, ...]
    fairness: float
    ratios: dict[str, float]
    tdc_by_flight: dict[str, float]
    total_tdc: float
    objective: float | None
    solve_time: float
    report: ConflictReport
    solver_status: str | None = None
    attempts: int = 0


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


def _add_fairness(
    model: milp.Model,
    blocks: Mapping[str, PresenceBlock],
    proposals: Mapping[str, FlightPlan],
    gamma: float,
) -> dict[str, float]:
    """Entry-count linearisation of the detour-ratio spread; returns the
    gamma-weighted objective coefficients (on the spread bound variables)."""
    f_max = model.continuous("ratio.max", 0.0, math.inf)
    f_min = model.continuous("ratio.min", 0.0, math.inf)
    for fid in sorted(blocks):
        block = blocks[fid]
        proposed_len = float(path_length(proposals[fid]))
        entries: dict[str, float] = {}
        for (rid, t), name in sorted(block.vars.items()):
            prev = block.vars.get((rid, t - 1))
            entry = model.continuous(f"en.{fid}.{rid}.{t}", 0.0, 1.0)
            if prev is None:
                model.add({entry: 1.0, name: -1.0}, ">=", 0.0)
                model.add({entry: 1.0, name: -1.0}, "<=", 0.0)
            else:
                model.add({entry: 1.0, name: -1.0, prev: 1.0}, ">=", 0.0)
                model.add({entry: 1.0, name: -1.0}, "<=", 0.0)
                model.add({entry: 1.0, prev: 1.0}, "<=", 1.0)
            entries[entry] = 1.0
        # ratio.max >= L(final)/L(proposed) >= ratio.min for every flight.
        model.add({f_max: 1.0, **{n: -1.0 / proposed_len for n in entries}},
                  ">=", 0.0, label=f"rmax.{fid}")
        model.add({f_min: 1.0, **{n: -1.0 / proposed_len for n in entries}},
                  "<=", 0.0, label=f"rmin.{fid}")
    return {f_max: gamma, f_min: -gamma}


def _build_joint(
    grid: AirspaceGrid,
    base: OccupancySnapshot,
    active: Sequence[str],
    requests: Mapping[str, FlightRequest],
    choice_sets: Mapping[str, ChoiceSet],
    proposals: Mapping[str, FlightPlan],
    params: DelayCostParams,
    gamma: float,
    now: int,
    horizon_end: int,
) -> tuple[milp.Model, dict[str, PresenceBlock]]:
    model = milp.Model(name="deconfliction", sense="min")
    blocks: dict[str, PresenceBlock] = {}
    for fid in sorted(active):
        block = add_presence_block(
            model, grid, base, requests[fid], choice_sets[fid], params,
            now, horizon_end, prefix=f"v.{fid}",
        )
        if block is None:
            raise RuntimeError(
                f"{fid}: conflicting flight has no representable trajectory "
                "despite holding a proposal"
            )
        blocks[fid] = block

    # Shared en-route capacity. Vertiport and ring cells need no rows here:
    # each flight is confined to its granted choices and the choice-setting
    # step already capped the joint grant per cell.
    shared: dict[tuple[str, int], list[str]] = {}
    for fid in sorted(blocks):
        for (rid, t), name in blocks[fid].vars.items():
            if not grid.is_zone(rid):
                shared.setdefault((rid, t), []).append(name)
    for (rid, t), names in sorted(shared.items()):
        remaining = base.remaining(rid, t)
        if len(names) > remaining:
            model.add({n: 1.0 for n in names}, "<=", float(remaining),
                      label=f"cap.{rid}.{t}")

    objective: dict[str, float] = {}
    offset = 0.0
    for fid in sorted(blocks):
        for name, coeff in blocks[fid].tdc_coeffs.items():
            objective[name] = objective.get(name, 0.0) + coeff
        offset += blocks[fid].tdc_offset
    if gamma > 0.0:
        objective.update(_add_fairness(model, blocks, proposals, gamma))
    model.set_objective(objective, offset=offset)
    return model, blocks


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
    limits: milp.SolveLimits | None = None,
) -> DeconflictionResult:
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    by_id = {req.flight_id: req for req in requests}
    for fid in proposals:
        if fid not in by_id:
            raise ValueError(f"proposal {fid} has no matching request")
    horizon_end = now + grid.horizon_steps

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
    tdc_by_flight = {fid: tdc(plan, by_id[fid], params) for fid, plan in kept.items()}

    if not report.has_conflicts:
        return DeconflictionResult(
            plans=dict(kept), replanned=(), dropped=(), fairness=0.0,
            ratios={}, tdc_by_flight=tdc_by_flight,
            total_tdc=sum(tdc_by_flight.values()), objective=None,
            solve_time=0.0, report=report,
        )

    for fid in report.conflicting_flights:
        if fid not in choice_sets or choice_sets[fid].is_empty:
            raise ValueError(f"conflicting flight {fid} lacks a usable choice set")

    base = snapshot.with_plans(kept.values())
    outcome = solve_dropping(
        sorted(report.conflicting_flights), by_id,
        lambda active: _build_joint(grid, base, active, by_id, choice_sets, proposals,
                                    params, gamma, now, horizon_end),
        limits,
    )
    result, blocks, active = outcome.result, outcome.built, outcome.kept

    final = dict(kept)
    ratios: dict[str, float] = {}
    if result is not None:
        for fid in active:
            plan = extract_plan(blocks[fid], result.values)
            problems = plan_violations(
                grid, base, by_id[fid], plan, now, horizon_end,
                choices=choice_sets[fid],
            )
            if problems:
                raise RuntimeError(
                    f"{fid}: deconflicted plan failed re-check: "
                    + "; ".join(problems[:5])
                )
            final[fid] = plan
            ratios[fid] = path_length(plan) / path_length(proposals[fid])
            tdc_by_flight[fid] = tdc(plan, by_id[fid], params)

    audit = overlay_violations(grid, list(final.values()), base=snapshot.counts)
    if audit:
        raise RuntimeError(
            "deconflicted batch breaks capacity: " + "; ".join(audit[:5])
        )

    fairness = max(ratios.values()) - min(ratios.values()) if ratios else 0.0
    active_tdc = sum(tdc_by_flight[fid] for fid in active)
    if result is not None and result.status == milp.OPTIMAL:
        expected = active_tdc + (gamma * fairness if gamma > 0.0 else 0.0)
        if abs(expected - result.objective) > 1e-6 * max(1.0, abs(expected)):
            raise RuntimeError(
                f"deconfliction objective {result.objective} disagrees with "
                f"recomputed cost {expected}"
            )

    return DeconflictionResult(
        plans=final,
        replanned=active,
        dropped=outcome.dropped,
        fairness=fairness,
        ratios=ratios,
        tdc_by_flight=tdc_by_flight,
        total_tdc=sum(tdc_by_flight.values()),
        objective=result.objective if result is not None else None,
        solve_time=outcome.solve_time,
        report=report,
        solver_status=result.status if result is not None else None,
        attempts=outcome.attempts,
    )
