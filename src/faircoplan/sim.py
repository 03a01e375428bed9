"""Rolling-horizon campaign simulation.

Each day runs a fresh flight database. Every period, freshly sampled demand
plus carryovers are planned against the current occupancy under one of three
modes: "fair-coplan" (negotiate, deconflict with the fairness term),
"coplan" (negotiate, deconflict on delay cost alone), or "tfmp" (fixed-route
schedule baseline). Flights that cannot be served this period are resubmitted
next period with shifted windows. Demand depends only on (seed, day, period),
never on the mode, so runs across modes are paired by construction.

A campaign runs day-major: all modes of a day, then the next day. Within a
day identical MILPs are solved once (see ``run_campaign``); the memo is
dropped when the day ends, so memory stays bounded by one day's solves.

Metrics are pure functions of the serializable period records; anything
wall-clock lives in separate timing rows so that repeated runs stay
byte-identical everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import milp
from .airspace import (
    AirspaceGrid,
    ConfigError,
    FlightPlanRecord,
    GridConfig,
    OccupancyLedger,
    build_grid,
)
from .baseline import fixed_route, solve_tfmp
from .checker import overlay_violations
from .flights import DelayCostParams, FlightPlan, FlightRequest
from .step1 import solve_step1
from .step2 import solve_step2
from .step3 import solve_step3

__all__ = [
    "MODES",
    "CampaignResult",
    "PeriodResult",
    "ScenarioConfig",
    "campaign_summary",
    "day_rows",
    "generate_demand",
    "run_campaign",
    "run_day",
    "run_period",
    "scenario_grid",
]

MODES = ("fair-coplan", "coplan", "tfmp")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a campaign needs; demand follows from (seed, day, period)."""

    name: str
    grid: GridConfig
    demand_per_hub_per_hour: float
    days: int = 10
    periods_per_day: int = 30
    cadence_steps: int = 1
    flexibility: int = 3
    alpha: float = 0.3
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name")
        if self.demand_per_hub_per_hour <= 0:
            raise ConfigError("demand_per_hub_per_hour must be positive")
        if self.days < 1 or self.periods_per_day < 1 or self.cadence_steps < 1:
            raise ConfigError("days, periods_per_day and cadence_steps must be >= 1")
        if self.flexibility < 1:
            raise ConfigError("flexibility must be at least 1 step")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @property
    def lam(self) -> float:
        """Expected new flights per hub per period."""
        return (self.demand_per_hub_per_hour
                * self.grid.step_minutes * self.cadence_steps / 60.0)

    def params(self) -> DelayCostParams:
        return DelayCostParams(self.alpha)


def scenario_grid(config: ScenarioConfig) -> AirspaceGrid:
    """Build the airspace and verify every flight can fit the horizon.

    The worst-case trip (slowest dwells) plus the arrival window plus one
    planning cadence must fit into the horizon; otherwise carryovers could
    be deferred forever.
    """
    grid = build_grid(config.grid)
    if not grid.hub_ids:
        raise ConfigError("scenario needs at least one hub vertiport")
    for origin in grid.hub_ids:
        for dest in grid.vertiport_ids:
            if dest == origin:
                continue
            route = fixed_route(grid, origin, dest)
            worst = 0
            for rid in route.legs[:-1]:
                sector = grid.resource(rid).kind == "sector"
                worst += 2 if sector and rid in grid.ring else 1
            need = config.cadence_steps + worst + config.flexibility
            if need > grid.horizon_steps:
                raise ConfigError(
                    f"route {origin}->{dest} needs up to {need} steps of "
                    f"lookahead but the horizon is {grid.horizon_steps}"
                )
    return grid


def generate_demand(
    grid: AirspaceGrid,
    config: ScenarioConfig,
    day: int,
    period: int,
) -> tuple[FlightRequest, ...]:
    """Fresh requests for one period, deterministic in (seed, day, period).

    Counts are Poisson per hub; destinations are uniform over the other
    vertiports; each ring sector on the flight's shortest route gets a
    1-or-2-step minimum dwell. The requested departure is the next period
    start and the requested arrival assumes the shortest route at exactly
    those dwells.
    """
    rng = np.random.default_rng([config.seed, day, period])
    now = period * config.cadence_steps
    depart = now + config.cadence_steps
    requests = []
    seq = 0
    for hub in grid.hub_ids:
        others = [rid for rid in grid.vertiport_ids if rid != hub]
        count = int(rng.poisson(config.lam))
        for _ in range(count):
            dest = others[int(rng.integers(len(others)))]
            route = fixed_route(grid, hub, dest)
            dwell = []
            travel = 1  # the departure step at the origin pad
            for rid in route.legs[1:-1]:
                if grid.resource(rid).kind != "sector":
                    travel += 1
                    continue
                if rid in grid.ring:
                    steps = int(rng.integers(1, 3))
                    dwell.append((rid, steps))
                    travel += steps
                else:
                    travel += 1
            requests.append(FlightRequest(
                flight_id=f"d{day:02d}p{period:03d}n{seq:02d}",
                operator_id=hub,
                origin=hub,
                destination=dest,
                requested_departure=depart,
                requested_arrival=depart + travel,
                flexibility=config.flexibility,
                dwell=tuple(dwell),
            ))
            seq += 1
    return tuple(requests)


@dataclass
class PeriodResult:
    """Everything one period produced. ``to_dict`` is the serialized form;
    wall-clock timings stay out of it on purpose."""

    day: int
    period: int
    now: int
    mode: str
    gamma: float
    request_ids: tuple[str, ...]
    filed: dict[str, FlightPlan]
    tdc_by_flight: dict[str, float]
    fairness: float
    conflict_cells: int
    replanned: tuple[str, ...]
    dropped: tuple[str, ...]
    unassigned: tuple[str, ...]
    infeasible: tuple[str, ...]
    deferred: tuple[str, ...]
    carryover: tuple[FlightRequest, ...]
    stage_times: dict[str, float] = field(default_factory=dict)
    step2_max_time: float = 0.0

    @property
    def total_tdc(self) -> float:
        return sum(self.tdc_by_flight.values())

    @property
    def served(self) -> int:
        return len(self.filed)

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "period": self.period,
            "now": self.now,
            "mode": self.mode,
            "gamma": self.gamma,
            "requests": list(self.request_ids),
            "filed": {fid: [[t, rid] for t, rid in plan.steps]
                      for fid, plan in sorted(self.filed.items())},
            "tdc": {fid: round(cost, 9)
                    for fid, cost in sorted(self.tdc_by_flight.items())},
            "total_tdc": round(self.total_tdc, 9),
            "served": self.served,
            "fairness": round(self.fairness, 9),
            "conflict_cells": self.conflict_cells,
            "replanned": list(self.replanned),
            "dropped": list(self.dropped),
            "unassigned": list(self.unassigned),
            "infeasible": list(self.infeasible),
            "deferred": list(self.deferred),
            "carryover": [req.flight_id for req in self.carryover],
        }

    def timing_row(self) -> dict:
        row = {"mode": self.mode, "day": self.day, "period": self.period,
               "step2_max": round(self.step2_max_time, 6)}
        for stage, secs in sorted(self.stage_times.items()):
            row[stage] = round(secs, 6)
        return row


def run_period(
    grid: AirspaceGrid,
    ledger: OccupancyLedger,
    requests: Sequence[FlightRequest],
    mode: str,
    params: DelayCostParams,
    gamma: float,
    day: int,
    period: int,
    now: int,
    cadence_steps: int = 1,
    *,
    limits: milp.SolveLimits | None = None,
) -> PeriodResult:
    """Plan one period's batch, file what fits, and shift the rest forward."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    by_id = {req.flight_id: req for req in requests}
    if len(by_id) != len(requests):
        raise ValueError("duplicate flight ids in period batch")
    ordered = sorted(by_id)
    snapshot = ledger.snapshot()

    filed: dict[str, FlightPlan] = {}
    tdc_by_flight: dict[str, float] = {}
    fairness = 0.0
    conflict_cells = 0
    replanned: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()
    unassigned: tuple[str, ...] = ()
    infeasible: list[str] = []
    deferred: tuple[str, ...] = ()
    stage_times: dict[str, float] = {}
    step2_max = 0.0

    if not requests:
        pass
    elif mode == "tfmp":
        base = solve_tfmp(grid, snapshot, list(requests), params, now, limits=limits)
        filed = dict(base.plans)
        tdc_by_flight = dict(base.tdc_by_flight)
        deferred = base.deferred
        dropped = base.dropped
        stage_times["tfmp"] = base.solve_time
    else:
        s1 = solve_step1(grid, snapshot, list(requests), now, limits=limits)
        stage_times["step1"] = s1.solve_time
        unassigned = tuple(sorted(s1.unassigned))
        deferred = tuple(sorted(s1.deferred))
        skip = set(unassigned) | set(deferred)

        proposals: dict[str, FlightPlan] = {}
        s2_total = 0.0
        for fid in ordered:
            if fid in skip:
                continue
            outcome = solve_step2(grid, snapshot, by_id[fid],
                                  s1.choice_sets[fid], params, now,
                                  limits=limits)
            s2_total += outcome.solve_time
            step2_max = max(step2_max, outcome.solve_time)
            if outcome.plan is None:
                infeasible.append(fid)
            else:
                proposals[fid] = outcome.plan
        stage_times["step2"] = s2_total

        if proposals:
            s3 = solve_step3(
                grid, snapshot,
                [by_id[fid] for fid in sorted(proposals)],
                s1.choice_sets, proposals, params, gamma, now,
                limits=limits,
            )
            stage_times["step3"] = s3.solve_time
            filed = dict(s3.plans)
            tdc_by_flight = dict(s3.tdc_by_flight)
            fairness = s3.fairness
            conflict_cells = len(s3.report.conflicts)
            replanned = s3.replanned
            dropped = s3.dropped

    for fid in sorted(filed):
        ledger.file_plan(FlightPlanRecord(
            flight_id=fid,
            operator_id=by_id[fid].operator_id,
            plan=filed[fid],
            filed_at=now,
        ))
    audit = overlay_violations(grid, [rec.plan for rec in ledger.filed_plans])
    if audit:
        raise RuntimeError("flight database broke capacity: " + "; ".join(audit[:5]))

    carryover = tuple(
        by_id[fid].shifted(cadence_steps)
        for fid in ordered
        if fid not in filed
    )
    return PeriodResult(
        day=day, period=period, now=now, mode=mode, gamma=gamma,
        request_ids=tuple(ordered), filed=filed, tdc_by_flight=tdc_by_flight,
        fairness=fairness, conflict_cells=conflict_cells, replanned=replanned,
        dropped=dropped, unassigned=unassigned, infeasible=tuple(infeasible),
        deferred=deferred, carryover=carryover, stage_times=stage_times,
        step2_max_time=step2_max,
    )


def run_day(
    grid: AirspaceGrid,
    config: ScenarioConfig,
    day: int,
    mode: str,
    *,
    limits: milp.SolveLimits | None = None,
) -> tuple[PeriodResult, ...]:
    """One day on a fresh flight database; carryovers chain between periods."""
    gamma = config.gamma if mode == "fair-coplan" else 0.0
    params = config.params()
    ledger = OccupancyLedger(grid)
    pending: list[FlightRequest] = []
    periods = []
    for period in range(config.periods_per_day):
        now = period * config.cadence_steps
        batch = list(pending) + list(generate_demand(grid, config, day, period))
        result = run_period(
            grid, ledger, batch, mode, params, gamma, day, period, now,
            config.cadence_steps, limits=limits,
        )
        periods.append(result)
        pending = list(result.carryover)
    return tuple(periods)


@dataclass
class CampaignResult:
    config: ScenarioConfig
    periods: dict[str, tuple[PeriodResult, ...]]

    def records(self) -> dict[str, list[dict]]:
        return {mode: [p.to_dict() for p in results]
                for mode, results in self.periods.items()}

    def timing_rows(self) -> list[dict]:
        rows = []
        for mode in sorted(self.periods):
            rows.extend(p.timing_row() for p in self.periods[mode])
        return rows

    def summary(self) -> dict:
        return campaign_summary(self.records())


def run_campaign(
    config: ScenarioConfig,
    modes: Sequence[str] = MODES,
    *,
    limits: milp.SolveLimits | None = None,
) -> CampaignResult:
    """Run every requested mode over the same days of identical demand.

    The campaign runs day by day: each day runs every mode in turn under one
    ``milp.reuse_solves()`` context, which ends with the day. Steps 1 and 2
    never see γ, so until the lanes' ledgers diverge the coplan lane builds
    exactly the MILPs the fair-coplan lane has just solved, and HiGHS solves
    each of them once. The results are still gathered per mode in day order,
    so they equal ``run_day`` per mode without the memo.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    grid = scenario_grid(config)
    rows: dict[str, list[PeriodResult]] = {mode: [] for mode in modes}
    for day in range(config.days):
        with milp.reuse_solves():
            for mode in rows:
                rows[mode].extend(run_day(grid, config, day, mode, limits=limits))
    return CampaignResult(
        config=config, periods={mode: tuple(results) for mode, results in rows.items()})


def day_rows(records: Sequence[Mapping]) -> list[dict]:
    """Per-day aggregates recomputed from period records alone."""
    by_day: dict[tuple[str, int], list[Mapping]] = {}
    for rec in records:
        by_day.setdefault((rec["mode"], rec["day"]), []).append(rec)
    rows = []
    for (mode, day), recs in sorted(by_day.items()):
        recs = sorted(recs, key=lambda r: r["period"])
        served = sum(r["served"] for r in recs)
        total_tdc = sum(r["total_tdc"] for r in recs)
        deconf = [r["fairness"] for r in recs if r["replanned"]]
        rows.append({
            "mode": mode,
            "day": day,
            "served": served,
            "unserved_end": len(recs[-1]["carryover"]),
            "total_tdc": round(total_tdc, 9),
            "mean_tdc": round(total_tdc / served, 9) if served else None,
            "deconfliction_periods": len(deconf),
            "day_fairness": round(sum(deconf) / len(deconf), 9) if deconf else None,
            "conflict_cells": sum(r["conflict_cells"] for r in recs),
            "dropped": sum(len(r["dropped"]) for r in recs),
        })
    return rows


def campaign_summary(records_by_mode: Mapping[str, Sequence[Mapping]]) -> dict:
    """Campaign metrics, derived purely from the serialized period records."""
    modes_out = {}
    days_by_mode: dict[str, list[dict]] = {}
    for mode in sorted(records_by_mode):
        rows = day_rows(records_by_mode[mode])
        days_by_mode[mode] = rows
        served = sum(r["served"] for r in rows)
        total_tdc = sum(r["total_tdc"] for r in rows)
        deconf_f = [rec["fairness"] for rec in records_by_mode[mode]
                    if rec["replanned"]]
        modes_out[mode] = {
            "days": len(rows),
            "served": served,
            "unserved": sum(r["unserved_end"] for r in rows),
            "total_tdc": round(total_tdc, 9),
            "mean_tdc": round(total_tdc / served, 9) if served else None,
            "mean_fairness": (round(sum(deconf_f) / len(deconf_f), 9)
                              if deconf_f else None),
            "deconfliction_periods": len(deconf_f),
            "conflict_cells": sum(r["conflict_cells"] for r in rows),
            "dropped": sum(r["dropped"] for r in rows),
        }
    out = {"modes": modes_out, "days": {m: days_by_mode[m] for m in days_by_mode}}

    if "fair-coplan" in days_by_mode and "coplan" in days_by_mode:
        fair = {r["day"]: r for r in days_by_mode["fair-coplan"]}
        plain = {r["day"]: r for r in days_by_mode["coplan"]}
        eligible = improved = 0
        for day, row in sorted(fair.items()):
            if row["day_fairness"] is None:
                continue
            eligible += 1
            reference = plain.get(day, {}).get("day_fairness")
            if row["day_fairness"] < (reference if reference is not None else 0.0):
                improved += 1
        out["paired_fairness"] = {
            "eligible_days": eligible,
            "improved_days": improved,
            "improved_fraction": round(improved / eligible, 9) if eligible else None,
        }
    return out

