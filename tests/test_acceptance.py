"""End-to-end acceptance gates.

Each test prints one verdict line straight to the terminal (bypassing
pytest's capture) and then asserts it, so a plain ``pytest`` run shows the
seven pass/fail lines. The desk-scale campaign is shared across criteria;
tolerances are pinned next to each gate.
"""
from __future__ import annotations

import time
from pathlib import Path
from typing import NamedTuple

import pytest

from faircoplan import sim
from faircoplan.airspace import OccupancySnapshot
from faircoplan.checker import detect_conflicts
from faircoplan.flights import FlightPlan
from faircoplan.selfcheck import run_selfcheck
from faircoplan.serialize import load_scenario, write_campaign
from faircoplan.sim import MODES, day_rows, run_campaign, scenario_grid
from faircoplan.step3 import DeconflictionResult

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"

# Oracle comparisons are exact (round-to-9 equality inside the suite);
# dominance comparisons allow float summation noise only.
DOMINANCE_TOL = 1e-9
SELFCHECK_BUDGET_S = 300.0
CAMPAIGN_BUDGET_S = 1800.0
PERIOD_SOLVE_BUDGET_S = 60.0
FLIGHT_SOLVE_BUDGET_S = 5.0
IMPROVED_FRACTION_MIN = 0.6


@pytest.fixture()
def verdict(capsys):
    """Print one pass/fail line on the live terminal, then assert it."""
    def _verdict(number: int, ok: bool, label: str) -> None:
        with capsys.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}",
                  flush=True)
        assert ok, f"criterion {number} failed: {label}"
    return _verdict


@pytest.fixture(scope="module")
def desk_config():
    return load_scenario(CONFIG)


@pytest.fixture(scope="module")
def desk_campaign(desk_config):
    started = time.perf_counter()
    campaign = run_campaign(desk_config)
    return campaign, time.perf_counter() - started


def test_criterion_1_oracle_equivalence(verdict):
    started = time.perf_counter()
    instances, cases = run_selfcheck()
    elapsed = time.perf_counter() - started

    failures = [case for case in cases if not case.passed]
    envelope_ok = all(
        inst.grid.config.rows <= 4 and inst.grid.config.cols <= 4
        and inst.grid.config.horizon_steps <= 10
        and len(inst.requests) <= 2
        for inst in instances
    )
    gammas = {inst.gamma for inst in instances}
    covered = {prefix: any(prefix in case.name for case in cases)
               for prefix in ("choices", "trajectory", "deconfliction",
                              "schedule-baseline")}
    ok = (len(instances) >= 30 and not failures and envelope_ok
          and {0.0, 1.0, 5.0} <= gammas and all(covered.values())
          and elapsed < SELFCHECK_BUDGET_S)
    verdict(1, ok,
            f"{len(instances)} instances, {len(cases)} exact oracle "
            f"comparisons, {len(failures)} failures in {elapsed:.1f}s")


def test_criterion_2_feasibility_audit(desk_config, desk_campaign, verdict):
    campaign, _ = desk_campaign
    grid_cfg = desk_config.grid
    hubs = sum(1 for vp in grid_cfg.vertiports if vp.kind == "hub")
    stops = sum(1 for vp in grid_cfg.vertiports if vp.kind == "vertistop")
    assert (grid_cfg.rows, grid_cfg.cols) == (8, 8)
    assert (hubs, stops) == (2, 4)
    assert grid_cfg.horizon_steps == 14

    grid = scenario_grid(desk_config)
    empty = OccupancySnapshot(grid, {})
    records = campaign.records()
    period_count = sum(len(rows) for rows in records.values())
    audit = []
    for rows in records.values():
        by_day: dict[int, list[dict]] = {}
        for rec in rows:
            by_day.setdefault(rec["day"], []).append(rec)
        for recs in by_day.values():
            plans = {
                fid: FlightPlan(fid, tuple((t, rid) for t, rid in steps))
                for rec in recs
                for fid, steps in rec["filed"].items()
            }
            audit.extend(detect_conflicts(grid, empty, plans).conflicts)
    # Every returned plan was already re-checked inside the solvers, which
    # raise on any failure, so a completed campaign means zero re-check
    # failures; the capacity audit above re-verifies the filed days from the
    # serialized records alone.
    ok = period_count >= 200 and not audit
    verdict(2, ok,
            f"{period_count} desk periods planned, {len(audit)} overloaded "
            "cells, 0 re-check failures")


class GammaPair(NamedTuple):
    """One fair-coplan period's deconfliction at both weights."""

    day: int
    fair: DeconflictionResult
    plain: DeconflictionResult


@pytest.fixture(scope="module")
def gamma_pairs(desk_config):
    """Run the fair-coplan lane day by day. Each batch's joint deconfliction
    is solved at the scenario's γ (those plans are filed, as in the
    campaign) and again at γ = 0 on exactly the same inputs."""
    grid = scenario_grid(desk_config)
    solve_step3 = sim.solve_step3
    pairs: list[GammaPair] = []

    def at_both_weights(grid, snapshot, requests, choice_sets, proposals,
                        params, gamma, now, **kwargs):
        assert gamma == desk_config.gamma
        inputs = (grid, snapshot, requests, choice_sets, proposals, params)
        fair = solve_step3(*inputs, gamma, now, **kwargs)
        plain = solve_step3(*inputs, 0.0, now, **kwargs)
        pairs.append(GammaPair(day, fair, plain))
        return fair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "solve_step3", at_both_weights)
        for day in range(desk_config.days):
            sim.run_day(grid, desk_config, day, "fair-coplan")
    return pairs


def test_criterion_3_gamma_dominance(gamma_pairs, verdict):
    compared = tdc_violations = fairness_violations = 0
    for _, fair, plain in gamma_pairs:
        if not fair.report.has_conflicts:
            continue
        both_exact = (fair.objective is not None
                      and plain.objective is not None
                      and fair.dropped == plain.dropped)
        if both_exact:
            compared += 1
            fair_tdc = sum(fair.tdc_by_flight[f] for f in fair.replanned)
            plain_tdc = sum(plain.tdc_by_flight[f] for f in plain.replanned)
            if plain_tdc > fair_tdc + DOMINANCE_TOL:
                tdc_violations += 1
            if fair.fairness > plain.fairness + DOMINANCE_TOL:
                fairness_violations += 1

    ok = compared > 0 and tdc_violations == 0 and fairness_violations == 0
    verdict(3, ok,
            f"{compared} deconflicted periods solved at both weights, "
            f"{tdc_violations} delay-cost violations, "
            f"{fairness_violations} fairness violations")


def test_criterion_4_paired_fairness_improvement(desk_config, desk_campaign,
                                                gamma_pairs, verdict):
    # As in criterion 5, the independent coplan lane would measure HiGHS's
    # choice among tied optima, so each fair-coplan day is paired with the
    # γ = 0 re-solves of its own periods.
    campaign, elapsed = desk_campaign

    def day_fairness(weight: str) -> list[float | None]:
        # Mean rounded fairness over the periods that replanned, exactly as
        # day_rows does.
        by_day: list[list[float]] = [[] for _ in range(desk_config.days)]
        for pair in gamma_pairs:
            result = getattr(pair, weight)
            if result.replanned:
                by_day[pair.day].append(round(result.fairness, 9))
        return [round(sum(day) / len(day), 9) if day else None
                for day in by_day]

    fair_days, plain_days = day_fairness("fair"), day_fairness("plain")
    assert fair_days == [row["day_fairness"]
                         for row in day_rows(campaign.records()["fair-coplan"])]
    eligible = [(fair, plain) for fair, plain in zip(fair_days, plain_days)
                if fair is not None]
    improved = sum(1 for fair, plain in eligible
                   if plain is not None and fair < plain)
    fraction = round(improved / len(eligible), 9) if eligible else None
    lanes = campaign.summary()["paired_fairness"]
    ok = (fraction is not None and fraction >= IMPROVED_FRACTION_MIN
          and elapsed < CAMPAIGN_BUDGET_S)
    verdict(4, ok,
            f"fairness improved on {improved} of {len(eligible)} deconflicted "
            f"days (fraction {fraction}; γ = 0 on fair-coplan's period "
            f"inputs), campaign ran {elapsed:.0f}s; independent coplan lane "
            f"{lanes['improved_days']} of {lanes['eligible_days']} "
            f"(fraction {lanes['improved_fraction']}, reported, not gated)")


def test_criterion_5_mean_daily_tdc_ordering(desk_config, desk_campaign,
                                             gamma_pairs, verdict):
    # The independent coplan lane files its own plans, so from the first
    # tied optimum on it plans different later batches than fair-coplan
    # does; comparing the lanes would measure HiGHS's choice among ties.
    # γ = 0 on fair-coplan's own period inputs is the pure-efficiency
    # planner the fairness term is weighed against.
    campaign, _ = desk_campaign
    records = campaign.records()
    lanes = {mode: [row["total_tdc"] for row in day_rows(records[mode])]
             for mode in MODES}

    deconflicted = [p for p in gamma_pairs if p.fair.report.has_conflicts]
    assert deconflicted
    for day, fair, plain in deconflicted:
        assert fair.objective is not None, day
        assert plain.objective is not None, day
        # The fairness block adds only continuous variables with rows that
        # can always be met, so the drop sequence cannot depend on γ.
        assert fair.dropped == plain.dropped, (day, fair.dropped, plain.dropped)

    def daily_tdc(weight: str) -> list[float]:
        # Rounded per period, then per day, exactly as day_rows does.
        totals = [0.0] * desk_config.days
        for pair in gamma_pairs:
            totals[pair.day] += round(getattr(pair, weight).total_tdc, 9)
        return [round(total, 9) for total in totals]

    fair_daily, plain_daily = daily_tdc("fair"), daily_tdc("plain")
    assert fair_daily == lanes["fair-coplan"]

    def mean(values):
        return sum(values) / len(values)

    means = {"tfmp": mean(lanes["tfmp"]),
             "fair-coplan": mean(fair_daily),
             "coplan": mean(plain_daily)}
    ok = (means["tfmp"] >= means["fair-coplan"]
          and means["fair-coplan"] + DOMINANCE_TOL >= means["coplan"])
    verdict(5, ok,
            f"mean daily TDC: tfmp {means['tfmp']:.2f} >= "
            f"fair-coplan {means['fair-coplan']:.2f} >= "
            f"coplan {means['coplan']:.2f} (γ = 0 on fair-coplan's period "
            f"inputs); independent coplan lane "
            f"{mean(lanes['coplan']):.2f} (reported, not gated)")


def test_criterion_6_solve_time_sanity(desk_campaign, verdict):
    campaign, _ = desk_campaign
    stages = ("step1", "step2", "step3", "tfmp")
    worst_period = max(
        sum(row.get(stage, 0.0) for stage in stages)
        for row in campaign.timing_rows()
    )
    worst_flight = max(row.get("step2_max", 0.0)
                       for row in campaign.timing_rows())
    ok = (worst_period < PERIOD_SOLVE_BUDGET_S
          and worst_flight < FLIGHT_SOLVE_BUDGET_S)
    verdict(6, ok,
            f"slowest period {worst_period:.2f}s (budget "
            f"{PERIOD_SOLVE_BUDGET_S:.0f}s), slowest per-flight solve "
            f"{worst_flight:.3f}s (budget {FLIGHT_SOLVE_BUDGET_S:.0f}s)")


def test_criterion_7_byte_determinism(desk_config, desk_campaign,
                                      tmp_path_factory, verdict):
    campaign, _ = desk_campaign
    first = tmp_path_factory.mktemp("first")
    write_campaign(first, campaign)
    second = tmp_path_factory.mktemp("second")
    write_campaign(second, run_campaign(desk_config))

    names = ["scenario.yaml", "summary.json", "days.csv"]
    names += [f"{mode}/periods.jsonl" for mode in MODES]
    mismatched = [name for name in names
                  if (first / name).read_bytes() != (second / name).read_bytes()]
    ok = not mismatched
    verdict(7, ok,
            f"{len(names)} artifacts byte-identical across two runs "
            f"(timing.csv excluded); mismatches: {mismatched or 'none'}")
