"""Cross-checks of every optimizer against brute force on tiny instances.

Each instance runs the full negotiated pipeline and the fixed-route baseline,
then compares the achieved objectives with the exhaustive-search oracles:
granted-choice totals, per-flight delay costs, joint deconfliction cost (and
the no-worse-fairness property of the weighted run), and baseline schedule
cost. A case fails loudly with both numbers in the detail string. Searches
that would outgrow their node budgets are skipped, never silently trusted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airspace import AirspaceGrid, GridConfig, VertiportSpec, build_grid
from .baseline import fixed_route, solve_tfmp
from .flights import FlightRequest
from .oracle import (
    OracleSizeError,
    TinyInstance,
    oracle_joint_optimum,
    oracle_step1_optimum,
    oracle_step2_optimum,
    oracle_tfmp_optimum,
)
from .step1 import solve_step1
from .step2 import solve_step2
from .step3 import detect_conflicts, solve_step3

__all__ = ["CaseResult", "build_catalog", "check_instance", "random_instance",
           "run_selfcheck"]

_TOL = 1e-6


def _same(a: float, b: float) -> bool:
    """Exact agreement between two independently computed optima.

    Both sides are short sums of the same rational step costs, so once the
    last-bit noise of float summation order is rounded away they have to
    match digit for digit; anything larger is a real disagreement.
    """
    return round(a, 9) == round(b, 9)


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + (
            f"  ({self.detail})" if self.detail else "")


def _grid(
    rows: int,
    cols: int,
    vertiports: tuple[tuple[int, int], ...],
    horizon: int = 8,
    *,
    vp_capacity: int = 2,
    ring_capacity: int = 1,
    sector_capacity: int = 1,
    connectivity: str = "orthogonal-4",
    overrides: tuple[tuple[str, int, int], ...] = (),
) -> AirspaceGrid:
    specs = tuple(
        VertiportSpec(row=row, col=col, kind="hub" if i == 0 else "vertistop",
                      ops_capacity=vp_capacity)
        for i, (row, col) in enumerate(vertiports)
    )
    return build_grid(GridConfig(
        rows=rows, cols=cols, vertiports=specs, connectivity=connectivity,
        horizon_steps=horizon, step_minutes=5,
        sector_capacity=sector_capacity, ring_capacity=ring_capacity,
        capacity_overrides=overrides,
    ))


def _rid(grid: AirspaceGrid, row: int, col: int) -> str:
    return f"r{row * grid.config.cols + col:04d}"


def _blocked(grid: AirspaceGrid, row: int, col: int) -> tuple[tuple[str, int, int], ...]:
    rid = _rid(grid, row, col)
    return tuple((rid, t, 0) for t in range(grid.horizon_steps))


def _request(
    grid: AirspaceGrid,
    fid: str,
    origin: str,
    destination: str,
    depart: int,
    *,
    flexibility: int = 3,
    dwell: tuple[tuple[str, int], ...] = (),
    operator: str = "op",
    resubmissions: int = 0,
) -> FlightRequest:
    """Request whose arrival assumes the shortest route at the given dwells."""
    route = fixed_route(grid, origin, destination)
    probe = FlightRequest(fid, operator, origin, destination, depart,
                          depart + 1, flexibility=flexibility, dwell=dwell)
    travel = 1
    for rid in route.legs[1:-1]:
        travel += probe.min_dwell(rid) if grid.resource(rid).kind == "sector" else 1
    return FlightRequest(
        fid, operator, origin, destination, depart, depart + travel,
        flexibility=flexibility, dwell=dwell, resubmissions=resubmissions,
    )


def build_catalog() -> list[TinyInstance]:
    """Hand-built instances covering every planner path."""
    out = []

    corridor = _grid(1, 3, ((0, 0), (0, 2)))
    v0, v2 = _rid(corridor, 0, 0), _rid(corridor, 0, 2)
    out.append(TinyInstance(
        "corridor", corridor,
        (_request(corridor, "f0", v0, v2, 0),),
    ))
    out.append(TinyInstance(
        "corridor-dwell", corridor,
        (_request(corridor, "f0", v0, v2, 0,
                  dwell=((_rid(corridor, 0, 1), 2),)),),
    ))
    out.append(TinyInstance(
        "corridor-pair", corridor,
        (_request(corridor, "f0", v0, v2, 0, flexibility=2),
         _request(corridor, "f1", v0, v2, 1, flexibility=2)),
    ))
    out.append(TinyInstance(
        "corridor-pair-weighted", corridor,
        (_request(corridor, "f0", v0, v2, 0, flexibility=2),
         _request(corridor, "f1", v0, v2, 1, flexibility=2)),
        gamma=1.0,
    ))
    out.append(TinyInstance(
        "corridor-opposed", corridor,
        (_request(corridor, "f0", v0, v2, 0, flexibility=2),
         _request(corridor, "f1", v2, v0, 0, flexibility=2)),
    ))
    out.append(TinyInstance(
        "corridor-busy", corridor,
        (_request(corridor, "f0", v0, v2, 0, flexibility=2),),
        base=((_rid(corridor, 0, 1), 1, 1), (_rid(corridor, 0, 1), 2, 1)),
    ))
    out.append(TinyInstance(
        "corridor-late-window", corridor,
        (_request(corridor, "f0", v0, v2, 0, flexibility=2),
         _request(corridor, "f1", v0, v2, 5)),
    ))
    # Planning starts mid-horizon: f0's requested departure is already in
    # the past and every window must truncate at the current step.
    out.append(TinyInstance(
        "corridor-midstream", corridor,
        (_request(corridor, "f0", v0, v2, 1, flexibility=2),
         _request(corridor, "f1", v0, v2, 3, flexibility=2)),
        now=2,
    ))

    blocked = _grid(1, 3, ((0, 0), (0, 2)))
    out.append(TinyInstance(
        "corridor-blocked",
        _grid(1, 3, ((0, 0), (0, 2)), overrides=_blocked(blocked, 0, 1)),
        (_request(blocked, "f0", v0, v2, 0),),
    ))

    # A 2x4 grid with one corner-to-corner pair and the upper of the two
    # plain middle cells closed: every shortest path funnels through the
    # open plain cell, which holds capacity one while the zone around it
    # has room for two, so identical proposals collide and the joint
    # deconfliction step has real work to do.
    pinch_probe = _grid(2, 4, ((0, 0), (1, 3)))
    pinch = _grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=2,
                  overrides=_blocked(pinch_probe, 0, 2))
    p0, p7 = _rid(pinch, 0, 0), _rid(pinch, 1, 3)
    for gamma, tag in ((0.0, ""), (1.0, "-weighted"), (5.0, "-heavyweight")):
        out.append(TinyInstance(
            f"pinch-pair{tag}", pinch,
            (_request(pinch, "f0", p0, p7, 0, flexibility=2),
             _request(pinch, "f1", p0, p7, 0, flexibility=2)),
            gamma=gamma,
        ))
    out.append(TinyInstance(
        "pinch-opposed", pinch,
        (_request(pinch, "f0", p0, p7, 0, flexibility=2),
         _request(pinch, "f1", p7, p0, 0, flexibility=2)),
        gamma=1.0,
    ))

    detour = _grid(2, 3, ((0, 0), (0, 2)), vp_capacity=2)
    detour_blocked = _grid(2, 3, ((0, 0), (0, 2)), vp_capacity=2,
                           overrides=_blocked(detour, 0, 1))
    out.append(TinyInstance(
        "detour", detour_blocked,
        (_request(detour, "f0", _rid(detour, 0, 0), _rid(detour, 0, 2), 0),),
    ))
    out.append(TinyInstance(
        "detour-contest", detour,
        (_request(detour, "f0", _rid(detour, 0, 0), _rid(detour, 0, 2), 1),
         _request(detour, "f1", _rid(detour, 0, 0), _rid(detour, 0, 2), 1)),
        gamma=1.0,
    ))

    diag = _grid(3, 3, ((0, 0), (2, 2)), connectivity="diagonal-8",
                 ring_capacity=1)
    out.append(TinyInstance(
        "diagonal", diag,
        (_request(diag, "f0", _rid(diag, 0, 0), _rid(diag, 2, 2), 0,
                  flexibility=2),),
    ))

    cross = _grid(3, 3, ((0, 0), (2, 2), (0, 2), (2, 0)), vp_capacity=1,
                  horizon=9)
    out.append(TinyInstance(
        "crossing", cross,
        (_request(cross, "f0", _rid(cross, 0, 0), _rid(cross, 2, 2), 1,
                  flexibility=2),
         _request(cross, "f1", _rid(cross, 0, 2), _rid(cross, 2, 0), 1,
                  flexibility=2)),
        gamma=1.0,
    ))
    return out


def random_instance(seed: int) -> TinyInstance:
    """A seeded corridor-or-small-grid instance with consistent windows."""
    rng = np.random.default_rng(seed)
    rows, cols = [(1, 3), (1, 4), (2, 3), (2, 4)][int(rng.integers(4))]
    horizon = int(rng.integers(8, 11))
    ring_cap = int(rng.integers(1, 3))
    vp_cap = int(rng.integers(1, 3))
    grid = _grid(rows, cols, ((0, 0), (0, cols - 1)), horizon,
                 vp_capacity=vp_cap, ring_capacity=ring_cap)
    ends = (_rid(grid, 0, 0), _rid(grid, 0, cols - 1))

    n_flights = 1 + int(rng.integers(2))
    requests = []
    for i in range(n_flights):
        forward = bool(rng.integers(2))
        origin, dest = ends if forward else ends[::-1]
        eps = int(rng.integers(2, 4))
        dwell = ()
        route = fixed_route(grid, origin, dest)
        ring_legs = [rid for rid in route.legs[1:-1] if rid in grid.ring]
        if ring_legs and rng.integers(2):
            dwell = ((ring_legs[int(rng.integers(len(ring_legs)))], 2),)
        probe = _request(grid, f"f{i}", origin, dest, 0, flexibility=eps,
                         dwell=dwell)
        travel = probe.requested_arrival - probe.requested_departure
        latest = max(0, horizon - travel - eps - 1)
        depart = int(rng.integers(0, min(latest, 2) + 1))
        requests.append(_request(grid, f"f{i}", origin, dest, depart,
                                 flexibility=eps, dwell=dwell))

    base = ()
    if rng.integers(3) == 0:
        mid = route.legs[len(route.legs) // 2]
        base = ((mid, int(rng.integers(1, 4)), 1),)
    gamma = (0.0, 1.0, 5.0)[int(rng.integers(3))]
    return TinyInstance(f"random-{seed}", grid, tuple(requests), base=base,
                        gamma=gamma)


def _choice_domain_sizes(inst: TinyInstance) -> list[int]:
    grid, snap = inst.grid, inst.snapshot()
    end = inst.now + grid.horizon_steps
    sizes = []
    for req in inst.requests:
        if req.requested_arrival + req.flexibility > end:
            sizes.append(0)
            continue
        lo = max(req.requested_departure, inst.now)
        hi = min(req.requested_arrival + req.flexibility - 1, end - 1)
        sizes.append(sum(
            1 for rid in grid.zone for t in range(lo, hi + 1)
            if snap.remaining(rid, t) >= 1
        ))
    return sizes


def check_instance(inst: TinyInstance) -> list[CaseResult]:
    """Run planners against oracles; one CaseResult per comparison."""
    cases: list[CaseResult] = []
    grid, snap, now = inst.grid, inst.snapshot(), inst.now
    params = inst.params
    by_id = {r.flight_id: r for r in inst.requests}

    def case(name: str, passed: bool, detail: str = "") -> None:
        cases.append(CaseResult(f"{inst.name}/{name}", passed, detail))

    try:
        s1 = solve_step1(grid, snap, list(inst.requests), now)

        if sum(2 ** size for size in _choice_domain_sizes(inst)) <= 40000:
            try:
                want, _ = oracle_step1_optimum(grid, snap, inst.requests, now)
                case("choices", _same(s1.objective, want),
                     f"milp={s1.objective:g} oracle={want:g}")
            except OracleSizeError:
                pass

        proposals = {}
        skip = set(s1.unassigned) | set(s1.deferred)
        for fid in sorted(by_id):
            if fid in skip:
                continue
            got = solve_step2(grid, snap, by_id[fid], s1.choice_sets[fid],
                              params, now)
            try:
                want_tdc, _ = oracle_step2_optimum(grid, snap, by_id[fid],
                                                   s1.choice_sets[fid], params, now)
            except OracleSizeError:
                want_tdc = "skip"
            if got.plan is not None:
                proposals[fid] = got.plan
            if want_tdc == "skip":
                continue
            if got.plan is None:
                case(f"trajectory-{fid}", want_tdc is None,
                     f"milp=infeasible oracle={want_tdc}")
            else:
                case(f"trajectory-{fid}",
                     want_tdc is not None and _same(got.tdc, want_tdc),
                     f"milp={got.tdc:g} oracle={want_tdc}")

        if proposals:
            report = detect_conflicts(grid, snap, proposals)
            s3 = solve_step3(grid, snap,
                             [by_id[f] for f in sorted(proposals)],
                             s1.choice_sets, proposals, params, inst.gamma,
                             now)
            if report.has_conflicts:
                kept = {f: p for f, p in proposals.items()
                        if f not in report.conflicting_flights}
                base = snap.with_plans(kept.values())
                active = sorted(report.conflicting_flights)
                try:
                    want_obj, _ = oracle_joint_optimum(
                        grid, base, [by_id[f] for f in active],
                        s1.choice_sets, params, gamma=inst.gamma,
                        proposals=proposals, now=now,
                    )
                except OracleSizeError:
                    want_obj = "skip"
                if want_obj != "skip":
                    if want_obj is None:
                        case("deconfliction", bool(s3.dropped),
                             "oracle says no joint solution; planner must drop")
                    else:
                        got_obj = (sum(s3.tdc_by_flight[f] for f in s3.replanned)
                                   + inst.gamma * s3.fairness)
                        case("deconfliction",
                             not s3.dropped and _same(got_obj, want_obj),
                             f"milp={got_obj:g} oracle={want_obj:g} "
                             f"dropped={list(s3.dropped)}")

                if inst.gamma > 0.0:
                    s3_plain = solve_step3(
                        grid, snap, [by_id[f] for f in sorted(proposals)],
                        s1.choice_sets, proposals, params, 0.0, now)
                    if not s3.dropped and not s3_plain.dropped:
                        case("fairness-dominance",
                             s3.fairness <= s3_plain.fairness + _TOL,
                             f"weighted={s3.fairness:g} "
                             f"plain={s3_plain.fairness:g}")

        baseline = solve_tfmp(grid, snap, list(inst.requests), params, now)
        try:
            want_total, _ = oracle_tfmp_optimum(grid, snap, inst.requests,
                                                params, now)
        except OracleSizeError:
            want_total = "skip"
        if want_total != "skip":
            if baseline.deferred or baseline.dropped:
                case("schedule-baseline", want_total is None,
                     f"planner deferred/dropped but oracle found {want_total}")
            else:
                case("schedule-baseline",
                     want_total is not None
                     and _same(baseline.total_tdc, want_total),
                     f"milp={baseline.total_tdc:g} oracle={want_total}")
    except Exception as exc:  # noqa: BLE001 - a crash is a failed case
        case("pipeline", False, repr(exc))
    return cases


def run_selfcheck(
    random_count: int = 18,
    seed: int = 2024,
) -> tuple[list[TinyInstance], list[CaseResult]]:
    """The full suite: hand-built catalog plus seeded random instances."""
    instances = build_catalog()
    instances += [random_instance(seed + i) for i in range(random_count)]
    cases: list[CaseResult] = []
    for inst in instances:
        cases.extend(check_instance(inst))
    return instances, cases
