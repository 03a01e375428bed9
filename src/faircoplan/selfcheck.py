"""Cross-checks of every optimizer against brute force on tiny instances.

Each instance runs the full negotiated pipeline and the fixed-route baseline,
then compares the achieved results with the exhaustive-search oracles:
granted-choice totals, per-flight plans (the plan itself, since step 2 and
its oracle share one tie rule), joint deconfliction cost (and the
no-worse-fairness property of the weighted run), and baseline schedule
cost. A case fails loudly with both numbers in the detail string. Searches
that would outgrow their node budgets are skipped, never silently trusted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airspace import AirspaceGrid, GridConfig, VertiportSpec, build_grid, resource_id_for
from .baseline import fixed_route, leg_dwells, solve_tfmp
from .flights import FlightRequest
from .oracle import (
    OracleSizeError,
    TinyInstance,
    choice_domain,
    oracle_joint_optimum,
    oracle_step1_optimum,
    oracle_step2_optimum,
    oracle_tfmp_optimum,
)
from .step1 import solve_step1
from .step2 import solve_step2
from .checker import detect_conflicts
from .step3 import solve_step3

__all__ = ["CASES", "SEED", "CaseResult", "build_catalog", "check_instance", "random_instance",
           "run_selfcheck"]

_TOL = 1e-6
CASES = 35  # instances ``run_selfcheck`` and ``oracle-check`` check by default
SEED = 2024  # their first random instance's seed by default


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


def make_grid(
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
    """A tiny grid; the first vertiport is the hub, the rest vertistops."""
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


def rid(grid: AirspaceGrid, row: int, col: int) -> str:
    return resource_id_for(grid.config.cols, row, col)


def blocked(grid: AirspaceGrid, row: int, col: int) -> tuple[tuple[str, int, int], ...]:
    """Capacity-zero overrides closing one cell for the whole horizon."""
    cell = rid(grid, row, col)
    return tuple((cell, t, 0) for t in range(grid.horizon_steps))


def make_request(
    grid: AirspaceGrid,
    fid: str,
    origin: str,
    destination: str,
    depart: int,
    *,
    flexibility: int = 3,
    dwell: tuple[tuple[str, int], ...] = (),
    resubmissions: int = 0,
) -> FlightRequest:
    """Request whose arrival assumes the shortest route at the given dwells."""
    route = fixed_route(grid, origin, destination)
    probe = FlightRequest(fid, "op", origin, destination, depart,
                          depart + 1, flexibility=flexibility, dwell=dwell)
    travel = sum(leg_dwells(grid, route, probe.min_dwell))
    return FlightRequest(
        fid, "op", origin, destination, depart, depart + travel,
        flexibility=flexibility, dwell=dwell, resubmissions=resubmissions,
    )


def build_catalog() -> list[TinyInstance]:
    """Hand-built instances covering every planner path."""
    out = []

    corridor = make_grid(1, 3, ((0, 0), (0, 2)))
    v0, v2 = rid(corridor, 0, 0), rid(corridor, 0, 2)
    out.append(TinyInstance(
        "corridor", corridor,
        (make_request(corridor, "f0", v0, v2, 0),),
    ))
    out.append(TinyInstance(
        "corridor-dwell", corridor,
        (make_request(corridor, "f0", v0, v2, 0,
                      dwell=((rid(corridor, 0, 1), 2),)),),
    ))
    out.append(TinyInstance(
        "corridor-pair", corridor,
        (make_request(corridor, "f0", v0, v2, 0, flexibility=2),
         make_request(corridor, "f1", v0, v2, 1, flexibility=2)),
    ))
    out.append(TinyInstance(
        "corridor-pair-weighted", corridor,
        (make_request(corridor, "f0", v0, v2, 0, flexibility=2),
         make_request(corridor, "f1", v0, v2, 1, flexibility=2)),
        gamma=1.0,
    ))
    out.append(TinyInstance(
        "corridor-opposed", corridor,
        (make_request(corridor, "f0", v0, v2, 0, flexibility=2),
         make_request(corridor, "f1", v2, v0, 0, flexibility=2)),
    ))
    out.append(TinyInstance(
        "corridor-busy", corridor,
        (make_request(corridor, "f0", v0, v2, 0, flexibility=2),),
        base=((rid(corridor, 0, 1), 1, 1), (rid(corridor, 0, 1), 2, 1)),
    ))
    out.append(TinyInstance(
        "corridor-late-window", corridor,
        (make_request(corridor, "f0", v0, v2, 0, flexibility=2),
         make_request(corridor, "f1", v0, v2, 5)),
    ))
    # Planning starts mid-horizon: f0's requested departure is already in
    # the past and every window must truncate at the current step.
    out.append(TinyInstance(
        "corridor-midstream", corridor,
        (make_request(corridor, "f0", v0, v2, 1, flexibility=2),
         make_request(corridor, "f1", v0, v2, 3, flexibility=2)),
        now=2,
    ))

    # f0 may land a step after its earliest landing, so its earliest
    # schedule is not the only cost-minimal one: it may depart on time and
    # hold in either ring cell. The fixed-route lane leaves it to HiGHS.
    long = make_grid(1, 4, ((0, 0), (0, 3)))
    out.append(TinyInstance(
        "corridor-slack", long,
        (FlightRequest("f0", "op", rid(long, 0, 0), rid(long, 0, 3), 0, 4, flexibility=2),),
    ))
    # f0's earliest schedule enters the second ring cell at step 2, where it
    # is closed, so its cheapest schedule holds the first ring cell a step,
    # the one place it can: the fixed-route lane files that held schedule
    # with no model. In the twin the destination pad is closed at step 3
    # instead, so f0 can hold in either ring cell: tied, left to HiGHS.
    for name, closed in (("corridor-held", (rid(long, 0, 2), 2, 0)),
                         ("corridor-held-tie", (rid(long, 0, 3), 3, 0))):
        out.append(TinyInstance(
            name, make_grid(1, 4, ((0, 0), (0, 3)), overrides=(closed,)),
            (make_request(long, "f0", rid(long, 0, 0), rid(long, 0, 3), 0, flexibility=2),),
        ))

    out.append(TinyInstance(
        "corridor-blocked",
        make_grid(1, 3, ((0, 0), (0, 2)), overrides=blocked(corridor, 0, 1)),
        (make_request(corridor, "f0", v0, v2, 0),),
    ))
    # Step 1 with no zone cell crowded. On a ring that holds both flights
    # the whole offer passes the re-check, so step 1 grants it with no
    # model. In a 2x3 grid whose ring cell between the vertiports is closed
    # at step 1, f0's offered run there is step 0 alone, shorter than its
    # dwell, so the whole offer fails and step 1 solves its model; the other
    # ring cell by the destination is closed, to keep the oracle's search
    # small.
    wide = make_grid(1, 3, ((0, 0), (0, 2)), ring_capacity=2)
    out.append(TinyInstance(
        "corridor-wide-pair", wide,
        (make_request(wide, "f0", v0, v2, 0, flexibility=2),
         make_request(wide, "f1", v0, v2, 1, flexibility=2)),
    ))
    cut_probe = make_grid(2, 3, ((0, 0), (0, 2)))
    cut = make_grid(2, 3, ((0, 0), (0, 2)), vp_capacity=2,
                    overrides=((rid(cut_probe, 0, 1), 1, 0),) + blocked(cut_probe, 1, 2))
    out.append(TinyInstance(
        "ring-dwell-cut", cut,
        (make_request(cut, "f0", rid(cut, 0, 0), rid(cut, 0, 2), 0, flexibility=1,
                      dwell=((rid(cut, 0, 1), 2),)),),
    ))

    # A 2x4 grid with one corner-to-corner pair and the upper of the two
    # plain middle cells closed: every shortest path funnels through the
    # open plain cell, which holds capacity one while the zone around it
    # has room for two, so identical proposals collide and the joint
    # deconfliction step has real work to do.
    pinch_probe = make_grid(2, 4, ((0, 0), (1, 3)))
    pinch = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2, ring_capacity=2,
                      overrides=blocked(pinch_probe, 0, 2))
    p0, p7 = rid(pinch, 0, 0), rid(pinch, 1, 3)
    for gamma, tag in ((0.0, ""), (1.0, "-weighted"), (5.0, "-heavyweight")):
        out.append(TinyInstance(
            f"pinch-pair{tag}", pinch,
            (make_request(pinch, "f0", p0, p7, 0, flexibility=2),
             make_request(pinch, "f1", p0, p7, 0, flexibility=2)),
            gamma=gamma,
        ))
    out.append(TinyInstance(
        "pinch-opposed", pinch,
        (make_request(pinch, "f0", p0, p7, 0, flexibility=2),
         make_request(pinch, "f1", p7, p0, 0, flexibility=2)),
        gamma=1.0,
    ))

    detour = make_grid(2, 3, ((0, 0), (0, 2)), vp_capacity=2)
    detour_blocked = make_grid(2, 3, ((0, 0), (0, 2)), vp_capacity=2,
                               overrides=blocked(detour, 0, 1))
    out.append(TinyInstance(
        "detour", detour_blocked,
        (make_request(detour, "f0", rid(detour, 0, 0), rid(detour, 0, 2), 0),),
    ))
    out.append(TinyInstance(
        "detour-contest", detour,
        (make_request(detour, "f0", rid(detour, 0, 0), rid(detour, 0, 2), 1),
         make_request(detour, "f1", rid(detour, 0, 0), rid(detour, 0, 2), 1)),
        gamma=1.0,
    ))

    diag = make_grid(3, 3, ((0, 0), (2, 2)), connectivity="diagonal-8",
                     ring_capacity=1)
    out.append(TinyInstance(
        "diagonal", diag,
        (make_request(diag, "f0", rid(diag, 0, 0), rid(diag, 2, 2), 0,
                      flexibility=2),),
    ))

    cross = make_grid(3, 3, ((0, 0), (2, 2), (0, 2), (2, 0)), vp_capacity=1,
                      horizon=9)
    out.append(TinyInstance(
        "crossing", cross,
        (make_request(cross, "f0", rid(cross, 0, 0), rid(cross, 2, 2), 1,
                      flexibility=2),
         make_request(cross, "f1", rid(cross, 0, 2), rid(cross, 2, 0), 1,
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
    grid = make_grid(rows, cols, ((0, 0), (0, cols - 1)), horizon,
                     vp_capacity=vp_cap, ring_capacity=ring_cap)
    ends = (rid(grid, 0, 0), rid(grid, 0, cols - 1))

    n_flights = 1 + int(rng.integers(2))
    requests = []
    for i in range(n_flights):
        forward = bool(rng.integers(2))
        origin, dest = ends if forward else ends[::-1]
        eps = int(rng.integers(2, 4))
        dwell = ()
        route = fixed_route(grid, origin, dest)
        ring_legs = [cell for cell in route.legs[1:-1] if cell in grid.ring]
        if ring_legs and rng.integers(2):
            dwell = ((ring_legs[int(rng.integers(len(ring_legs)))], 2),)
        probe = make_request(grid, f"f{i}", origin, dest, 0, flexibility=eps,
                             dwell=dwell)
        travel = probe.requested_arrival - probe.requested_departure
        latest = max(0, horizon - travel - eps - 1)
        depart = int(rng.integers(0, min(latest, 2) + 1))
        requests.append(make_request(grid, f"f{i}", origin, dest, depart,
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
    return [
        0 if req.requested_arrival + req.flexibility > end
        else len(choice_domain(grid, snap, req, inst.now))
        for req in inst.requests
    ]


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
        for fid in sorted(by_id):
            if fid in s1.unassigned:
                continue
            got = solve_step2(grid, snap, by_id[fid], s1.choice_sets[fid],
                              params, now)
            try:
                want_tdc, want_plan = oracle_step2_optimum(
                    grid, snap, by_id[fid], s1.choice_sets[fid], params, now)
            except OracleSizeError:
                want_tdc = "skip"
            if got.plan is not None:
                proposals[fid] = got.plan
            if want_tdc == "skip":
                continue
            # Both sides break ties by the smallest steps tuple, so the
            # plans themselves must agree, not only their costs.
            if got.plan is None:
                case(f"trajectory-{fid}", want_plan is None,
                     f"search=infeasible oracle={want_tdc}")
            else:
                same = got.plan == want_plan
                case(f"trajectory-{fid}", same,
                     f"search={got.tdc:g} oracle={want_tdc}"
                     + ("" if same else f" plans {got.plan.steps} vs "
                        f"{want_plan.steps if want_plan else None}"))

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
            want_total, want_plans = oracle_tfmp_optimum(grid, snap, inst.requests,
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
                # A batch filed with no solve is its flights' cheapest
                # schedules, proven the unique optimum: the oracle's plans
                # are those.
                if baseline.solves == 0:
                    differ = sorted(fid for fid in by_id
                                    if baseline.plans.get(fid) != want_plans.get(fid))
                    case("schedule-baseline-plans", not differ,
                         f"plans differ from the oracle's for {differ}" if differ else "")
    except Exception as exc:  # noqa: BLE001 - a crash is a failed case
        case("pipeline", False, repr(exc))
    return cases


def run_selfcheck(
    cases: int = CASES,
    seed: int = SEED,
) -> tuple[list[TinyInstance], list[CaseResult]]:
    """The first ``cases`` instances of the hand-built catalog, then seeded
    random instances ``seed``, ``seed + 1``, ... until there are ``cases``."""
    instances = build_catalog()[:cases]
    instances += [random_instance(seed + i) for i in range(cases - len(instances))]
    results: list[CaseResult] = []
    for inst in instances:
        results.extend(check_instance(inst))
    return instances, results
