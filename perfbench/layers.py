"""Where the benchmark hooks into faircoplan, and the per-layer metrics it
derives from the recorded spans.

Every hook is a public module attribute or class method. The checker
functions are imported by name into the planner modules, so each consuming
module's name is wrapped separately; ``milp.py`` reaches HiGHS through the
``scipy.optimize.milp`` attribute.
"""
from __future__ import annotations

from collections import defaultdict

from spans import ATTRS, BOOKKEEPING, END, NAME, PARENT, START, SpanRecorder, self_times

MODEL_KINDS = ("choice-setting", "trajectory", "deconfliction", "fixed-route-schedule")
STAGES = {"step1": "solve_step1", "step2": "solve_step2",
          "step3": "solve_step3", "baseline": "solve_tfmp"}
CHECKERS = ("plan_violations", "choice_violations", "overlay_violations")
ACCEPTED = ("optimal", "time-limit-feasible")

# Disjoint exclusive times that together cover every recorded span below the
# campaign root; their sum is ``trace.self_sum_s``.
EXCLUSIVE = (
    "sim.run_campaign.self_s", "sim.run_day.self_s", "sim.run_period.self_s",
    "sim.generate_demand_s", "step1.self_s", "step2.self_s", "step3.self_s",
    "baseline.self_s", "milp.solve.self_s", "milp.marshal_s", "milp.highs_s",
    "milp.verify_s", "checker.plan_violations_s", "checker.choice_violations_s",
    "checker.overlay_violations_s", "airspace.file_plan_s",
    "airspace.with_plans_s", "serialize.write_campaign_s", "trace.bookkeeping_s",
)


def _solve_status(args, kwargs, result) -> dict:
    return {"status": result.status, "hit_time_limit": result.hit_time_limit}


def _solve_stats(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    constraints = model.constraints
    return {
        "kind": model.name.split(".", 1)[0],
        "vars": len(model.variables),
        "rows": len(constraints),
        "nnz": sum(len(con.coeffs) for con in constraints),
        "status": result.status,
        "hit_time_limit": result.hit_time_limit,
    }


def _period_mode(args, kwargs, result) -> dict:
    return {"mode": result.mode}


def _step2_outcome(args, kwargs, result) -> dict:
    return {"infeasible": result.plan is None}


def _drops(args, kwargs, result) -> dict:
    return {"dropped": len(result.dropped)}


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(p.stat().st_size for p in result.rglob("*") if p.is_file())}


def install_period_probe(recorder: SpanRecorder) -> None:
    """The untraced run's only hooks: period latency and solve status."""
    from faircoplan import milp, sim

    recorder.patch(sim, "run_period", "sim.run_period", _period_mode)
    recorder.patch(milp, "solve", "milp.solve", _solve_status)


def install_tracing(recorder: SpanRecorder) -> None:
    """A span around every call the per-layer metrics are built from."""
    import scipy.optimize

    from faircoplan import airspace, baseline, milp, serialize, sim, step1, step2, step3

    recorder.patch(serialize, "write_campaign", "serialize.write_campaign",
                   _written_bytes)
    for fn in ("run_campaign", "run_day", "generate_demand"):
        recorder.patch(sim, fn, f"sim.{fn}")
    recorder.patch(sim, "run_period", "sim.run_period", _period_mode)
    observers = {"step2": _step2_outcome, "step3": _drops, "baseline": _drops}
    for stage, fn in STAGES.items():
        recorder.patch(sim, fn, stage, observers.get(stage))
    for module in (sim, step1, step2, step3, baseline):
        for fn in CHECKERS:
            if hasattr(module, fn):
                recorder.patch(module, fn, f"checker.{fn}")
    recorder.patch(milp, "solve", "milp.solve", _solve_stats)
    recorder.patch(milp.HighsBackend, "solve", "milp.backend")
    recorder.patch(scipy.optimize, "milp", "milp.highs")
    recorder.patch(milp, "check_solution", "milp.verify")
    recorder.patch(airspace.OccupancyLedger, "file_plan", "airspace.file_plan")
    recorder.patch(airspace.OccupancySnapshot, "with_plans", "airspace.with_plans")


def _ancestor(spans: list[list], i: int, names) -> int:
    """Index of the nearest enclosing span named in ``names``, or -1."""
    i = spans[i][PARENT]
    while i >= 0 and spans[i][NAME] not in names:
        i = spans[i][PARENT]
    return i


def period_outcomes(spans: list[list]) -> list[tuple[str, float, bool]]:
    """``(mode, latency, failed)`` per completed planning period, where a
    period fails when any solve in it ended in error or at its time limit."""
    failed = set()
    for i, record in enumerate(spans):
        attrs = record[ATTRS]
        if record[NAME] == "milp.solve" and attrs is not None and (
                attrs["status"] == "error" or attrs["hit_time_limit"]):
            failed.add(_ancestor(spans, i, ("sim.run_period",)))
    return [(r[ATTRS]["mode"], r[END] - r[START], i in failed)
            for i, r in enumerate(spans)
            if r[NAME] == "sim.run_period" and r[ATTRS] is not None]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-campaign sums: seconds, counts and model sizes, by metric name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, record in enumerate(spans):
        name, attrs = record[NAME], record[ATTRS] or {}
        took = record[END] - record[START]
        parent = spans[record[PARENT]][NAME] if record[PARENT] >= 0 else None
        if name in ("sim.run_campaign", "sim.run_day", "sim.run_period"):
            out[f"{name}.self_s"] += own[i]
            if name == "sim.run_period":
                out["sim.periods"] += 1
        elif name in STAGES:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += took
            out[f"{name}.self_s"] += own[i]
            for key in ("infeasible", "dropped"):
                if key in attrs:
                    out[f"{name}.{key}"] += attrs[key]
        elif name.startswith("checker."):
            out[f"{name}_s"] += took
            if parent == "sim.run_period":
                out["sim.audit_s"] += took
            elif parent == "step1":
                out["step1.recheck_s"] += took
        elif name == "milp.solve":
            kind = attrs["kind"]
            out["milp.solves"] += 1
            out["milp.solve.self_s"] += own[i]
            out[f"milp.{kind}.solves"] += 1
            for size in ("vars", "rows", "nnz"):
                out[f"milp.{kind}.{size}"] += attrs[size]
            out[f"milp.{kind}.infeasible"] += attrs["status"] == "infeasible"
            stage = _ancestor(spans, i, ("step3", "baseline"))
            if stage >= 0:
                stage_name = spans[stage][NAME]
                out[f"{stage_name}.attempts"] += 1
                out[f"{stage_name}.accepted"] += attrs["status"] in ACCEPTED
        elif name in ("milp.backend", "milp.highs", "milp.verify"):
            layer = {"milp.backend": "marshal", "milp.highs": "highs",
                     "milp.verify": "verify"}[name]
            solve = _ancestor(spans, i, ("milp.solve",))
            kind = spans[solve][ATTRS]["kind"]
            spent = own[i] if name == "milp.backend" else took
            out[f"milp.{layer}_s"] += spent
            out[f"milp.{kind}.{layer}_s"] += spent
        elif name in ("sim.generate_demand", "airspace.file_plan",
                      "airspace.with_plans", "serialize.write_campaign",
                      BOOKKEEPING):
            out[f"{name}_s"] += took
            if name == "serialize.write_campaign":
                out["serialize.bytes"] += attrs["bytes"]
    out["trace.self_sum_s"] = sum(out[key] for key in EXCLUSIVE)
    out["trace.spans"] = len(spans)
    return dict(out)


def per_layer(totals: dict[str, float], campaigns: int) -> dict[str, float]:
    """Per-layer metrics from layer totals summed over ``campaigns`` traced
    campaigns: model sizes per solve, ratios pooled, the rest per campaign."""
    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    out = {key: value / campaigns for key, value in totals.items()}
    for kind in MODEL_KINDS:
        for size in ("vars", "rows", "nnz"):
            out[f"milp.{kind}.{size}"] = ratio(f"milp.{kind}.{size}",
                                               f"milp.{kind}.solves")
    out["step2.infeasible_ratio"] = ratio("step2.infeasible", "step2.calls")
    out["baseline.useful_ratio"] = ratio("baseline.accepted", "baseline.attempts")
    return out
