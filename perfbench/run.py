"""Outside-in campaign benchmark for faircoplan.

Run from the root of a checkout::

    python3 perfbench/run.py --workload desk-campaign --seed 1 --seconds 40 --trace 0

Each campaign runs in a fresh single-threaded worker process. A run first
plays one campaign on demand seed ``--seed`` (checked and reported, not
gated), then replays the workload's fixed demand for ``--seconds``; the
gated metrics come from those replays. Times are scaled to reference speed
(``reference.py``) and printed raw as well. Every campaign's
artifacts are checked: the summary recomputed from the records must match,
and the artifact digest must match every earlier run of the same campaign
in this checkout.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` pairs each
untraced replay with a traced one, alternating which runs first, and
reports the per-layer metrics and the tracing overhead. Metric names and units come from
``BENCHMARK.json``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import DigestLedger
from layers import per_layer
from workloads import MODES, WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nearest_rank(values: list[float], pct: int) -> float:
    return sorted(values)[math.ceil(pct * len(values) / 100) - 1]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), or None when there are too few samples."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    return (pct, nearest_rank(values, pct)) if pct >= 1 else None


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)})"
    tail = tail_percentile(values)
    if tail is None:
        return line + "; no percentile has 10 samples beyond it"
    return line + f"; p{tail[0]} {tail[1]:.6g} {unit}"


def run_worker(root: Path, workload: str, demand_seed: int | None, traced: bool,
               deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in SINGLE_THREAD})
    out = root / ".perfbench_out"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--trace", str(int(traced)), "--out", str(out / "work")]
    if demand_seed is not None:
        cmd += ["--demand-seed", str(demand_seed)]
    if traced:
        cmd += ["--spans", str(out / "spans" / f"{workload}.jsonl")]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict], scaled: bool = True,
               ) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Per-campaign samples of each campaign-level metric, and the pooled
    period latencies by mode; times at reference speed, or raw."""
    samples: dict[str, list[float]] = {"campaign_s": [], "peak_rss_mb": []}
    latencies: dict[str, list[float]] = {mode: [] for mode in MODES}
    for run in runs:
        samples["campaign_s"].append(run["campaign_s" if scaled else "campaign_raw_s"])
        samples["peak_rss_mb"].append(run["peak_rss_mb"])
        spent = dict.fromkeys(MODES, 0.0)
        for mode, raw, at_reference in run["periods"]:
            latency = at_reference if scaled else raw
            spent[mode] += latency
            latencies[mode].append(latency)
        for mode in MODES:
            samples.setdefault(f"mode_s.{mode}", []).append(spent[mode])
    return samples, latencies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    needed = ["BENCHMARK.json", "src/faircoplan/__init__.py",
              WORKLOADS[args.workload].config]
    missing = [rel for rel in needed if not (root / rel).is_file()]
    if missing:
        print(f"not a faircoplan checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    ledger = DigestLedger(root / ".perfbench_out" / "digests.json")

    problems: list[str] = []

    def play(demand_seed: int | None, traced: bool) -> dict:
        run = run_worker(root, args.workload, demand_seed, traced, deadline)
        label = f"campaign (demand seed {run['demand_seed']}{', traced' if traced else ''})"
        problems.extend(f"{label}: {problem}" for problem in run["problems"])
        if "digest" in run:
            clash = ledger.check(run["campaign"], run["digest"])
            if clash:
                problems.append(clash)
            print(f"{label}: {run['campaign_raw_s']:.6g} s raw, "
                  f"{run['campaign_s']:.6g} s at reference speed, "
                  f"digest {run['digest'][:16]}, "
                  f"{run['threads']} thread(s); "
                  + "; ".join(f"{mode} " + " ".join(f"{key}={value}"
                                                    for key, value in stats.items())
                              for mode, stats in sorted(run["outputs"].items())))
        return run

    untraced: list[dict] = []
    traced: list[dict] = []
    took: list[float] = []
    try:
        seeded = play(args.seed, False)
        replays_started = time.monotonic()
        # Start another replay only while a typical one still fits the window.
        while not took or (time.monotonic() - replays_started
                           + statistics.median(took) <= args.seconds):
            begin = time.monotonic()
            pair = [False, True] if args.trace else [False]
            if len(untraced) % 2:  # alternate which side of a pair runs first
                pair.reverse()
            for is_traced in pair:
                (traced if is_traced else untraced).append(play(None, is_traced))
            took.append(time.monotonic() - begin)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    ledger.save()

    seeded_samples, _ = end_to_end([seeded])
    print(f"seeded campaign (demand seed {args.seed}), not gated: "
          + ", ".join(f"{name} {vals[0]:.6g}" for name, vals in seeded_samples.items()))
    runs = [seeded] + untraced + traced
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    samples, latencies = end_to_end(untraced)
    samples["setup_s"] = [run["setup_s"] for run in runs]
    raw, raw_latencies = end_to_end(untraced, scaled=False)
    raw["setup_s"] = [run["setup_raw_s"] for run in runs]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, values in sorted(samples.items()):
        print(describe(name, values, units.get(name, ""))
              + f"; raw median {statistics.median(raw[name]):.6g}")
    values = {name: statistics.median(vals) for name, vals in samples.items()}
    for mode in MODES:
        print(describe(f"period_s.{mode}", latencies[mode], "s")
              + f"; raw median {statistics.median(raw_latencies[mode]):.6g}")
        values[f"period_p50_s.{mode}"] = statistics.median(latencies[mode])
        if len(latencies[mode]) >= 200:
            print(f"period_p95_s.{mode}: {nearest_rank(latencies[mode], 95):.6g} s "
                  f"(n={len(latencies[mode])})")
        else:
            print(f"period_p95_s.{mode}: n/a, {len(latencies[mode])} periods "
                  "leave fewer than 10 beyond p95")
    print(f"periods_failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")

    wanted = spec["end_to_end"]
    if args.trace:
        totals: dict[str, float] = {}
        for run in traced:
            for key, value in run.get("layers", {}).items():
                totals[key] = totals.get(key, 0.0) + value
        values = per_layer(totals, len(traced))
        values["trace.campaign_s"] = statistics.mean(r["campaign_s"] for r in traced)
        values["trace.overhead_s"] = (statistics.median(r["campaign_s"] for r in traced)
                                      - statistics.median(samples["campaign_s"]))
        wanted = spec["per_layer"]
        print(f"trace: self times sum to {values['trace.self_sum_s']:.6g} s of a "
              f"traced campaign_s of {values['trace.campaign_s']:.6g} s; tracing "
              f"overhead {values['trace.overhead_s']:.6g} s")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    if args.trace:
        unrecorded = [m["name"] for m in wanted if m["name"] not in values]
        if unrecorded:
            print(f"no spans recorded for {', '.join(unrecorded)}; reported as 0")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0) if args.trace
                                else values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
