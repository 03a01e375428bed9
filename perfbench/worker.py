"""One benchmark campaign in a fresh process.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload desk-campaign --trace 0 \
        --out .perfbench_out/work [--demand-seed 7]

Times set-up (import, scenario load, grid build) and the campaign
(``sim.run_campaign`` over all modes plus ``serialize.write_campaign``),
checks the written artifacts, and prints one JSON object on stdout.

Times are reported raw and scaled to reference speed (see ``reference.py``):
set-up by kernel runs right after it, and an untraced campaign by a kernel
run before the first period and after each period, each period scaled by
the median of the four kernel runs nearest to it. A traced campaign runs no
kernel between periods, so that its spans cover the campaign; all its times,
span totals included, are scaled by one speed: the mean of the set-up speed
and that of kernel runs right after the campaign.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from check import verify_campaign
from layers import install_period_probe, install_tracing, layer_totals, period_outcomes
from spans import END, START, SpanRecorder
from workloads import WORKLOADS


def _thread_count() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def period_speeds(kernels: list[float], periods: int, reference_s: float) -> list[float]:
    """Speed factor of each period, where ``kernels[k]`` ran just before
    period ``k`` and ``kernels[k + 1]`` just after it."""
    return [reference_s / statistics.median(kernels[max(k - 1, 0):k + 3])
            for k in range(periods)]


def calibrate_periods(sim, kernels: list[float]) -> list[float]:
    """Run the reference kernel after every ``sim.run_period`` call; returns
    a one-item list holding the seconds those kernel runs took."""
    from reference import kernel_s

    spent = [0.0]
    probed = sim.run_period

    def run_period(*args, **kwargs):
        try:
            return probed(*args, **kwargs)
        finally:
            begin = time.perf_counter()
            kernels.append(kernel_s())
            spent[0] += time.perf_counter() - begin

    sim.run_period = run_period
    return spent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--demand-seed", type=int,
                        help="demand seed; the scenario's own seed by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path.cwd()

    start = time.perf_counter()
    import faircoplan
    from faircoplan import serialize, sim

    source = Path(faircoplan.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        print(f"faircoplan imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    config = serialize.load_scenario(root / workload.config)
    config = dataclasses.replace(
        config, days=workload.days,
        periods_per_day=workload.periods_per_day or config.periods_per_day,
        seed=config.seed if args.demand_seed is None else args.demand_seed)
    sim.scenario_grid(config)
    setup_raw_s = time.perf_counter() - start
    # Imported only now: the kernel's numpy and scipy imports belong to set-up.
    from reference import REFERENCE_S, kernel_s, speed

    setup_speed = speed()

    shutil.rmtree(args.out, ignore_errors=True)
    recorder = SpanRecorder(f"{args.workload}-{config.seed}-t{args.trace}")
    (install_tracing if args.trace else install_period_probe)(recorder)
    kernels: list[float] = []
    if not args.trace:
        kernels.append(kernel_s())
        calibration = calibrate_periods(sim, kernels)
    raised = None

    def campaign() -> None:
        serialize.write_campaign(args.out, sim.run_campaign(config))

    try:
        recorder.span("campaign", campaign)()
    except Exception as exc:  # a failed period is a result to report
        raised = f"{type(exc).__name__}: {exc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    threads = _thread_count()
    recorder.unpatch()

    root_span = recorder.spans[0]
    periods = period_outcomes(recorder.spans)
    campaign_raw_s = root_span[END] - root_span[START]
    if args.trace:
        trace_speed = (setup_speed + speed()) / 2
        speeds = [trace_speed] * len(periods)
        campaign_s = campaign_raw_s * trace_speed
    else:
        campaign_raw_s -= calibration[0]
        speeds = period_speeds(kernels, len(periods), REFERENCE_S)
        # Scale each period by its own speed, the rest by the campaign's.
        in_periods = sum(latency for _, latency, _ in periods)
        campaign_s = (sum(latency * factor for (_, latency, _), factor
                          in zip(periods, speeds))
                      + (campaign_raw_s - in_periods)
                      * REFERENCE_S / statistics.median(kernels))
    result = {
        "demand_seed": config.seed,
        "campaign": (f"{config.name}/{config.days}d{config.periods_per_day}p"
                     f"/seed{config.seed}"),
        "setup_s": setup_raw_s * setup_speed,
        "setup_raw_s": setup_raw_s,
        "campaign_s": campaign_s,
        "campaign_raw_s": campaign_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        # [mode, raw latency, latency at reference speed]
        "periods": [[mode, latency, latency * factor]
                    for (mode, latency, _), factor in zip(periods, speeds)],
        "attempted": len(periods) + (raised is not None),
        "failed": sum(failed for _, _, failed in periods) + (raised is not None),
        "problems": [raised] if raised else [],
    }
    if raised is None:
        check = verify_campaign(args.out, config.days * config.periods_per_day)
        result["problems"] = check["problems"]
        result["digest"] = check["digest"]
        result["outputs"] = check["outputs"]
        if args.trace:
            result["layers"] = {
                key: value * trace_speed if key.endswith(("_s", ".s")) else value
                for key, value in layer_totals(recorder.spans).items()}
    if args.spans is not None:
        recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
