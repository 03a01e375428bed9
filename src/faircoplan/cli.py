"""Command-line entry points.

``simulate`` runs one planning mode over a scenario, ``compare`` runs all
modes on identical demand, ``report`` recomputes the metrics from stored
period records and cross-checks the stored summary, and ``oracle-check``
replays the brute-force validation suite. Exit code 0 means success, 2 means
a verification failed (mismatched report, failed oracle case).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import milp
from .selfcheck import build_catalog, random_instance, check_instance
from .serialize import (
    load_scenario,
    read_campaign_records,
    write_campaign,
)
from .sim import MODES, campaign_summary, run_campaign

__all__ = ["main", "run_cli"]


def _add_shared_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario YAML")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--gamma", type=float, default=None,
                        help="override the fairness weight")
    parser.add_argument("--alpha", type=float, default=None,
                        help="override the arrival-delay weight")
    parser.add_argument("--demand", type=float, default=None,
                        help="override demand per hub per hour")
    parser.add_argument("--days", type=int, default=None,
                        help="override the number of days")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the demand seed")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="per-solve time limit in seconds")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircoplan",
        description="Strategic deconfliction planning over a gridded airspace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run one planning mode over a scenario")
    _add_shared_run_args(simulate)
    simulate.add_argument("--mode", choices=MODES, default="fair-coplan")

    compare = sub.add_parser(
        "compare", help="run every mode on identical demand")
    _add_shared_run_args(compare)

    report = sub.add_parser(
        "report", help="recompute metrics from records and verify the summary")
    report.add_argument("--out", required=True,
                        help="campaign directory written by simulate/compare")

    oracle = sub.add_parser(
        "oracle-check", help="validate the planners against brute force")
    oracle.add_argument("--cases", type=int, default=30,
                        help="number of instances (catalog first, then random)")
    oracle.add_argument("--seed", type=int, default=2024)
    return parser


def _configure(args: argparse.Namespace):
    config = load_scenario(args.config)
    overrides = {}
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.demand is not None:
        overrides["demand_per_hub_per_hour"] = args.demand
    if args.days is not None:
        overrides["days"] = args.days
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    limits = (milp.SolveLimits(time_limit=args.time_limit)
              if args.time_limit is not None else None)
    return config, limits


def _run(args: argparse.Namespace, modes: tuple[str, ...]) -> int:
    config, limits = _configure(args)
    started = time.perf_counter()
    campaign = run_campaign(config, modes, limits=limits)
    out = write_campaign(args.out, campaign)
    elapsed = time.perf_counter() - started
    summary = campaign.summary()
    for mode in modes:
        stats = summary["modes"][mode]
        fairness = stats["mean_fairness"]
        print(f"{mode}: served={stats['served']} "
              f"unserved={stats['unserved']} "
              f"mean_tdc={stats['mean_tdc']} "
              f"mean_fairness={'-' if fairness is None else fairness}")
    if "paired_fairness" in summary:
        paired = summary["paired_fairness"]
        print(f"fairness improved on {paired['improved_days']} of "
              f"{paired['eligible_days']} eligible days")
    print(f"wrote {out} in {elapsed:.1f}s")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _run(args, (args.mode,))


def _cmd_compare(args: argparse.Namespace) -> int:
    return _run(args, MODES)


def _cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    records = read_campaign_records(out)
    recomputed = campaign_summary(records)
    print(json.dumps(recomputed, sort_keys=True, indent=2))
    stored_path = out / "summary.json"
    if stored_path.exists():
        stored = json.loads(stored_path.read_text(encoding="utf-8"))
        if stored != recomputed:
            print("MISMATCH: stored summary.json disagrees with the records",
                  file=sys.stderr)
            return 2
        print("stored summary verified against records")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.cases < 1:
        print("--cases must be >= 1", file=sys.stderr)
        return 2
    instances = build_catalog()[:args.cases]
    extra = args.cases - len(instances)
    instances += [random_instance(args.seed + i) for i in range(extra)]
    failures = 0
    for inst in instances:
        for case in check_instance(inst):
            print(case.line())
            failures += 0 if case.passed else 1
    print(f"{len(instances)} instances checked, "
          f"{failures} failing case(s)")
    return 0 if failures == 0 else 2


def run_cli(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "oracle-check": _cmd_oracle_check,
    }[args.command]
    return handler(args)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
