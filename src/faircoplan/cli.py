"""Command-line entry points.

``simulate`` runs one planning mode over a scenario, ``compare`` runs all
modes on identical demand, ``report`` recomputes the metrics from stored
period records and cross-checks the stored summary, and ``oracle-check``
replays the brute-force validation suite. Exit code 0 means success, 2 means
a verification failed (mismatched report, failed oracle case) or the input
is invalid: a ``ConfigError`` (a scenario file off its schema or not YAML,
an override, the grid build, no records, a record or ``summary.json``
that is not JSON, by file and line, or any of these files not UTF-8, by
file and byte), an ``OSError`` (a missing file, or a
directory where a file belongs or the reverse; an ``--out`` file is caught
before the campaign runs), or an ``oracle-check`` case count below 1 or
negative seed prints one ``error: ...`` line on stderr, with argparse's
usage-error code.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .airspace import ConfigError
from .selfcheck import CASES, SEED, run_selfcheck
from .serialize import load_scenario, read_campaign_records, read_json, write_campaign
from .sim import MODES, campaign_summary, run_campaign

__all__ = ["main", "run_cli"]


# The scenario overrides of ``simulate`` and ``compare``: flag, type, the
# ``ScenarioConfig`` field it replaces, help.
_OVERRIDES = (
    ("--gamma", float, "gamma", "override the fairness weight"),
    ("--alpha", float, "alpha", "override the arrival-delay weight"),
    ("--demand", float, "demand_per_hub_per_hour", "override demand per hub per hour"),
    ("--days", int, "days", "override the number of days"),
    ("--periods", int, "periods_per_day", "override the planning periods per day"),
    ("--seed", int, "seed", "override the demand seed"),
)


def _add_shared_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario YAML")
    parser.add_argument("--out", required=True, help="output directory")
    for flag, kind, _, text in _OVERRIDES:
        parser.add_argument(flag, type=kind, default=None, help=text)


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
    oracle.add_argument("--cases", type=int, default=CASES,
                        help="number of instances (catalog first, then random)")
    oracle.add_argument("--seed", type=int, default=SEED)
    return parser


def _configure(args: argparse.Namespace):
    overrides = {field: value for flag, _, field, _ in _OVERRIDES
                 if (value := getattr(args, flag[2:])) is not None}
    return dataclasses.replace(load_scenario(args.config), **overrides)


def _run(args: argparse.Namespace, modes: tuple[str, ...]) -> int:
    config = _configure(args)
    if Path(args.out).exists() and not Path(args.out).is_dir():
        raise ConfigError(f"--out {args.out} is a file, not a directory")
    started = time.perf_counter()
    # The grid is built, and checked, as the campaign starts.
    campaign = run_campaign(config, modes)
    out = write_campaign(args.out, campaign)
    elapsed = time.perf_counter() - started
    # The summary just written, read back rather than built a second time.
    summary = read_json(out / "summary.json")
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
        stored = read_json(stored_path)
        if stored != recomputed:
            print("MISMATCH: stored summary.json disagrees with the records",
                  file=sys.stderr)
            return 2
        print("stored summary verified against records")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    # Cases past the catalog are random instances seeded --seed, --seed + 1, ...
    for flag, value, least in (("--cases", args.cases, 1), ("--seed", args.seed, 0)):
        if value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return 2
    instances, cases = run_selfcheck(args.cases, args.seed)
    failures = 0
    for case in cases:
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
    try:
        return handler(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
