"""Scenario files and campaign artifacts.

Scenarios are YAML with strict keys: anything unknown or missing raises
ConfigError so a typo cannot silently fall back to a default. Every file is
read as UTF-8 text; one that is not raises ConfigError naming it. Campaign
output is deterministic — JSON lines and CSVs are written with sorted keys
and fixed column orders so identical runs produce identical bytes. The one
exception is ``timing.csv``: wall-clock measurements live there and nowhere
else.
"""
from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence, get_type_hints

import yaml

from .airspace import ConfigError, GridConfig, VertiportSpec
from .sim import CampaignResult, ScenarioConfig, campaign_summary

__all__ = [
    "SCHEMA_VERSION",
    "load_scenario",
    "read_campaign_records",
    "read_json",
    "read_records",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "write_campaign",
    "write_days_csv",
    "write_records",
    "write_summary",
    "write_timing_csv",
]

SCHEMA_VERSION = 1


def _keys(cls) -> tuple[set[str], set[str]]:
    """A config dataclass's keys, and those without a default."""
    return ({f.name for f in fields(cls)},
            {f.name for f in fields(cls)
             if f.default is MISSING and f.default_factory is MISSING})


# The schema is the config dataclasses' fields, plus the version stamp.
_SCENARIO_KEYS, _SCENARIO_REQUIRED = (
    keys | {"schema_version"} for keys in _keys(ScenarioConfig))
_GRID_KEYS, _GRID_REQUIRED = _keys(GridConfig)
_VERTIPORT_KEYS, _VERTIPORT_REQUIRED = _keys(VertiportSpec)
# What a value of each scalar field type must be, as the error names it.
_SCALARS = {int: "an integer", float: "a number", str: "a string"}
# A capacity override is a (resource id, timestep, capacity) triple.
_OVERRIDE_TYPES = (str, int, int)

DAY_COLUMNS = ("mode", "day", "served", "unserved_end", "total_tdc",
               "mean_tdc", "deconfliction_periods", "day_fairness",
               "conflict_cells", "dropped")


def _check_keys(data: Mapping, allowed: set[str], required: set[str],
                what: str) -> None:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = sorted(required - set(data))
    if missing:
        raise ConfigError(f"missing {what} keys: {', '.join(missing)}")


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` is of the scalar type ``kind``. A bool is none of
    them, and a number may be an int."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_types(data: Mapping, cls, what: str) -> None:
    """Each value in ``data`` of an int, float or str field of ``cls`` is one."""
    for key, kind in get_type_hints(cls).items():
        if kind in _SCALARS and key in data and not _is_a(data[key], kind):
            raise ConfigError(f"{what} key {key} must be {_SCALARS[kind]}, got {data[key]!r}")


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, **asdict(config)}


def scenario_from_dict(data: Mapping) -> ScenarioConfig:
    _check_keys(data, _SCENARIO_KEYS, _SCENARIO_REQUIRED, "scenario")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {data['schema_version']!r}; "
            f"this build reads version {SCHEMA_VERSION}")
    _check_types(data, ScenarioConfig, "scenario")
    raw_grid = data["grid"]
    _check_keys(raw_grid, _GRID_KEYS, _GRID_REQUIRED, "grid")
    _check_types(raw_grid, GridConfig, "grid")
    for key in ("vertiports", "capacity_overrides"):
        if not isinstance(raw_grid.get(key, ()), (list, tuple)):
            raise ConfigError(f"grid key {key} must be a list, got {raw_grid[key]!r}")
    vertiports = []
    for raw_vp in raw_grid["vertiports"]:
        _check_keys(raw_vp, _VERTIPORT_KEYS, _VERTIPORT_REQUIRED, "vertiport")
        _check_types(raw_vp, VertiportSpec, "vertiport")
        vertiports.append(VertiportSpec(**raw_vp))
    overrides = raw_grid.get("capacity_overrides", ())
    for entry in overrides:
        if not (isinstance(entry, (list, tuple)) and len(entry) == len(_OVERRIDE_TYPES)
                and all(map(_is_a, entry, _OVERRIDE_TYPES))):
            raise ConfigError("grid key capacity_overrides needs [resource id, timestep, "
                              f"capacity] triples (a string, two integers), got {entry!r}")
    grid_kwargs = {k: v for k, v in raw_grid.items()
                   if k not in ("vertiports", "capacity_overrides")}
    grid = GridConfig(
        vertiports=tuple(vertiports),
        capacity_overrides=tuple(tuple(entry) for entry in overrides),
        **grid_kwargs,
    )
    scenario_kwargs = {k: v for k, v in data.items()
                       if k not in ("schema_version", "grid")}
    return ScenarioConfig(grid=grid, **scenario_kwargs)


def _read_text(path: str | Path) -> str:
    """The text of ``path``; ``ConfigError``, naming the file, if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        data = yaml.safe_load(_read_text(path))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = "" if mark is None else f", line {mark.line + 1}"
        raise ConfigError(f"{path}{line}: not valid YAML: "
                          f"{getattr(exc, 'problem', None) or exc}") from None
    if data is None:
        raise ConfigError(f"{path} is empty")
    return scenario_from_dict(data)


def save_scenario(path: str | Path, config: ScenarioConfig) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(scenario_to_dict(config), handle, sort_keys=True)


def write_records(path: str | Path, records: Iterable[Mapping]) -> None:
    """One JSON object per line, keys sorted for reproducible bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def read_records(path: str | Path) -> list[dict]:
    """Each nonblank line of ``path`` as JSON, failing as ``read_json`` does."""
    records = []
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if line:
            records.append(_parse_json(line, path, number))
    return records


def read_json(path: str | Path):
    """The JSON in ``path``; ``ConfigError``, naming file and line, if not JSON."""
    return _parse_json(_read_text(path), path, 1)


def _parse_json(text: str, path: str | Path, line: int):
    """``text``, which starts on line ``line`` of ``path``, parsed as JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}, line {line + exc.lineno - 1}: not valid JSON: "
                          f"{exc.msg}") from None


def _write_csv(path: str | Path, columns: Sequence[str],
               rows: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(col) is None else row.get(col)
                             for col in columns])


def write_days_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    _write_csv(path, DAY_COLUMNS, rows)


def write_timing_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    """Wall-clock per period. Keep this file out of any byte comparison."""
    head = ["mode", "day", "period"]
    stages = sorted({key for row in rows for key in row} - set(head))
    _write_csv(path, head + stages, rows)


def write_summary(path: str | Path, summary: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_campaign(out_dir: str | Path, campaign: CampaignResult) -> Path:
    """Full artifact tree::

        out/
          scenario.yaml     the exact configuration that ran
          summary.json      campaign metrics (derived from records)
          days.csv          per-day aggregates
          timing.csv        wall time of each period's stage calls (build,
                            solve, re-check); a period whose steps 1-2
                            came from the other negotiated lane has no
                            step1/step2 cell; excluded from reproducibility
          <mode>/periods.jsonl
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = campaign.records()
    for mode, rows in records.items():
        mode_dir = out / mode
        mode_dir.mkdir(exist_ok=True)
        write_records(mode_dir / "periods.jsonl", rows)
    summary = campaign_summary(records)
    # The summary's day rows are keyed by mode in sorted order.
    write_days_csv(out / "days.csv", [row for rows in summary["days"].values() for row in rows])
    write_summary(out / "summary.json", summary)
    write_timing_csv(out / "timing.csv", campaign.timing_rows())
    save_scenario(out / "scenario.yaml", campaign.config)
    return out


def read_campaign_records(out_dir: str | Path) -> dict[str, list[dict]]:
    """Reload per-mode period records from a campaign directory."""
    out = Path(out_dir)
    records: dict[str, list[dict]] = {}
    for child in sorted(out.iterdir()):
        periods = child / "periods.jsonl"
        if child.is_dir() and periods.exists():
            records[child.name] = read_records(periods)
    if not records:
        raise ConfigError(f"no <mode>/periods.jsonl files under {out}")
    return records
