"""Correctness of one written campaign, as ``faircoplan report`` checks it,
plus a digest of the artifacts that must be byte-identical across runs."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import MODES

# timing.csv holds wall-clock times and scenario.yaml only echoes the input.
HASHED = tuple(f"{mode}/periods.jsonl" for mode in sorted(MODES)) + (
    "days.csv", "summary.json")


def artifact_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for rel in HASHED:
        digest.update(rel.encode() + b"\0")
        digest.update((out_dir / rel).read_bytes())
    return digest.hexdigest()


def verify_campaign(out_dir: Path, expected_periods: int) -> dict:
    """Recompute the summary from the period records and compare it with
    the stored ``summary.json``; also require every mode's periods."""
    from faircoplan.serialize import read_campaign_records
    from faircoplan.sim import campaign_summary

    problems = []
    records = read_campaign_records(out_dir)
    for mode in MODES:
        got = len(records.get(mode, ()))
        if got != expected_periods:
            problems.append(f"{mode}: {got} period records, expected {expected_periods}")
    stored = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if campaign_summary(records) != stored:
        problems.append("summary.json differs from the summary recomputed "
                        "from the period records")
    outputs = {
        mode: {key: stats[key] for key in ("served", "unserved", "mean_tdc", "dropped")}
        for mode, stats in stored["modes"].items()
    }
    return {"problems": problems, "digest": artifact_digest(out_dir),
            "outputs": outputs}


class DigestLedger:
    """Artifact digests by campaign, kept in the checkout across runs; a
    campaign whose digest differs from an earlier run of it is a failure."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.known = (json.loads(path.read_text(encoding="utf-8"))
                      if path.exists() else {})

    def check(self, key: str, digest: str) -> str | None:
        earlier = self.known.setdefault(key, digest)
        if earlier != digest:
            return f"{key}: artifact digest {digest[:16]} != earlier {earlier[:16]}"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=1),
                       encoding="utf-8")
        tmp.replace(self.path)
