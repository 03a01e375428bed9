"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from check import DigestLedger, verify_campaign  # noqa: E402
from layers import layer_totals  # noqa: E402
from run import tail_percentile  # noqa: E402
from spans import SpanRecorder, self_times, union_length  # noqa: E402
from worker import period_speeds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(3.0, 6.0), (1.0, 4.0), (9.0, 10.0)]) == pytest.approx(6.0)
    assert union_length([(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],    # overlaps a: counted once
        ["a1", 1.5, 2.0, 1, None],   # grandchild: charged to a only
        ["c", 9.0, 12.0, 0, None],   # runs past root: clipped to it
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_recorder_nests_spans_and_restores_hooks():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Layer.inner(x) * 2

    original = Layer.__dict__["outer"]
    recorder = SpanRecorder("unit")
    recorder.patch(Layer, "inner", "inner", lambda args, kwargs, result: {"in": args[0]})
    recorder.patch(Layer, "outer", "outer")
    assert recorder.span("root", Layer.outer)(3) == 8
    recorder.unpatch()
    assert Layer.__dict__["outer"] is original

    names = [s[0] for s in recorder.spans]
    assert names == ["root", "outer", "inner", "trace.bookkeeping"]
    assert [s[3] for s in recorder.spans] == [-1, 0, 1, 1]
    assert recorder.spans[2][4] == {"in": 3}
    own = self_times(recorder.spans)
    duration = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(own) == pytest.approx(duration)


def test_each_period_is_scaled_by_the_kernel_runs_nearest_it():
    # kernels[k] ran before period k, kernels[k + 1] after it.
    kernels = [1.0, 1.0, 2.0, 2.0, 2.0, 100.0]
    assert period_speeds(kernels, 5, 2.0) == pytest.approx([2.0, 4 / 3, 1.0, 1.0, 1.0])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    for n in (15, 60, 240):
        pct, value = tail_percentile([float(i) for i in range(n)])
        assert sum(1 for i in range(n) if i > value) >= 10
    assert tail_percentile([float(i) for i in range(240)])[0] == 95


def _small_campaign(out: Path):
    from faircoplan import serialize, sim

    config = serialize.load_scenario(ROOT / "configs" / "desk8x8.yaml")
    config = dataclasses.replace(config, days=1, periods_per_day=4, seed=3)
    serialize.write_campaign(out, sim.run_campaign(config))
    return config.days * config.periods_per_day


def test_altered_record_fails_the_correctness_check(tmp_path):
    periods = _small_campaign(tmp_path)
    clean = verify_campaign(tmp_path, periods)
    assert clean["problems"] == []

    path = tmp_path / "coplan" / "periods.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    busiest = max(records, key=lambda r: r["served"])
    busiest["served"] += 1
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    altered = verify_campaign(tmp_path, periods)
    assert any("summary.json differs" in p for p in altered["problems"])
    assert altered["digest"] != clean["digest"]

    ledger = DigestLedger(tmp_path / "digests.json")
    assert ledger.check("desk/3", clean["digest"]) is None
    assert ledger.check("desk/3", clean["digest"]) is None
    assert "artifact digest" in ledger.check("desk/3", altered["digest"])


def test_layer_totals_cover_the_traced_campaign(tmp_path):
    from faircoplan import serialize, sim
    from layers import install_tracing

    config = serialize.load_scenario(ROOT / "configs" / "desk8x8.yaml")
    config = dataclasses.replace(config, days=1, periods_per_day=4, seed=3)
    recorder = SpanRecorder("unit")
    install_tracing(recorder)
    try:
        recorder.span("campaign", lambda: serialize.write_campaign(
            tmp_path, sim.run_campaign(config)))()
    finally:
        recorder.unpatch()
    totals = layer_totals(recorder.spans)
    root = recorder.spans[0]
    assert totals["sim.periods"] == 12
    assert totals["trace.self_sum_s"] == pytest.approx(root[2] - root[1], rel=1e-3)
    assert totals["step1.calls"] >= totals["milp.choice-setting.solves"] > 0
    assert totals["serialize.bytes"] > 0


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-campaign",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_desk_smoke_run_prints_every_metric_with_its_unit(trace, kind):
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        text = "\n".join(lines[:-1])
        for name in ("setup_s", "campaign_s", "peak_rss_mb", "periods_failed_frac",
                     "period_p95_s.tfmp", "mode_s.coplan", "period_s.fair-coplan"):
            assert f"\n{name}: " in "\n" + text


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
