"""Guards on the public surface: the package exports nothing itself,
exported names resolve, each submodule exports only what it defines, and
the benchmark's hooks still find every attribute they wrap.

perfbench wraps module attributes by name and raises ``KeyError`` on a
missing one, so deleting or renaming a hooked function fails here first.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import scipy.optimize

import faircoplan
from faircoplan import airspace, baseline, milp, serialize, sim, step1, step2, step3

from helpers import run_python

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SUBMODULES = [
    importlib.import_module(f"faircoplan.{info.name}")
    for info in pkgutil.iter_modules(faircoplan.__path__)
]


def test_package_import_loads_no_submodule():
    # Each name is imported from its own module, never through the package.
    done = run_python(
        "-c", "import sys, faircoplan\n"
        "print(sorted(m for m in sys.modules if m.startswith('faircoplan.')))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in [faircoplan, *SUBMODULES]
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_submodules_export_only_their_own_definitions():
    # A submodule names each class or function in one home, so callers
    # import it from there.
    borrowed = [
        f"{module.__name__}.{name}"
        for module in SUBMODULES
        for name in getattr(module, "__all__", ())
        if (inspect.isclass(obj := getattr(module, name, None))
            or inspect.isfunction(obj))
        and obj.__module__ != module.__name__
    ]
    assert borrowed == []


def test_benchmark_hooks_install_and_unpatch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import install_period_probe, install_tracing
    from spans import SpanRecorder

    owners = (airspace.OccupancyLedger, airspace.OccupancySnapshot, baseline,
              milp, milp.HighsBackend, scipy.optimize, serialize, sim, step1,
              step2, step3)
    before = [dict(vars(owner)) for owner in owners]
    original = sim.run_period
    for install in (install_period_probe, install_tracing):
        recorder = SpanRecorder("api-guard")
        install(recorder)
        assert sim.run_period is not original
        recorder.unpatch()
        assert [dict(vars(owner)) for owner in owners] == before
