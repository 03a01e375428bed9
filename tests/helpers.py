"""Shared builders for compact test airspaces and flights: the self-check's
own tiny-instance builders, so tests and the oracle suite build alike, and
the single-flight trajectory MILP, step 3's arc fragment; and patches that
make step 1 solve its model, and the fixed-route lane hand its drop loop,
every batch."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from faircoplan import baseline, milp, step1
from faircoplan.selfcheck import blocked, make_grid, make_request, rid
from faircoplan.blocks import arc_fragment, cell_domain

__all__ = ["assert_same_model", "blocked", "make_grid", "make_request", "record_solves",
           "rid", "run_python", "solve_every_step1_model", "solve_every_tfmp_batch",
           "trajectory_model"]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports faircoplan from
    this checkout, with its output captured as text."""
    env = dict(os.environ)
    src = str(Path(milp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def trajectory_model(grid, snapshot, request, choices, params, now=0):
    """One flight's arc fragment over its cell domain, with its delay cost as
    the objective: the trajectory as a MILP, for checking step 2's search and
    for exercising the flow step 3 solves. Its ``fragment`` is the model,
    named ``trajectory.{fid}``; its ``plan`` reads a solved point. None when
    the flight cannot fly."""
    domain = cell_domain(grid, snapshot, request, choices, now)
    flow = None if domain is None else arc_fragment(grid, request, domain, params,
                                                    prefix=f"u.{request.flight_id}")
    if flow is not None:
        flow.fragment.name = f"trajectory.{request.flight_id}"
    return flow


def assert_same_model(got, want):
    """The same HiGHS input (``milp._arrays``, every array with its dtype),
    names, labels, stored entries and objective offset."""
    def flat(model):
        c, lb, ub, integrality, matrix, row_lb, row_ub = milp._arrays(model)
        return (c, lb, ub, integrality, *matrix, row_lb, row_ub)

    for mine, theirs in zip(flat(got), flat(want), strict=True):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)
    assert [v.name for v in got.variables] == [v.name for v in want.variables]
    assert [c.label for c in got.constraints] == [c.label for c in want.constraints]
    assert got.num_nonzeros == want.num_nonzeros
    assert got.objective_offset == want.objective_offset


def record_solves(monkeypatch, name):
    """From now on, each ``milp.solve`` call on a model named ``name``, as
    (model, result) in call order."""
    solved = []
    real = milp.solve

    def solve(model):
        result = real(model)
        if model.name == name:
            solved.append((model, result))
        return result

    monkeypatch.setattr(milp, "solve", solve)
    return solved


def solve_every_step1_model(patch):
    """With ``patch`` (a ``pytest.MonkeyPatch``), take step 1's shortcut
    out: ``solve_step1`` then builds and solves its model for every batch,
    also one whose whole offer it would grant with no model."""
    patch.setattr(step1, "_whole_offer", lambda *args: None)


def solve_every_tfmp_batch(patch):
    """With ``patch`` (a ``pytest.MonkeyPatch``), take the fixed-route
    lane's earliest-schedule proof out: ``solve_tfmp`` then builds its
    blocks and runs ``blocks.solve_joint`` for every batch, also one it
    would file at its earliest schedules with no model."""
    patch.setattr(baseline, "_earliest_optimum", lambda *args: None)
