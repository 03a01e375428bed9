"""Model container and the HiGHS engine on small known problems."""
from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, sparse

from faircoplan import milp, sim
from faircoplan.airspace import OccupancyLedger
from faircoplan.baseline import solve_tfmp
from faircoplan.flights import DelayCostParams
from faircoplan.serialize import load_scenario
from faircoplan.milp import (
    HighsBackend,
    Model,
    check_solution,
    reuse_solves,
    solve,
)
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2
from faircoplan.step3 import solve_step3

from helpers import blocked, make_grid, make_request, trajectory_model


class TestHighs:
    def test_knapsack_maximum(self):
        # values 6,5,4 / weights 3,2,2 / budget 4 -> pick items 1 and 2
        model = Model(name="knapsack", sense="max")
        x = [model.binary(f"x{i}") for i in range(3)]
        model.add({x[0]: 3.0, x[1]: 2.0, x[2]: 2.0}, "<=", 4.0)
        model.set_objective({x[0]: 6.0, x[1]: 5.0, x[2]: 4.0})
        result = solve(model)
        assert result.status == milp.OPTIMAL
        assert result.objective == pytest.approx(9.0)
        assert result.values["x1"] == 1.0 and result.values["x2"] == 1.0

    def test_equality_with_continuous_variable(self):
        model = Model(name="mix", sense="min")
        x = model.binary("x")
        y = model.continuous("y", lb=0.0, ub=10.0)
        model.add({x: 2.0, y: 1.0}, "=", 3.0)
        model.set_objective({x: 1.0, y: 1.0})
        result = solve(model)
        assert result.status == milp.OPTIMAL
        # x=1, y=1 costs 2; x=0, y=3 costs 3
        assert result.objective == pytest.approx(2.0)
        assert result.values["x"] == 1.0
        assert result.values["y"] == pytest.approx(1.0)

    def test_infeasible_reported(self):
        model = Model(name="bad", sense="min")
        x = model.binary("x")
        model.add({x: 1.0}, ">=", 2.0)
        model.set_objective({x: 1.0})
        assert solve(model).status == milp.INFEASIBLE

    def test_objective_offset_carried_through(self):
        model = Model(name="offset", sense="min")
        x = model.binary("x")
        model.add({x: 1.0}, ">=", 1.0)
        model.set_objective({x: 2.0}, offset=5.0)
        result = solve(model)
        assert result.objective == pytest.approx(7.0)

    def test_empty_model_is_trivially_optimal(self):
        model = Model(name="empty", sense="min")
        model.set_objective({}, offset=1.5)
        result = solve(model)
        assert result.status == milp.OPTIMAL
        assert result.objective == pytest.approx(1.5)


class TestModelContainer:
    def test_duplicate_variable_rejected(self):
        model = Model(name="dup")
        model.binary("x")
        with pytest.raises(ValueError):
            model.binary("x")

    def test_unknown_variable_in_constraint_rejected(self):
        model = Model(name="unknown")
        model.binary("x")
        with pytest.raises(ValueError):
            model.add({"zzz": 1.0}, "<=", 1.0)

    def test_empty_constraint_rejected(self):
        model = Model(name="empty-row")
        with pytest.raises(ValueError):
            model.add({}, "<=", 1.0)

    def test_counts_match_the_constraint_view(self):
        model = Model(name="counts")
        x, y, z = model.binary("x"), model.binary("y"), model.continuous("z")
        assert (model.num_rows, model.num_nonzeros) == (0, 0)
        model.add({x: 1.0, y: 1.0}, "<=", 1.0)
        model.add({y: 2.0, z: -1.0, x: 0.0}, ">=", 0.0)
        model.add({z: 1.0}, "=", 0.5)
        rows = model.constraints
        assert model.num_rows == len(rows) == 3
        assert model.num_nonzeros == sum(len(row.coeffs) for row in rows) == 6

    def test_check_solution_flags_violations(self):
        model = Model(name="check")
        x = model.binary("x")
        model.add({x: 1.0}, "<=", 0.0, label="cap")
        assert check_solution(model, {x: 0.0}) == []
        assert any("cap" in v for v in check_solution(model, {x: 1.0}))
        assert any("not integral" in v for v in check_solution(model, {x: 0.5}))


class TestSolveRecheck:
    def test_infeasible_point_from_backend_is_rejected(self, monkeypatch):
        def liar(c, *args):
            return 0, np.ones(len(c)), "Optimal"

        monkeypatch.setattr(milp, "run_highs", liar)
        model = Model(name="liar-check", sense="max")
        x = model.binary("x")
        model.add({x: 1.0}, "<=", 0.0)
        model.set_objective({x: 1.0})
        result = solve(model)
        assert result.status == milp.ERROR
        assert "infeasible point" in result.detail


# HIGHS_OPTIONS in scipy.optimize.milp's terms, and the same with HiGHS's
# default feasibility jump.
SCIPY_OPTIONS = {"presolve": True, "mip_rel_gap": 0.0,
                 "mip_heuristic_run_feasibility_jump": False}
FEASIBILITY_JUMP_ON = {"presolve": True, "mip_rel_gap": 0.0}
DESK = Path(__file__).resolve().parent.parent / "configs" / "desk8x8.yaml"


def scipy_milp(arrays, options):
    """One model from ``milp._arrays`` solved through the public
    ``scipy.optimize.milp``, which forwards options it does not name to
    HiGHS verbatim and warns that it does."""
    names, c, lb, ub, integrality, A, row_lb, row_ub, sign = arrays
    kwargs = {}
    if A.shape[0]:
        kwargs["constraints"] = optimize.LinearConstraint(A, row_lb, row_ub)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        return optimize.milp(c, integrality=integrality, bounds=optimize.Bounds(lb, ub),
                             options=dict(options), **kwargs)


@pytest.fixture(scope="module")
def desk_day_solves() -> list[tuple]:
    """``(milp._arrays(model), objective offset, result)`` for every model
    solved on desk day 0, in all three lanes: 48 choice-setting, 7
    deconfliction and 57 fixed-route models."""
    solved = []
    real_solve = milp.solve

    def spy(model):
        result = real_solve(model)
        solved.append((milp._arrays(model), model.objective_offset, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "solve", spy)
        config = load_scenario(DESK)
        grid = sim.scenario_grid(config)
        for mode in sim.MODES:
            sim.run_day(grid, config, 0, mode)
    return solved


class TestHighsOptions:
    # Without an explicit gap HiGHS stops at its own default relative gap
    # and still reports "optimal", so a zero gap is always set; no time
    # limit ever is. Feasibility jump is always off: every planner model
    # closes at the root, where the heuristic only costs time.
    def test_gap_is_always_passed(self, monkeypatch):
        seen = []

        class Recording(milp.highs._Highs):
            def run(self):
                seen.append({option: self.getOptionValue(option)[1] for option in (
                    "log_to_console", "presolve", "mip_rel_gap",
                    "mip_heuristic_run_feasibility_jump", "time_limit")})
                return super().run()

        monkeypatch.setattr(milp.highs, "_Highs", Recording)
        model = Model(name="gap", sense="max")
        x = model.binary("x")
        model.add({x: 1.0}, "<=", 1.0)
        model.set_objective({x: 1.0})
        assert HighsBackend().solve(model).status == milp.OPTIMAL
        assert seen == [{"log_to_console": False, "presolve": "on", "mip_rel_gap": 0.0,
                         "mip_heuristic_run_feasibility_jump": False,
                         "time_limit": math.inf}]

    def test_solve_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(knapsack())
        assert (result.status, result.objective) == (milp.OPTIMAL, 9.0)

    def test_option_highs_rejects_is_an_error_naming_it(self, monkeypatch):
        monkeypatch.setattr(milp, "HIGHS_OPTIONS",
                            dict(milp.HIGHS_OPTIONS, no_such_option=1))
        result = solve(knapsack())
        assert result.status == milp.ERROR
        assert "no_such_option" in result.detail

    def test_solves_write_nothing_to_the_console(self, capfd, monkeypatch):
        # perfbench's worker reports through its last line of stdout, and
        # HiGHS logs to the console unless told not to.
        infeasible = Model(name="bad", sense="min")
        x = infeasible.binary("x")
        infeasible.add({x: 1.0}, ">=", 2.0)
        infeasible.set_objective({x: 1.0})
        assert solve(knapsack()).status == milp.OPTIMAL
        assert solve(infeasible).status == milp.INFEASIBLE
        monkeypatch.setattr(milp, "HIGHS_OPTIONS",
                            dict(milp.HIGHS_OPTIONS, no_such_option=1))
        assert solve(knapsack()).status == milp.ERROR
        assert capfd.readouterr() == ("", "")

    def test_same_points_as_scipy_milp(self, desk_day_solves):
        # run_highs reaches HiGHS through scipy's private binding; the
        # public scipy.optimize.milp with the same options must give the
        # same status and, bit for bit, the same point, so a scipy upgrade
        # cannot silently change which tied optimum is filed.
        for arrays, _, _ in desk_day_solves:
            names, c, lb, ub, integrality, A, row_lb, row_ub, sign = arrays
            status, x, _ = milp.run_highs(c, lb, ub, integrality, A, row_lb, row_ub)
            ref = scipy_milp(arrays, SCIPY_OPTIONS)
            assert status == ref.status
            assert (x is None and ref.x is None) or np.array_equal(x, ref.x)
        statuses = {result.status for _, _, result in desk_day_solves}
        assert len(desk_day_solves) > 100 and statuses == {milp.OPTIMAL, milp.INFEASIBLE}

    def test_same_optima_as_with_feasibility_jump(self, desk_day_solves):
        # Every model of desk day 0, in all three lanes, re-solved with the
        # heuristic on (HiGHS's default): same status, same optimal value.
        for arrays, offset, result in desk_day_solves:
            ref = scipy_milp(arrays, FEASIBILITY_JUMP_ON)
            assert ref.status == {milp.OPTIMAL: 0, milp.INFEASIBLE: 2}[result.status]
            if ref.status == 0:
                sign = arrays[-1]
                assert result.objective == pytest.approx(sign * ref.fun + offset, abs=1e-9)
        statuses = {result.status for _, _, result in desk_day_solves}
        assert len(desk_day_solves) > 100 and statuses == {milp.OPTIMAL, milp.INFEASIBLE}

    def test_constraint_matrix_is_passed_sparse(self, monkeypatch):
        seen = []
        real_run_highs = milp.run_highs

        def spy(c, lb, ub, integrality, A, row_lb, row_ub):
            seen.append(A)
            return real_run_highs(c, lb, ub, integrality, A, row_lb, row_ub)

        monkeypatch.setattr(milp, "run_highs", spy)
        model = Model(name="sparse", sense="max")
        x, y = model.binary("x"), model.binary("y")
        model.add({x: 1.0, y: 1.0}, "<=", 1.0)
        model.set_objective({x: 1.0, y: 2.0})
        assert HighsBackend().solve(model).status == milp.OPTIMAL
        assert len(seen) == 1 and sparse.issparse(seen[0])


def knapsack(names=("x0", "x1", "x2"), offset=0.0) -> Model:
    model = Model(name="knapsack", sense="max")
    x = [model.binary(name) for name in names]
    model.add({x[0]: 3.0, x[1]: 2.0, x[2]: 2.0}, "<=", 4.0)
    model.set_objective({x[0]: 6.0, x[1]: 5.0, x[2]: 4.0}, offset=offset)
    return model


class TestSolveMemo:
    @pytest.fixture()
    def highs_calls(self, monkeypatch):
        calls = []
        real_run_highs = milp.run_highs

        def spy(*args):
            calls.append(args)
            return real_run_highs(*args)

        monkeypatch.setattr(milp, "run_highs", spy)
        return calls

    def test_identical_model_is_solved_once(self, highs_calls):
        with reuse_solves():
            first = solve(knapsack())
            second = solve(knapsack())
        assert len(highs_calls) == 1
        assert second.status == milp.OPTIMAL
        assert second.values == first.values
        assert second.objective == first.objective == pytest.approx(9.0)

    def test_without_the_context_every_solve_calls_highs(self, highs_calls):
        solve(knapsack())
        solve(knapsack())
        assert len(highs_calls) == 2

    def test_hit_is_read_under_the_new_names_and_offset(self, highs_calls):
        with reuse_solves():
            solve(knapsack())
            result = solve(knapsack(names=("a", "b", "c"), offset=-2.5))
        assert len(highs_calls) == 1
        assert result.values == {"a": 0.0, "b": 1.0, "c": 1.0}
        assert result.objective == pytest.approx(6.5)

    def test_infeasible_is_stored(self, highs_calls):
        model = Model(name="bad", sense="min")
        x = model.binary("x")
        model.add({x: 1.0}, ">=", 2.0)
        model.set_objective({x: 1.0})
        with reuse_solves():
            assert solve(model).status == milp.INFEASIBLE
            assert solve(model).status == milp.INFEASIBLE
        assert len(highs_calls) == 1

    # No limit is ever set, so HiGHS status 1 ("a limit was reached") is a
    # solver failure, with or without an incumbent point.
    @pytest.mark.parametrize("x", [np.array([0.0, 1.0, 1.0]), None],
                             ids=["x0-error", "None-error"])
    def test_time_limit_results_are_never_stored(self, monkeypatch, x):
        calls = []

        def timed_out(*args):
            calls.append(1)
            return 1, x, "Time limit reached"

        monkeypatch.setattr(milp, "run_highs", timed_out)
        with reuse_solves():
            for _ in range(2):
                result = HighsBackend().solve(knapsack())
                assert result.status == milp.ERROR and result.hit_time_limit
                assert result.values == {} and result.objective is None
        assert len(calls) == 2

    def test_memo_ends_with_the_context(self, highs_calls):
        with pytest.raises(RuntimeError):
            with reuse_solves():
                solve(knapsack())
                raise RuntimeError("period failed")
        solve(knapsack())
        with reuse_solves():
            solve(knapsack())
        assert len(highs_calls) == 3
        assert milp._MEMO.get() is None


def dense_reference(model: Model) -> np.ndarray:
    """The constraint matrix built one dense row per constraint."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    dense = np.zeros((len(model.constraints), len(index)))
    for i, con in enumerate(model.constraints):
        for name, coeff in con.coeffs:
            dense[i, index[name]] += coeff
    return dense


def assert_matches_dense(model: Model) -> None:
    matrix = milp._arrays(model)[5]
    want = sparse.csr_array(dense_reference(model))
    assert matrix.format == "csr"
    assert matrix.shape == want.shape
    np.testing.assert_array_equal(matrix.indptr, want.indptr)
    np.testing.assert_array_equal(matrix.indices, want.indices)
    np.testing.assert_array_equal(matrix.data, want.data)


@pytest.fixture(scope="module")
def pinch_models() -> list[Model]:
    """Every model the three MILP stages build for two flights through a
    capacity-one pinch (the proposals conflict, so every stage builds one),
    and each flight's trajectory model built from its presence block."""
    seen: list[Model] = []
    real_solve = milp.solve

    def spy(model, *args, **kwargs):
        seen.append(model)
        return real_solve(model, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "solve", spy)
        probe = make_grid(2, 4, ((0, 0), (1, 3)))
        grid = make_grid(2, 4, ((0, 0), (1, 3)), vp_capacity=2,
                         ring_capacity=2, overrides=blocked(probe, 0, 2))
        params = DelayCostParams(alpha=0.3)
        requests = [make_request(grid, f"f{i}", "r0000", "r0007", 0,
                                 flexibility=2) for i in range(2)]
        snap = OccupancyLedger(grid).snapshot()
        s1 = solve_step1(grid, snap, requests, 0)
        proposals = {r.flight_id: solve_step2(
            grid, snap, r, s1.choice_sets[r.flight_id], params).plan
            for r in requests}
        for r in requests:  # step 2 searches; its MILP form is built here
            milp.solve(trajectory_model(grid, snap, r,
                                        s1.choice_sets[r.flight_id], params))
        solve_step3(grid, snap, requests, s1.choice_sets, proposals, params)
        solve_tfmp(grid, snap, requests, params)
    kinds = {model.name.split(".", 1)[0] for model in seen}
    assert kinds == {"choice-setting", "trajectory", "deconfliction",
                     "fixed-route-schedule"}
    return seen


class TestSparseAssembly:
    def test_hand_built_model_matches_dense_rows(self):
        model = Model(name="mixed", sense="max")
        x, y = model.binary("x"), model.binary("y")
        z = model.continuous("z", lb=-1.0, ub=4.0)
        model.add({z: 2.0, x: 1.0}, "<=", 3.0)  # columns out of order
        model.add({x: 1.0, y: 0.0, z: -1.5}, "=", 0.5)
        model.add({y: 4.0}, ">=", 1.0)
        model.set_objective({x: 1.0, z: 1.0})
        assert_matches_dense(model)
        names, _, _, _, _, matrix, row_lb, row_ub, _ = milp._arrays(model)
        assert names == ["x", "y", "z"]
        assert 0.0 not in matrix.data
        assert matrix.nnz == 5
        np.testing.assert_array_equal(row_lb, [-np.inf, 0.5, 1.0])
        np.testing.assert_array_equal(row_ub, [3.0, 0.5, np.inf])

    def test_model_without_constraints_has_no_rows(self):
        model = Model(name="free", sense="min")
        model.continuous("z", ub=1.0)
        assert milp._arrays(model)[5].shape == (0, 1)

    def test_planner_models_match_dense_rows(self, pinch_models):
        for model in pinch_models:
            assert_matches_dense(model)


def reference_check_solution(model: Model, values: dict[str, float],
                             tol: float = milp.FEASIBILITY_TOL) -> list[str]:
    """The re-check as one scan per variable and one sum per row."""
    violations = []
    for var in model.variables:
        if var.name not in values:
            violations.append(f"missing value for {var.name}")
            continue
        x = values[var.name]
        if x < var.lb - tol or x > var.ub + tol:
            violations.append(f"{var.name}={x} outside [{var.lb}, {var.ub}]")
        if var.binary and abs(x - round(x)) > milp.INTEGRALITY_TOL:
            violations.append(f"{var.name}={x} not integral")
    for idx, con in enumerate(model.constraints):
        lhs = sum(c * values.get(name, 0.0) for name, c in con.coeffs)
        label = con.label or f"c{idx}"
        if con.relation == "<=" and lhs > con.rhs + tol:
            violations.append(f"{label}: {lhs} <= {con.rhs} violated")
        elif con.relation == ">=" and lhs < con.rhs - tol:
            violations.append(f"{label}: {lhs} >= {con.rhs} violated")
        elif con.relation == "=" and abs(lhs - con.rhs) > tol:
            violations.append(f"{label}: {lhs} = {con.rhs} violated")
    return violations


def reference_finish(model: Model, names, raw_x, sign, c) -> tuple[dict[str, float], float]:
    """A raw point unpacked one variable at a time."""
    values = {}
    for var, x in zip(model.variables, raw_x):
        x = float(min(max(x, var.lb), var.ub))
        if var.binary and abs(x - round(x)) <= 1e-4:
            x = float(round(x))
        values[var.name] = x
    obj = sign * float(np.dot(c, [values[n] for n in names])) + model.objective_offset
    return values, obj


def assert_finish_matches_reference(model: Model, raw_x) -> dict[str, float]:
    names, c, lb, ub, integrality, _, _, _, sign = milp._arrays(model)
    values, obj = milp._finish(model, names, np.array(raw_x, dtype=float),
                               lb, ub, integrality, sign, c)
    want_values, want_obj = reference_finish(model, names, np.array(raw_x, dtype=float),
                                             sign, c)
    # repr tells 0.0 from -0.0 and shows every bit of a float
    assert [(k, repr(v)) for k, v in values.items()] == \
        [(k, repr(v)) for k, v in want_values.items()]
    assert repr(obj) == repr(want_obj)
    return values


def awkward_point(model: Model, values: dict[str, float], seed: int) -> dict[str, float]:
    """A point near ``values`` with noise, -0.0, near-integral values,
    out-of-bound values and missing entries."""
    rng = np.random.default_rng(seed)
    point = {}
    for var in model.variables:
        x = values.get(var.name, 0.5)
        draw = rng.random()
        if draw < 0.1:
            continue
        if draw < 0.3:
            x += float(rng.normal())
        elif draw < 0.4:
            x = -0.0
        elif draw < 0.5:
            x = float(round(x)) + float(rng.choice([-1e-5, 5e-5, -2e-4]))
        elif draw < 0.55:
            x = var.ub + 3.0 if math.isfinite(var.ub) else -7.0
        point[var.name] = x
    return point


class TestVectorizedAgainstReference:
    def test_every_kind_of_violation(self):
        model = Model(name="violations", sense="min")
        b, b2, m = model.binary("b"), model.binary("b2"), model.binary("m")
        y = model.continuous("y", lb=-1.0, ub=2.0)
        z = model.continuous("z", lb=0, ub=5)
        w = model.continuous("w", lb=1.0, ub=2.0)
        model.add({b: 1.0, y: 1.0}, "<=", 2.0, label="le")
        model.add({y: 2.0, z: -1.0}, ">=", 3.0, label="ge")
        model.add({b2: 1.0, z: 1.0, m: 1.0}, "=", 2.0, label="eq")
        model.add({b2: 1.0}, ">=", 1.0, label="ok")
        model.add({z: 1.0, b: -1.0}, "<=", 1.0)
        values = {b: 0.5, b2: 1, y: 2.5, z: 4.0, "extra": 9.0}
        got = check_solution(model, values)
        assert got == reference_check_solution(model, values)
        assert got == [
            "b=0.5 not integral",
            "missing value for m",
            "y=2.5 outside [-1.0, 2.0]",
            "missing value for w",
            "le: 3.0 <= 2.0 violated",
            "ge: 1.0 >= 3.0 violated",
            "eq: 5.0 = 2.0 violated",
            "c4: 3.5 <= 1.0 violated",
        ]
        assert check_solution(model, values, tol=3.0) == \
            reference_check_solution(model, values, tol=3.0)
        assert check_solution(model, {b: 0.0, b2: 1.0, m: 0.0, y: 2.0, z: 1.0,
                                      w: 1.0}) == []
        # Every labelled row and the bounds of y and m sit exactly on the
        # tolerance boundary, which is not a violation.
        edge = {b: 0.0, b2: 0.5, m: -0.5, y: 2.5, z: 2.5, w: 1.0}
        got = check_solution(model, edge, tol=0.5)
        assert got == reference_check_solution(model, edge, tol=0.5)
        assert got == ["b2=0.5 not integral", "m=-0.5 not integral",
                       "c4: 2.5 <= 1.0 violated"]

    def test_planner_models_at_solved_and_perturbed_points(self, pinch_models):
        flagged = 0
        for seed, model in enumerate(pinch_models):
            result = solve(model)
            if result.status == milp.OPTIMAL:
                assert check_solution(model, result.values) == \
                    reference_check_solution(model, result.values) == []
            point = awkward_point(model, result.values, seed)
            got = check_solution(model, point)
            assert got == reference_check_solution(model, point)
            flagged += len(got)
            raw = [point.get(var.name, 0.25) for var in model.variables]
            assert_finish_matches_reference(model, raw)
        assert flagged > 0

    def test_finish_on_awkward_raw_points(self):
        model = Model(name="raw", sense="max")
        bins = [model.binary(f"b{i}") for i in range(8)]
        zero_lb = model.continuous("y0", lb=0.0, ub=3.0)
        free = model.continuous("y1", lb=-2.0, ub=2.0)
        wide = model.continuous("y2", lb=-math.inf, ub=math.inf)
        model.set_objective({**{v: 1.0 for v in bins}, zero_lb: 2.0, free: -1.0,
                             wide: 0.5}, offset=1.25)
        raw = [-0.0, -1e-5, 1 + 5e-5, 0.99995, 0.5, 0.9998, 3.0, -4.0,
               -0.0, -0.0, 7.5e9]
        values = assert_finish_matches_reference(model, raw)
        assert [values[v] for v in bins] == [0.0, 0.0, 1.0, 1.0, 0.5, 0.9998, 1.0, 0.0]
        assert math.copysign(1.0, values["b0"]) == math.copysign(1.0, values["b1"]) == 1.0
        assert math.copysign(1.0, values["y0"]) == math.copysign(1.0, values["y1"]) == -1.0
        assert values["y2"] == 7.5e9


class TestHighsPathBuildsNoViews:
    def test_solves_without_variables_or_constraints(self, pinch_models, monkeypatch):
        want = [solve(model) for model in pinch_models]

        def refuse(self):
            raise AssertionError("per-row view built on the HiGHS path")

        monkeypatch.setattr(Model, "variables", property(refuse))
        monkeypatch.setattr(Model, "constraints", property(refuse))
        plain = [solve(model) for model in pinch_models]
        with reuse_solves():  # the second pass reads the memo
            reused = [solve(model) for model in pinch_models * 2]
        for got in (plain, reused[:len(want)], reused[len(want):]):
            assert [(r.status, r.objective, r.values) for r in got] == \
                [(r.status, r.objective, r.values) for r in want]
        assert {r.status for r in want} == {milp.OPTIMAL, milp.INFEASIBLE}
