"""Model container and the HiGHS engine on small known problems."""
from __future__ import annotations

import hashlib
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, sparse

from faircoplan import blocks, milp, sim
from faircoplan.airspace import OccupancyLedger
from faircoplan.baseline import solve_tfmp
from faircoplan.flights import DelayCostParams
from faircoplan.serialize import load_scenario
from faircoplan.milp import (
    HighsBackend,
    Model,
    check_solution,
    solve,
)
from faircoplan.step1 import solve_step1
from faircoplan.step2 import solve_step2
from faircoplan.step3 import solve_step3

from helpers import (
    assert_same_model, blocked, make_grid, make_request, run_python, solve_every_step1_model,
    solve_every_tfmp_batch, trajectory_model,
)


class TestHighs:
    def test_knapsack_maximum(self):
        # values 6,5,4 / weights 3,2,2 / budget 4 -> pick items 1 and 2; the
        # model minimizes the negated values.
        result = solve(knapsack())
        assert result.status == milp.OPTIMAL
        assert result.objective == pytest.approx(-9.0)
        assert result.x == [0.0, 1.0, 1.0]

    def test_equality_with_continuous_variable(self):
        model = Model(name="mix")
        x = model.binary("x", cost=1.0)
        y = model.continuous("y", lb=0.0, ub=10.0, cost=1.0)
        model.add({x: 2.0, y: 1.0}, "=", 3.0)
        result = solve(model)
        assert result.status == milp.OPTIMAL
        # x=1, y=1 costs 2; x=0, y=3 costs 3
        assert result.objective == pytest.approx(2.0)
        assert result.x[x] == 1.0
        assert result.x[y] == pytest.approx(1.0)

    def test_infeasible_reported(self):
        model = Model(name="bad")
        x = model.binary("x", cost=1.0)
        model.add({x: 1.0}, ">=", 2.0)
        assert solve(model).status == milp.INFEASIBLE

    def test_objective_offset_carried_through(self):
        model = Model(name="offset")
        x = model.binary("x", cost=2.0)
        model.add({x: 1.0}, ">=", 1.0)
        model.objective_offset = 5.0
        result = solve(model)
        assert result.objective == pytest.approx(7.0)

    def test_empty_model_is_trivially_optimal(self):
        model = Model(name="empty")
        model.objective_offset = 1.5
        result = solve(model)
        assert result.status == milp.OPTIMAL
        assert result.objective == pytest.approx(1.5)
        assert result.x == []

    def test_only_an_optimal_result_holds_a_point(self):
        model = Model(name="bad")
        x = model.binary("x")
        model.add({x: 1.0}, ">=", 2.0)
        assert solve(model).x == []


class TestModelContainer:
    def test_declarations_return_consecutive_columns(self):
        # A name is only a label: two declarations never share a column.
        model = Model(name="columns")
        assert [model.binary("x"), model.continuous("y"), model.binary("x")] == [0, 1, 2]
        assert [v.name for v in model.variables] == ["x", "y", "x"]
        assert model.num_vars == 3

    @pytest.mark.parametrize("column", [-1, 2, 7])
    def test_undeclared_column_in_a_row_rejected(self, column):
        model = Model(name="undeclared")
        x, y = model.binary("x"), model.binary("y")
        message = r"^constraint 'cap' references a column outside \[0, 2\)$"
        with pytest.raises(ValueError, match=message):
            model.add({x: 1.0, column: 1.0, y: 1.0}, "<=", 1.0, label="cap")
        assert (model.num_rows, model.num_nonzeros) == (0, 0)

    def test_costs_are_one_number_or_one_per_column(self):
        model = Model(name="costs")
        model.binaries(["x", "y"], cost=2.0)
        model.continuous("z", lb=-1.0, cost=-0.5)
        model.binaries(["u", "v", "w"], cost=[1.0, 0.0, -3.0])
        model.binary("t")
        np.testing.assert_array_equal(milp._arrays(model)[0],
                                      [2.0, 2.0, -0.5, 1.0, 0.0, -3.0, 0.0])

    @pytest.mark.parametrize("cost", [[], [1.0], [1.0, 2.0, 3.0]],
                             ids=["none", "short", "long"])
    def test_cost_list_of_the_wrong_length_rejected(self, cost):
        model = Model(name="costs")
        model.binaries(["x"], cost=4.0)
        before = (model.variables, milp._arrays(model)[0].tolist())
        with pytest.raises(ValueError, match=rf"^{len(cost)} costs for 2 columns$"):
            model.binaries(["y", "z"], cost=cost)
        assert (model.variables, milp._arrays(model)[0].tolist()) == before

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
        assert check_solution(model, [0.0]) == []
        assert any("cap" in v for v in check_solution(model, [1.0]))
        assert any("not integral" in v for v in check_solution(model, [0.5]))

    @pytest.mark.parametrize("point", [[], [0.0], [0.0, 1.0, 0.0], [[0.0, 1.0]]],
                             ids=["empty", "short", "long", "nested"])
    def test_check_solution_needs_one_value_per_column(self, point):
        model = Model(name="check")
        x, y = model.binary("x"), model.binary("y")
        model.add({x: 1.0, y: 1.0}, "<=", 1.0)
        assert check_solution(model, [0.0, 1.0]) == []
        with pytest.raises(ValueError, match="model 'check' with 2 columns"):
            check_solution(model, point)


def row_by_row() -> Model:
    """``mixed_model``'s columns and rows, written one call at a time."""
    model = Model(name="mixed")
    x, y = model.binary("x"), model.binary("y")
    model.binary("w")
    model.add({y: 1.0, x: 0.0}, "<=", 1, label="a")
    model.add({x: 1.0}, ">=", 0.5, label="b")
    model.add({y: 2.0, x: -1.0, 2: 1.0}, "=", 1.0, label="c")
    return model


class TestBulkWriting:
    def test_binaries_and_rows_equal_one_call_each(self):
        model = Model(name="mixed")
        assert model.binaries(["x", "y", "w"]) == 0
        model.add_rows([2, 3, 6], [1, 0, 0, 1, 0, 2], [1.0, 0.0, 1.0, 2.0, -1.0, 1.0],
                       ["<=", ">=", "="], [1, 0.5, 1.0], ["a", "b", "c"])
        assert_same_model(model, row_by_row())
        assert model.constraints == row_by_row().constraints
        assert [row.rhs for row in model.constraints] == [1.0, 0.5, 1.0]

    def test_binaries_return_the_first_new_column(self):
        model = Model(name="columns")
        model.continuous("z")
        assert model.binaries(["x", "y"]) == 1
        assert model.binaries([]) == 3
        assert [(v.name, v.binary) for v in model.variables] == [
            ("z", False), ("x", True), ("y", True)]

    @pytest.mark.parametrize("column", [-1, 2, 7])
    def test_undeclared_column_rejected_as_add_rejects_it(self, column):
        model = Model(name="undeclared")
        model.binaries(["x", "y"])
        message = r"^constraint 'cap' references a column outside \[0, 2\)$"
        with pytest.raises(ValueError, match=message):
            model.add_rows([1, 4], [0, 0, column, 1], [1.0] * 4, ["<=", "<="],
                           [1.0, 1.0], ["ok", "cap"])
        assert (model.num_rows, model.num_nonzeros) == (0, 0)

    @pytest.mark.parametrize("ends", [[0, 1], [1, 1], [2, 1]],
                             ids=["first", "middle", "falling"])
    def test_empty_row_rejected_by_label(self, ends):
        model = Model(name="empty-row")
        model.binaries(["x", "y"])
        with pytest.raises(ValueError, match="has no variables"):
            model.add_rows(ends, [0, 1][:ends[-1]], [1.0, 1.0][:ends[-1]],
                           ["<=", "<="], [1.0, 1.0], ["a", "b"])
        assert model.num_rows == 0

    def test_unknown_relation_rejected(self):
        model = Model(name="relation")
        model.binaries(["x"])
        with pytest.raises(ValueError, match="unknown relation '<'"):
            model.add_rows([1], [0], [1.0], ["<"], [1.0], ["a"])

    def test_lists_of_unequal_length_rejected(self):
        model = Model(name="lengths")
        model.binaries(["x"])
        with pytest.raises(ValueError, match="one end, relation, rhs and label"):
            model.add_rows([1], [0], [1.0], ["<=", "<="], [1.0], ["a"])
        with pytest.raises(ValueError, match="one coefficient per index"):
            model.add_rows([1], [0], [], ["<="], [1.0], ["a"])

    @pytest.mark.parametrize("coeffs, relation, message", [
        ({0: 1.0}, "<", "unknown relation '<'"),
        ({}, "<=", "constraint 'bad' has no variables"),
        ({0: 1.0, 2: 1.0}, "<=", r"constraint 'bad' references a column outside \[0, 2\)"),
        ({}, "<", "unknown relation '<'"),
    ], ids=["relation", "empty", "column", "relation-before-empty"])
    def test_add_raises_exactly_what_add_rows_raises(self, coeffs, relation, message):
        by_add, by_rows = Model(name="one"), Model(name="bulk")
        errors = []
        for model, write in (
                (by_add, lambda m: m.add(coeffs, relation, 1.0, label="bad")),
                (by_rows, lambda m: m.add_rows([len(coeffs)], list(coeffs),
                                               list(coeffs.values()), [relation], [1.0],
                                               ["bad"]))):
            model.binaries(["x", "y"])
            with pytest.raises(ValueError) as raised:
                write(model)
            errors.append(str(raised.value))
            assert (model.num_rows, model.num_nonzeros) == (0, 0)
        assert errors[0] == errors[1]
        assert re.fullmatch(message, errors[0])

    def test_columns_written_one_at_a_time_or_in_bulk_are_the_same(self):
        one, bulk = Model(name="columns"), Model(name="columns")
        assert [one.binary("x"), one.continuous("z", -1.0, 2.0), one.binary("y"),
                one.binary("w")] == [0, 1, 2, 3]
        assert [bulk.binaries(["x"]), bulk.continuous("z", -1.0, 2.0),
                bulk.binaries(["y", "w"])] == [0, 1, 2]
        assert_same_model(one, bulk)
        # A rejected column leaves the model as it was.
        with pytest.raises(ValueError, match=r"^variable 'v' has lb > ub$"):
            one.continuous("v", 1.0, 0.0)
        assert_same_model(one, bulk)


def fragment_model(prefix: str) -> Model:
    """Three columns, two of them with a cost, two rows (one with a zero
    coefficient) and an objective offset."""
    fragment = Model(name=prefix)
    a, b = fragment.binary(f"{prefix}.a"), fragment.binary(f"{prefix}.b", cost=2.0)
    c = fragment.continuous(f"{prefix}.c", lb=-1.0, ub=2.0, cost=-1.0)
    fragment.add({c: 1.0, a: 1.0, b: 0.0}, "<=", 2.0, label=f"{prefix}.r0")
    fragment.add({b: 1.0}, "=", 1.0, label=f"{prefix}.r1")
    fragment.objective_offset = 0.25
    return fragment


class TestAppend:
    def test_offset_is_the_number_of_columns_before(self):
        model = mixed_model()
        assert model.append(fragment_model("f")) == 3
        assert model.append(fragment_model("g")) == 6
        assert model.num_vars == 9

    def test_columns_rows_and_objective_shift_by_the_offset(self):
        model = Model(name="joint")
        x = model.binary("x")
        model.add({x: 1.0}, "<=", 1.0, label="own")
        shift = model.append(fragment_model("f"))
        # The same model, written one call at a time.
        want = Model(name="joint")
        x = want.binary("x")
        want.add({x: 1.0}, "<=", 1.0, label="own")
        a, b = want.binary("f.a"), want.binary("f.b", cost=2.0)
        c = want.continuous("f.c", lb=-1.0, ub=2.0, cost=-1.0)
        want.add({c: 1.0, a: 1.0, b: 0.0}, "<=", 2.0, label="f.r0")
        want.add({b: 1.0}, "=", 1.0, label="f.r1")
        want.objective_offset = 0.25
        assert shift == 1
        assert_same_model(model, want)
        assert model.constraints == want.constraints
        assert model.variables == want.variables

    def test_costs_land_at_the_shifted_columns(self):
        model = mixed_model()
        shifts = [model.append(fragment_model(prefix)) for prefix in "fg"]
        assert shifts == [3, 6]
        np.testing.assert_array_equal(milp._arrays(model)[0],
                                      [-1.0, 0.0, -1.0, 0.0, 2.0, -1.0, 0.0, 2.0, -1.0])

    def test_offsets_add_up_and_the_fragment_is_left_as_it_was(self):
        fragment = fragment_model("f")
        before = (fragment.variables, fragment.constraints, fragment.objective_offset)
        model = Model(name="joint")
        model.append(fragment)
        model.append(fragment)
        assert model.objective_offset == 0.5
        assert (fragment.variables, fragment.constraints,
                fragment.objective_offset) == before
        assert model.constraints[2:] == fragment.constraints

    def test_solution_of_two_copies_is_two_fragment_solutions(self):
        fragment = fragment_model("f")
        model = Model(name="joint")
        shifts = [model.append(fragment) for _ in range(2)]
        alone, both = solve(fragment), solve(model)
        assert both.status == alone.status == milp.OPTIMAL
        assert both.x == [v for shift in shifts for v in alone.x]
        assert both.objective == 2 * alone.objective

    def test_empty_fragment_changes_nothing(self):
        model = mixed_model()
        before = (model.variables, model.constraints, model.objective_offset)
        assert model.append(Model(name="empty")) == 3
        assert (model.variables, model.constraints, model.objective_offset) == before
        assert_same_model(model, mixed_model())

    def test_append_to_an_empty_model_copies_the_fragment(self):
        model = Model(name="fragment")
        assert model.append(fragment_model("f")) == 0
        assert_same_model(model, fragment_model("f"))

    @pytest.mark.parametrize("column", [-1, 3, 7])
    def test_column_outside_the_fragment_rejected_as_add_rejects_it(self, column):
        # Only a fragment whose stored row was edited can hold such a column:
        # add and add_rows refuse to write one.
        fragment = fragment_model("f")
        fragment._indices[3] = column  # the first term of row f.r1
        message = r"^constraint 'f.r1' references a column outside \[0, 3\)$"
        with pytest.raises(ValueError, match=message):
            fragment.add({column: 1.0}, "<=", 1.0, label="f.r1")
        model = mixed_model()
        with pytest.raises(ValueError, match=message):
            model.append(fragment)
        assert_same_model(model, mixed_model())


class TestSolveRecheck:
    def test_infeasible_point_from_backend_is_rejected(self, monkeypatch):
        def liar(c, *args):
            return 0, np.ones(len(c)), "Optimal"

        monkeypatch.setattr(milp, "run_highs", liar)
        model = Model(name="liar-check")
        x = model.binary("x", cost=-1.0)
        model.add({x: 1.0}, "<=", 0.0)
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
    c, lb, ub, integrality, (start, index, value), row_lb, row_ub = arrays
    A = sparse.csc_array((value, index, start), shape=(len(row_lb), len(c)))
    kwargs = {}
    if A.shape[0]:
        kwargs["constraints"] = optimize.LinearConstraint(A, row_lb, row_ub)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        return optimize.milp(c, integrality=integrality, bounds=optimize.Bounds(lb, ub),
                             options=dict(options), **kwargs)


@pytest.fixture(scope="module")
def desk_day_solves() -> list[tuple]:
    """``(model, milp._arrays(model), result)`` for every model solved on
    desk day 0, in all three lanes: 48 choice-setting, 5 deconfliction and
    54 fixed-route models. The fixed-route drop loop's energetic bound, the
    fixed-route earliest-schedule proof and step 1's whole-offer shortcut
    are patched out, so HiGHS solves every attempt and every batch, those
    they settle included."""
    solved = []
    real_solve = milp.solve

    def spy(model):
        result = real_solve(model)
        solved.append((model, milp._arrays(model), result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "solve", spy)
        patch.setattr(blocks, "_exceeds_room", lambda rid, spans, room: False)
        solve_every_step1_model(patch)
        solve_every_tfmp_batch(patch)
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
        model = Model(name="gap")
        x = model.binary("x", cost=-1.0)
        model.add({x: 1.0}, "<=", 1.0)
        assert HighsBackend().solve(model).status == milp.OPTIMAL
        assert seen == [{"log_to_console": False, "presolve": "on", "mip_rel_gap": 0.0,
                         "mip_heuristic_run_feasibility_jump": False,
                         "time_limit": math.inf}]

    def test_solve_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(knapsack())
        assert (result.status, result.objective) == (milp.OPTIMAL, -9.0)

    def test_option_highs_rejects_is_an_error_naming_it(self, monkeypatch):
        monkeypatch.setattr(milp, "HIGHS_OPTIONS",
                            dict(milp.HIGHS_OPTIONS, no_such_option=1))
        result = solve(knapsack())
        assert result.status == milp.ERROR
        assert "no_such_option" in result.detail

    def test_solves_write_nothing_to_the_console(self, capfd, monkeypatch):
        # perfbench's worker reports through its last line of stdout, and
        # HiGHS logs to the console unless told not to.
        infeasible = Model(name="bad")
        x = infeasible.binary("x", cost=1.0)
        infeasible.add({x: 1.0}, ">=", 2.0)
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
        for _, arrays, _ in desk_day_solves:
            status, x, _ = milp.run_highs(*arrays)
            ref = scipy_milp(arrays, SCIPY_OPTIONS)
            assert status == ref.status
            assert (x is None and ref.x is None) or np.array_equal(x, ref.x)
        statuses = {result.status for _, _, result in desk_day_solves}
        assert len(desk_day_solves) > 100 and statuses == {milp.OPTIMAL, milp.INFEASIBLE}

    def test_same_optima_as_with_feasibility_jump(self, desk_day_solves):
        # Every model of desk day 0, in all three lanes, re-solved with the
        # heuristic on (HiGHS's default): same status, same optimal value.
        for model, arrays, result in desk_day_solves:
            ref = scipy_milp(arrays, FEASIBILITY_JUMP_ON)
            assert ref.status == {milp.OPTIMAL: 0, milp.INFEASIBLE: 2}[result.status]
            if ref.status == 0:
                assert result.objective == pytest.approx(
                    ref.fun + model.objective_offset, abs=1e-9)
        statuses = {result.status for _, _, result in desk_day_solves}
        assert len(desk_day_solves) > 100 and statuses == {milp.OPTIMAL, milp.INFEASIBLE}

    def test_constraint_matrix_is_passed_sparse(self, monkeypatch):
        seen = []
        real_run_highs = milp.run_highs

        def spy(c, lb, ub, integrality, matrix, row_lb, row_ub):
            seen.append(matrix)
            return real_run_highs(c, lb, ub, integrality, matrix, row_lb, row_ub)

        monkeypatch.setattr(milp, "run_highs", spy)
        model = Model(name="sparse")
        x, y = model.binary("x", cost=-1.0), model.binary("y", cost=-2.0)
        z = model.binary("z", cost=-1.0)
        model.add({x: 1.0, z: 1.0}, "<=", 1.0)
        model.add({y: 1.0}, "<=", 1.0)
        assert HighsBackend().solve(model).status == milp.OPTIMAL
        # Column-wise arrays of length columns + 1 and nnz, not a 2 x 3 matrix.
        assert len(seen) == 1
        start, index, value = seen[0]
        np.testing.assert_array_equal(start, [0, 1, 2, 3])
        np.testing.assert_array_equal(index, [0, 1, 0])
        np.testing.assert_array_equal(value, [1.0, 1.0, 1.0])

    def test_hand_off_gives_highs_the_arrays_unchanged(self, desk_day_solves, monkeypatch):
        # run_highs passes _arrays' output to passModel's array overload;
        # what HiGHS then holds must be that output, value for value.
        held = []

        class Recording(milp.highs._Highs):
            def run(self):
                held.append(self.getLp())
                return super().run()

        monkeypatch.setattr(milp.highs, "_Highs", Recording)
        for _, arrays, _ in desk_day_solves:
            c, lb, ub, integrality, matrix, row_lb, row_ub = arrays
            milp.run_highs(*arrays)
            lp = held.pop()
            assert (lp.num_col_, lp.num_row_) == (len(c), len(row_lb))
            assert (lp.sense_, lp.offset_) == (milp.highs.ObjSense.kMinimize, 0.0)
            assert lp.a_matrix_.format_ == milp.highs.MatrixFormat.kColwise
            for got, want in ((lp.col_cost_, c), (lp.col_lower_, lb), (lp.col_upper_, ub),
                              (lp.row_lower_, row_lb), (lp.row_upper_, row_ub),
                              (lp.a_matrix_.start_, matrix[0]),
                              (lp.a_matrix_.index_, matrix[1]),
                              (lp.a_matrix_.value_, matrix[2])):
                np.testing.assert_array_equal(np.asarray(got), want)
            assert [int(flag) for flag in lp.integrality_] == integrality.tolist()
        assert len(desk_day_solves) > 100 and not held


def input_digest(models: list[Model]) -> str:
    """One blake2b digest over the models' names, labels and ``milp._arrays``
    (every array with its dtype and bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    for model in models:
        c, lb, ub, integrality, matrix, row_lb, row_ub = milp._arrays(model)
        for array in (c, lb, ub, integrality, *matrix, row_lb, row_ub):
            digest.update(array.dtype.str.encode() + array.tobytes())
        for text in ([v.name for v in model.variables], [c.label for c in model.constraints]):
            digest.update("\n".join(text).encode() + b"\0")
    return digest.hexdigest()


class TestChoiceSettingInput:
    def test_desk_day_models_are_pinned(self, desk_day_solves):
        # Every choice-setting model of desk day 0 (fair-coplan and coplan)
        # hands HiGHS the same input, with the same names and labels, as
        # when the digest was recorded. A change to how step 1 builds its
        # model that would move a HiGHS input or a tied optimum fails here.
        # So does a change to an earlier period's outcome, since a model's
        # input is the ledger it reads: the digest moved, with step 1's
        # builder unchanged, when step 3 became flows and returned other
        # tied optima.
        models = [model for model, _, _ in desk_day_solves if model.name == "choice-setting"]
        assert len(models) == 48
        assert input_digest(models) == "cca290d2da33e07df4c6bcf1f4993030"


def knapsack() -> Model:
    """max 6 x0 + 5 x1 + 4 x2 with 3 x0 + 2 x1 + 2 x2 <= 4, as the minimum of
    the negated values."""
    model = Model(name="knapsack")
    x = [model.binary(f"x{i}", cost=-value) for i, value in enumerate((6.0, 5.0, 4.0))]
    model.add({x[0]: 3.0, x[1]: 2.0, x[2]: 2.0}, "<=", 4.0)
    return model


class TestHighsStatus:
    # No limit is ever set, so HiGHS status 1 ("a limit was reached") is a
    # solver failure, with or without an incumbent point.
    @pytest.mark.parametrize("x", [np.array([0.0, 1.0, 1.0]), None],
                             ids=["x0-error", "None-error"])
    def test_limit_status_is_an_error(self, monkeypatch, x):
        monkeypatch.setattr(milp, "run_highs", lambda *args: (1, x, "Time limit reached"))
        result = HighsBackend().solve(knapsack())
        assert result.status == milp.ERROR and result.hit_time_limit
        assert result.x == [] and result.objective is None


def fractional_pair(relaxation_first=True) -> Model:
    """min -x0 - x1 with 2 x0 + 2 x1 <= 3: the relaxation's optimum is -1.5,
    at a fractional point, and the MILP's is -1."""
    model = Model(name="fractional", relaxation_first=relaxation_first)
    x0, x1 = model.binary("x0", cost=-1.0), model.binary("x1", cost=-1.0)
    model.add({x0: 2.0, x1: 2.0}, "<=", 3.0)
    return model


class TestRelaxationFirst:
    @pytest.fixture()
    def highs_calls(self, monkeypatch):
        """The integrality flags of every ``run_highs`` call, in order."""
        calls = []
        real_run_highs = milp.run_highs

        def spy(c, lb, ub, integrality, *args):
            calls.append(integrality.tolist())
            return real_run_highs(c, lb, ub, integrality, *args)

        monkeypatch.setattr(milp, "run_highs", spy)
        return calls

    def test_integral_relaxation_is_the_optimum_in_one_call(self, highs_calls):
        # The relaxation's unique optimum is x1 = 1, y = 0.5; y is continuous,
        # so its fractional value does not send the solve on to the MILP.
        model = Model(name="integral", relaxation_first=True)
        x0, x1 = model.binary("x0", cost=-1.0), model.binary("x1", cost=-2.0)
        model.continuous("y", ub=0.5, cost=-1.0)
        model.add({x0: 1.0, x1: 1.0}, "<=", 1.0)
        model.objective_offset = -0.25
        result = solve(model)
        assert highs_calls == [[0, 0, 0]]
        assert (result.status, result.x) == (milp.OPTIMAL, [0.0, 1.0, 0.5])
        assert result.objective == pytest.approx(-2.75)
        assert "LP relaxation" in result.detail

    def test_fractional_relaxation_falls_back_to_the_milp(self, highs_calls):
        result = solve(fractional_pair())
        assert highs_calls == [[0, 0], [1, 1]]
        assert result.status == milp.OPTIMAL
        assert sorted(result.x) == [0.0, 1.0]
        assert result.objective == pytest.approx(-1.0)
        assert result.detail == ""

    def test_infeasible_relaxation_is_infeasible_in_one_call(self, highs_calls):
        model = Model(name="bad", relaxation_first=True)
        x0, x1 = model.binary("x0", cost=1.0), model.binary("x1")
        model.add({x0: 1.0, x1: 1.0}, ">=", 3.0)
        result = solve(model)
        assert highs_calls == [[0, 0]]
        assert result.status == milp.INFEASIBLE
        assert "LP relaxation" in result.detail

    def test_relaxation_point_is_rechecked_by_substitution(self, monkeypatch):
        calls = []

        def liar(c, lb, ub, integrality, *args):
            calls.append(integrality.tolist())
            return 0, np.ones(len(c)), "Optimal"

        monkeypatch.setattr(milp, "run_highs", liar)
        result = solve(fractional_pair())
        assert calls == [[0, 0]]
        assert result.status == milp.ERROR
        assert "infeasible point" in result.detail

    def test_unflagged_model_never_runs_the_relaxation(self, highs_calls):
        result = solve(fractional_pair(relaxation_first=False))
        assert highs_calls == [[1, 1]]
        assert result.objective == pytest.approx(-1.0)

    def test_desk_day_fixed_route_models_as_the_milp_solves_them(self, desk_day_solves):
        # Every fixed-route model of desk day 0 was solved relaxation-first;
        # solved as a plain MILP it has the same status and optimum.
        fixed_route = [(model, result) for model, _, result in desk_day_solves
                       if model.name == "fixed-route-schedule"]
        assert len(fixed_route) == 54
        for model, result in fixed_route:
            assert model.relaxation_first
            model.relaxation_first = False
            try:
                plain = solve(model)
            finally:
                model.relaxation_first = True
            assert "LP relaxation" not in plain.detail
            assert plain.status == result.status
            if plain.status == milp.OPTIMAL:
                assert result.objective == pytest.approx(plain.objective, abs=1e-9)
        verdicts = {(result.status, "LP relaxation" in result.detail)
                    for _, result in fixed_route}
        assert {(milp.OPTIMAL, True), (milp.INFEASIBLE, True)} <= verdicts


def columns_by_label(model: Model) -> dict[str, int]:
    """Each variable's column by its label, read from the views alone. The
    views name a row's terms by label, so the references below need labels
    that are unique, as the planner's are."""
    column = {v.name: j for j, v in enumerate(model.variables)}
    assert len(column) == model.num_vars
    return column


def dense_reference(model: Model) -> np.ndarray:
    """The constraint matrix built one dense row per constraint."""
    column = columns_by_label(model)
    dense = np.zeros((len(model.constraints), len(column)))
    for i, con in enumerate(model.constraints):
        for name, coeff in con.coeffs:
            dense[i, column[name]] += coeff
    return dense


def assert_matches_dense(model: Model) -> None:
    start, index, value = milp._arrays(model)[4]
    want = sparse.csc_array(dense_reference(model))
    assert (start.dtype, index.dtype, value.dtype) == (np.int32, np.int32, np.float64)
    assert len(start) == model.num_vars + 1
    np.testing.assert_array_equal(start, want.indptr)
    np.testing.assert_array_equal(index, want.indices)
    np.testing.assert_array_equal(value, want.data)


def mixed_model() -> Model:
    """Three rows, one with its columns out of order and one with an
    explicit zero coefficient; max x + z."""
    model = Model(name="mixed")
    x, y = model.binary("x", cost=-1.0), model.binary("y")
    z = model.continuous("z", lb=-1.0, ub=4.0, cost=-1.0)
    model.add({z: 2.0, x: 1.0}, "<=", 3.0)  # columns out of order
    model.add({x: 1.0, y: 0.0, z: -1.5}, "=", 0.5)
    model.add({y: 4.0}, ">=", 1.0)
    return model


@pytest.fixture(scope="module")
def pinch_models() -> list[Model]:
    """Every model the three MILP stages build for two flights through a
    capacity-one pinch (the proposals conflict, so every stage builds one),
    and each flight's trajectory model, its arc fragment. The fixed routes
    cross the blocked cell, so the fixed-route drop loop's energetic bound,
    patched out here, would settle both attempts without a model; step 1's
    whole-offer shortcut, patched out too, would settle its uncrowded batch."""
    seen: list[Model] = []
    real_solve = milp.solve

    def spy(model, *args, **kwargs):
        seen.append(model)
        return real_solve(model, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "solve", spy)
        patch.setattr(blocks, "_exceeds_room", lambda rid, spans, room: False)
        solve_every_step1_model(patch)
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
                                        s1.choice_sets[r.flight_id], params).fragment)
        solve_step3(grid, snap, requests, s1.choice_sets, proposals, params)
        solve_tfmp(grid, snap, requests, params)
    kinds = {model.name.split(".", 1)[0] for model in seen}
    assert kinds == {"choice-setting", "trajectory", "deconfliction",
                     "fixed-route-schedule"}
    return seen


class TestSparseAssembly:
    def test_hand_built_model_matches_dense_rows(self):
        model = mixed_model()
        assert_matches_dense(model)
        _, _, _, _, (start, index, value), row_lb, row_ub = milp._arrays(model)
        np.testing.assert_array_equal(start, [0, 2, 3, 5])
        np.testing.assert_array_equal(index, [0, 1, 2, 0, 1])
        np.testing.assert_array_equal(value, [1.0, 1.0, 4.0, 2.0, -1.5])
        np.testing.assert_array_equal(row_lb, [-np.inf, 0.5, 1.0])
        np.testing.assert_array_equal(row_ub, [3.0, 0.5, np.inf])

    def test_model_without_constraints_has_no_rows(self):
        model = Model(name="free")
        model.continuous("z", ub=1.0)
        _, _, _, _, (start, index, value), row_lb, _ = milp._arrays(model)
        np.testing.assert_array_equal(start, [0, 0])
        assert len(index) == len(value) == len(row_lb) == 0

    def test_planner_models_match_dense_rows(self, pinch_models):
        for model in pinch_models:
            assert_matches_dense(model)


def reference_check_solution(model: Model, x: list[float],
                             tol: float = milp.FEASIBILITY_TOL) -> list[str]:
    """The re-check as one scan per variable and one sum per row."""
    assert len(x) == model.num_vars
    violations = []
    for var, value in zip(model.variables, x):
        if value < var.lb - tol or value > var.ub + tol:
            violations.append(f"{var.name}={value} outside [{var.lb}, {var.ub}]")
        if var.binary and abs(value - round(value)) > milp.INTEGRALITY_TOL:
            violations.append(f"{var.name}={value} not integral")
    column = columns_by_label(model)
    for idx, con in enumerate(model.constraints):
        lhs = sum(c * x[column[name]] for name, c in con.coeffs)
        label = con.label or f"c{idx}"
        if con.relation == "<=" and lhs > con.rhs + tol:
            violations.append(f"{label}: {lhs} <= {con.rhs} violated")
        elif con.relation == ">=" and lhs < con.rhs - tol:
            violations.append(f"{label}: {lhs} >= {con.rhs} violated")
        elif con.relation == "=" and abs(lhs - con.rhs) > tol:
            violations.append(f"{label}: {lhs} = {con.rhs} violated")
    return violations


def reference_finish(model: Model, raw_x, c) -> tuple[list[float], float]:
    """A raw point unpacked one variable at a time."""
    point = []
    for var, x in zip(model.variables, raw_x):
        x = float(min(max(x, var.lb), var.ub))
        if var.binary and abs(x - round(x)) <= 1e-4:
            x = float(round(x))
        point.append(x)
    obj = float(np.dot(c, point)) + model.objective_offset
    return point, obj


def assert_finish_matches_reference(model: Model, raw_x) -> list[float]:
    c, lb, ub, integrality, _, _, _ = milp._arrays(model)
    point, obj = milp._finish(model, np.array(raw_x, dtype=float), lb, ub, integrality, c)
    want_point, want_obj = reference_finish(model, np.array(raw_x, dtype=float), c)
    # repr tells 0.0 from -0.0 and shows every bit of a float
    assert [repr(v) for v in point] == [repr(v) for v in want_point]
    assert repr(obj) == repr(want_obj)
    return point


def awkward_point(model: Model, x: list[float], seed: int) -> list[float]:
    """A point near ``x`` (or all 0.5 if ``x`` is empty) with noise, -0.0,
    near-integral values, out-of-bound values and a stray 0.25."""
    rng = np.random.default_rng(seed)
    point = []
    for j, var in enumerate(model.variables):
        value = x[j] if x else 0.5
        draw = rng.random()
        if draw < 0.1:
            value = 0.25
        elif draw < 0.3:
            value += float(rng.normal())
        elif draw < 0.4:
            value = -0.0
        elif draw < 0.5:
            value = float(round(value)) + float(rng.choice([-1e-5, 5e-5, -2e-4]))
        elif draw < 0.55:
            value = var.ub + 3.0 if math.isfinite(var.ub) else -7.0
        point.append(value)
    return point


class TestVectorizedAgainstReference:
    def test_every_kind_of_violation(self):
        model = Model(name="violations")
        b, b2, m = model.binary("b"), model.binary("b2"), model.binary("m")
        y = model.continuous("y", lb=-1.0, ub=2.0)
        z = model.continuous("z", lb=0, ub=5)
        w = model.continuous("w", lb=1.0, ub=2.0)
        model.add({b: 1.0, y: 1.0}, "<=", 2.0, label="le")
        model.add({y: 2.0, z: -1.0}, ">=", 3.0, label="ge")
        model.add({b2: 1.0, z: 1.0, m: 1.0}, "=", 2.0, label="eq")
        model.add({b2: 1.0}, ">=", 1.0, label="ok")
        model.add({z: 1.0, b: -1.0}, "<=", 1.0)
        assert [b, b2, m, y, z, w] == list(range(6))
        values = [0.5, 1, 0.0, 2.5, 4.0, 1.5]
        got = check_solution(model, values)
        assert got == reference_check_solution(model, values)
        assert got == [
            "b=0.5 not integral",
            "y=2.5 outside [-1.0, 2.0]",
            "le: 3.0 <= 2.0 violated",
            "ge: 1.0 >= 3.0 violated",
            "eq: 5.0 = 2.0 violated",
            "c4: 3.5 <= 1.0 violated",
        ]
        assert check_solution(model, values, tol=3.0) == \
            reference_check_solution(model, values, tol=3.0)
        assert check_solution(model, [0.0, 1.0, 0.0, 2.0, 1.0, 1.0]) == []
        # Every labelled row and the bounds of y and m sit exactly on the
        # tolerance boundary, which is not a violation.
        edge = [0.0, 0.5, -0.5, 2.5, 2.5, 1.0]
        got = check_solution(model, edge, tol=0.5)
        assert got == reference_check_solution(model, edge, tol=0.5)
        assert got == ["b2=0.5 not integral", "m=-0.5 not integral",
                       "c4: 2.5 <= 1.0 violated"]

    def test_planner_models_at_solved_and_perturbed_points(self, pinch_models):
        flagged = 0
        for seed, model in enumerate(pinch_models):
            result = solve(model)
            if result.status == milp.OPTIMAL:
                assert check_solution(model, result.x) == \
                    reference_check_solution(model, result.x) == []
            point = awkward_point(model, result.x, seed)
            got = check_solution(model, point)
            assert got == reference_check_solution(model, point)
            flagged += len(got)
            assert_finish_matches_reference(model, point)
        assert flagged > 0

    def test_row_sums_equal_scipys_csr_product(self, desk_day_solves):
        # At tol -1e300 every row reads as violated, so check_solution
        # reports each row's left-hand side, and its repr shows every bit.
        mixed = mixed_model()
        solved = [(model, result) for model, _, result in desk_day_solves]
        for seed, (model, result) in enumerate(solved + [(mixed, solve(mixed))]):
            A = sparse.csr_array(
                (np.array(model._coeffs), np.array(model._indices, dtype=np.int32),
                 np.array(model._indptr, dtype=np.int32)),
                shape=(model.num_rows, model.num_vars))
            solved_point = result.x or [0.0] * model.num_vars
            for point in (solved_point, awkward_point(model, result.x, seed)):
                want = [f"{con.label or f'c{i}'}: {lhs} {con.relation} {con.rhs} violated"
                        for i, (con, lhs) in enumerate(zip(model.constraints,
                                                           (A @ np.array(point)).tolist()))]
                got = check_solution(model, point, tol=-1e300)
                assert [m for m in got if m.endswith(" violated")] == want
        assert len(solved) > 100

    def test_finish_on_awkward_raw_points(self):
        model = Model(name="raw")
        bins = [model.binary(f"b{i}", cost=-1.0) for i in range(8)]
        zero_lb = model.continuous("y0", lb=0.0, ub=3.0, cost=-2.0)
        free = model.continuous("y1", lb=-2.0, ub=2.0, cost=1.0)
        wide = model.continuous("y2", lb=-math.inf, ub=math.inf, cost=-0.5)
        model.objective_offset = 1.25
        raw = [-0.0, -1e-5, 1 + 5e-5, 0.99995, 0.5, 0.9998, 3.0, -4.0,
               -0.0, -0.0, 7.5e9]
        point = assert_finish_matches_reference(model, raw)
        assert [point[v] for v in bins] == [0.0, 0.0, 1.0, 1.0, 0.5, 0.9998, 1.0, 0.0]
        assert math.copysign(1.0, point[bins[0]]) == math.copysign(1.0, point[bins[1]]) == 1.0
        assert math.copysign(1.0, point[zero_lb]) == math.copysign(1.0, point[free]) == -1.0
        assert point[wide] == 7.5e9


class TestHighsPathBuildsNoViews:
    def test_solves_without_variables_or_constraints(self, pinch_models, monkeypatch):
        want = [solve(model) for model in pinch_models]

        def refuse(self):
            raise AssertionError("per-row view built on the HiGHS path")

        monkeypatch.setattr(Model, "variables", property(refuse))
        monkeypatch.setattr(Model, "constraints", property(refuse))
        plain = [solve(model) for model in pinch_models]
        assert [(r.status, r.objective, r.x) for r in plain] == \
            [(r.status, r.objective, r.x) for r in want]
        assert {r.status for r in want} == {milp.OPTIMAL, milp.INFEASIBLE}


class TestHighsBinding:
    # pytest itself has imported scipy.optimize, so these start a fresh
    # interpreter.
    def test_import_leaves_out_scipy_optimize_and_sparse(self):
        # faircoplan.cli imports every other submodule.
        done = run_python(
            "-c", "import pkgutil, sys, faircoplan.cli\n"
            "names = {f'faircoplan.{m.name}' for m in pkgutil.iter_modules(faircoplan.__path__)}\n"
            "print(sorted(names - set(sys.modules)))\n"
            "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))")
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, "['faircoplan.__main__']\n[]\n", "")

    def test_scipy_optimize_reuses_the_binding(self):
        done = run_python(
            "-c", "import numpy as np\n"
            "from faircoplan import milp\n"
            "import scipy.optimize\n"
            "from scipy.optimize._highspy import _core\n"
            "assert _core is milp.highs\n"
            "r = scipy.optimize.milp(-np.array([6.0, 5.0, 4.0]), integrality=np.ones(3),\n"
            "    bounds=scipy.optimize.Bounds(0, 1),\n"
            "    constraints=scipy.optimize.LinearConstraint([[3.0, 2.0, 2.0]], -np.inf, 4.0))\n"
            "print(r.status, r.fun, r.x.tolist())")
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, "0 -9.0 [0.0, 1.0, 1.0]\n", "")

    def test_binding_in_sys_modules_is_reused(self):
        assert milp.highs is sys.modules["scipy.optimize._highspy._core"]
        assert milp._highs_binding("no such directory") is milp.highs

    def test_missing_binding_is_an_import_error_naming_the_folder(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
        folder = tmp_path / "optimize" / "_highspy"
        folder.mkdir(parents=True)
        with pytest.raises(ImportError, match=re.escape(str(folder))):
            milp._highs_binding(str(tmp_path))
        assert "scipy.optimize._highspy._core" not in sys.modules
