"""Brute-force validation suite: catalog shape and case mechanics."""
from __future__ import annotations

from faircoplan.selfcheck import (
    CaseResult,
    build_catalog,
    check_instance,
    random_instance,
)
from faircoplan.step1 import solve_step1

from helpers import record_solves


class TestCatalog:
    def test_has_named_handmade_instances(self):
        names = [inst.name for inst in build_catalog()]
        assert len(names) == len(set(names))
        assert len(names) >= 10

    def test_covers_every_fairness_weight(self):
        gammas = {inst.gamma for inst in build_catalog()}
        assert {0.0, 1.0, 5.0} <= gammas

    def test_includes_contention_and_occupancy(self):
        catalog = build_catalog()
        assert any(len(inst.requests) == 2 for inst in catalog)
        assert any(inst.base for inst in catalog)
        assert any(inst.now > 0 for inst in catalog)

    def test_step1_settles_one_uncrowded_batch_and_solves_another(self, monkeypatch):
        # With no cap row, step 1 grants the whole offer where it passes
        # the re-check and solves its model where a ring run is too short.
        catalog = {inst.name: inst for inst in build_catalog()}
        solved = record_solves(monkeypatch, "choice-setting")
        for name, models in (("corridor-wide-pair", 0), ("ring-dwell-cut", 1)):
            inst = catalog[name]
            solve_step1(inst.grid, inst.snapshot(), list(inst.requests), inst.now)
            assert len(solved) == models, name
            assert not any(con.label.startswith("cap.")
                           for model, _ in solved for con in model.constraints)
            solved.clear()
        for name in ("corridor-wide-pair", "ring-dwell-cut"):
            cases = check_instance(catalog[name])
            assert f"{name}/choices" in {case.name for case in cases}
            assert all(case.passed for case in cases), name


    def test_tfmp_plans_meet_the_oracles_where_the_proof_settles(self, monkeypatch):
        # A lone on-time flight is filed at its earliest schedule with no
        # model, and one whose earliest schedule is blocked at the one
        # schedule that holds where it can; each plan is compared with the
        # oracle's. A flight that may hold in either of two ring cells is
        # left to HiGHS, and only its cost is.
        catalog = {inst.name: inst for inst in build_catalog()}
        solved = record_solves(monkeypatch, "fixed-route-schedule")
        for name, models in (("corridor", 0), ("corridor-held", 0), ("corridor-slack", 1),
                             ("corridor-held-tie", 1)):
            cases = {case.name: case for case in check_instance(catalog[name])}
            assert len(solved) == models, name
            assert f"{name}/schedule-baseline" in cases
            assert (f"{name}/schedule-baseline-plans" in cases) == (models == 0)
            assert all(case.passed for case in cases.values()), name
            solved.clear()


class TestRandomInstances:
    def test_same_seed_same_instance(self):
        a, b = random_instance(42), random_instance(42)
        assert a.name == b.name
        assert a.requests == b.requests
        assert a.gamma == b.gamma
        assert a.grid.config == b.grid.config

    def test_seeds_vary_the_draw(self):
        draws = {random_instance(s).requests for s in range(10)}
        assert len(draws) > 1


class TestCheckInstance:
    def test_catalog_head_passes_every_case(self):
        for inst in build_catalog()[:4]:
            for case in check_instance(inst):
                assert case.passed, case.line()

    def test_case_lines_are_grep_friendly(self):
        ok = CaseResult("choices: toy", True)
        bad = CaseResult("trajectory: toy/f0", False, "0.3 != 0.0")
        assert ok.line() == "PASS  choices: toy"
        assert bad.line() == "FAIL  trajectory: toy/f0  (0.3 != 0.0)"
