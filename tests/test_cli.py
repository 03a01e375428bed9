"""Command-line interface: artifacts, verification exit codes."""
from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from faircoplan import cli, selfcheck
from faircoplan.cli import run_cli
from faircoplan.serialize import load_scenario, save_scenario
from faircoplan.sim import CampaignResult

from helpers import run_python
from test_sim import DESK, corridor_config


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "toy.yaml"
    save_scenario(path, corridor_config(periods_per_day=2))
    return path


class TestSimulate:
    def test_writes_a_campaign_directory(self, scenario_path, tmp_path,
                                         capsys):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--config", str(scenario_path),
                        "--out", str(out), "--mode", "tfmp"])
        assert code == 0
        assert (out / "tfmp" / "periods.jsonl").exists()
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "tfmp: served=" in stdout
        assert f"wrote {out}" in stdout

    def test_overrides_reach_the_stored_scenario(self, scenario_path,
                                                 tmp_path):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--config", str(scenario_path),
                        "--out", str(out), "--mode", "coplan",
                        "--gamma", "0.25", "--demand", "6.0",
                        "--seed", "11", "--days", "1"])
        assert code == 0
        stored = load_scenario(out / "scenario.yaml")
        assert stored.gamma == 0.25
        assert stored.demand_per_hub_per_hour == 6.0
        assert stored.seed == 11
        assert stored.days == 1

    def test_rejects_unknown_mode(self, scenario_path, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["simulate", "--config", str(scenario_path),
                     "--out", str(tmp_path / "x"), "--mode", "freeflight"])


class TestCompare:
    def test_runs_every_mode_on_identical_demand(self, scenario_path,
                                                 tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(["compare", "--config", str(scenario_path),
                        "--out", str(out)])
        assert code == 0
        for mode in ("fair-coplan", "coplan", "tfmp"):
            assert (out / mode / "periods.jsonl").exists()
        stdout = capsys.readouterr().out
        assert "fair-coplan: served=" in stdout
        assert "fairness improved on" in stdout

    def test_builds_the_records_once(self, scenario_path, tmp_path, capsys,
                                     monkeypatch):
        calls = []
        records = CampaignResult.records

        def counted(campaign):
            calls.append(campaign)
            return records(campaign)

        monkeypatch.setattr(CampaignResult, "records", counted)
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--config", str(scenario_path),
                        "--out", str(out)]) == 0
        assert len(calls) == 1
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        stdout = capsys.readouterr().out
        for mode, stats in summary["modes"].items():
            assert f"{mode}: served={stats['served']} " in stdout
            assert f"mean_tdc={stats['mean_tdc']} " in stdout

    def test_desk_day_records_are_pinned(self, tmp_path):
        # One desk day, all three lanes. The digests were recorded when
        # HiGHS solved all 40 of its step-1 batches; step 1 now grants the
        # whole offer of 13 of them with no model.
        out = tmp_path / "desk"
        assert run_cli(["compare", "--config", str(DESK), "--days", "1",
                        "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in (
            "fair-coplan/periods.jsonl", "coplan/periods.jsonl", "tfmp/periods.jsonl",
            "days.csv", "summary.json")}
        assert digests == {
            "fair-coplan/periods.jsonl":
                "e6b84930917116a49256560b858002d3ef155b040cb82186365b2516a7edfdab",
            "coplan/periods.jsonl":
                "e3d1349b2b3a8d6bfd31d618c07b3d600e45b0935deaeee312d550362d1eb593",
            "tfmp/periods.jsonl":
                "4fd8475d8b22d09a8753db6af09f3cb00b749c97567ed85cb5890f8b5305a29c",
            "days.csv": "1b5399507d0afd6b2f76438b463acf3d0c4afa4032ea63fdf6767f55193f8010",
            "summary.json": "705b893b05e67d0d3b6175e11843d1b9201ccf21b7d0fa9dcae922ea19126abb",
        }


class TestOverrides:
    def test_periods_sets_the_periods_per_day(self, scenario_path, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--config", str(scenario_path),
                        "--out", str(out), "--days", "2", "--periods", "1"]) == 0
        assert load_scenario(out / "scenario.yaml").periods_per_day == 1
        for mode in ("fair-coplan", "coplan", "tfmp"):
            lines = (out / mode / "periods.jsonl").read_text().splitlines()
            assert [(json.loads(line)["day"], json.loads(line)["period"])
                    for line in lines] == [(0, 0), (1, 0)]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("flag", ["--days", "--periods"])
    def test_invalid_override_is_one_error_line(self, scenario_path, tmp_path,
                                                capsys, command, flag):
        out = tmp_path / "run"
        assert run_cli([command, "--config", str(scenario_path),
                        "--out", str(out), flag, "0"]) == 2
        assert capsys.readouterr() == (
            "", "error: days, periods_per_day and cadence_steps must be >= 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, key", [("--gamma", "gamma"),
                                           ("--demand", "demand_per_hub_per_hour")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_override_is_one_error_line(self, scenario_path, tmp_path,
                                                   capsys, flag, key, value):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--config", str(scenario_path),
                        "--out", str(out), flag, value]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"error: {key} must be ") and "finite" in stderr
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_demand_past_the_poisson_sampler_is_one_error_line(self, scenario_path,
                                                               tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--config", str(scenario_path), "--out", str(out),
                        "--days", "1", "--periods", "1", "--demand", "1e300"]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: demand_per_hub_per_hour must give at most ")
        assert stderr.endswith("got 8.33333e+298\n") and stderr.count("\n") == 1
        assert not out.exists()

    def test_lone_hub_is_one_error_line(self, tmp_path, capsys):
        # The desk scenario with its first hub alone: no flight has anywhere
        # to go.
        desk = load_scenario(DESK)
        lone = dataclasses.replace(desk.grid, vertiports=desk.grid.vertiports[:1])
        path = tmp_path / "lone.yaml"
        save_scenario(path, dataclasses.replace(desk, grid=lone))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--config", str(path), "--out", str(out),
                        "--days", "1", "--periods", "2"]) == 2
        assert capsys.readouterr() == ("", "error: hub r0018 has no other vertiport to fly to\n")
        assert not out.exists()

    def test_duplicate_capacity_override_is_one_error_line(self, scenario_path, tmp_path,
                                                           capsys):
        text = scenario_path.read_text(encoding="utf-8")
        assert text.count("capacity_overrides: []") == 1
        scenario_path.write_text(text.replace(
            "capacity_overrides: []", "capacity_overrides: [[r0001, 2, 0], [r0001, 2, 5]]"),
            encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli(["simulate", "--config", str(scenario_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: two capacity overrides for (r0001, t=2)\n")
        assert not out.exists()

    def test_invalid_scenario_file_exits_2_without_a_traceback(self, scenario_path,
                                                              tmp_path):
        with scenario_path.open("a", encoding="utf-8") as handle:
            handle.write("bogus: 1\n")
        done = run_python("-m", "faircoplan", "simulate", "--config", str(scenario_path),
                          "--out", str(tmp_path / "run"))
        assert done.returncode == 2
        assert done.stderr == "error: unknown scenario keys: bogus\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_missing_scenario_file_is_one_error_line(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.yaml"
        out = tmp_path / "run"
        assert run_cli([command, "--config", str(missing), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.endswith(f"'{missing}'\n")
        assert stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["yaml", "directory", "utf8"])
    def test_unreadable_scenario_file_is_one_error_line(self, tmp_path, capsys, bad):
        config = tmp_path / "bad.yaml"
        if bad == "yaml":
            config.write_text("a: [1, 2\n", encoding="utf-8")
        elif bad == "utf8":
            config.write_bytes(b"\xff\xfe\x00")
        else:
            config.mkdir()
        out = tmp_path / "run"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: ") and str(config) in stderr
        assert stderr.count("\n") == 1
        if bad == "yaml":
            assert stderr == (f"error: {config}, line 2: not valid YAML: expected ',' or ']', "
                              "but got '<stream end>'\n")
        elif bad == "utf8":
            assert stderr == f"error: {config}: not UTF-8 text (byte 0: invalid start byte)\n"
        assert not out.exists()

    def test_out_naming_a_file_fails_before_the_campaign(self, scenario_path, tmp_path,
                                                        capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("keep\n", encoding="utf-8")
        monkeypatch.setattr(cli, "run_campaign", lambda *args: pytest.fail("campaign ran"))
        assert run_cli(["simulate", "--config", str(scenario_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --out {out} is a file, not a directory\n")
        assert out.read_text(encoding="utf-8") == "keep\n"


class TestReport:
    @pytest.fixture()
    def campaign_dir(self, scenario_path, tmp_path):
        out = tmp_path / "run"
        run_cli(["simulate", "--config", str(scenario_path),
                 "--out", str(out), "--mode", "tfmp"])
        return out

    def test_verifies_a_clean_directory(self, campaign_dir, capsys):
        assert run_cli(["report", "--out", str(campaign_dir)]) == 0
        assert "stored summary verified" in capsys.readouterr().out

    def test_flags_a_doctored_summary(self, campaign_dir, capsys):
        summary_path = campaign_dir / "summary.json"
        doctored = json.loads(summary_path.read_text())
        doctored["modes"]["tfmp"]["served"] += 1
        summary_path.write_text(json.dumps(doctored))
        assert run_cli(["report", "--out", str(campaign_dir)]) == 2
        assert "MISMATCH" in capsys.readouterr().err

    def test_recomputes_without_a_stored_summary(self, campaign_dir, capsys):
        (campaign_dir / "summary.json").unlink()
        assert run_cli(["report", "--out", str(campaign_dir)]) == 0
        stdout = capsys.readouterr().out
        assert '"modes"' in stdout

    def test_truncated_records_name_the_file_and_line(self, campaign_dir, capsys):
        periods = campaign_dir / "tfmp" / "periods.jsonl"
        lines = periods.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        periods.write_text(lines[0] + "\n" + lines[1][:-7], encoding="utf-8")
        assert run_cli(["report", "--out", str(campaign_dir)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"error: {periods}, line 2: not valid JSON: ")
        assert stderr.count("\n") == 1

    def test_summary_that_is_not_json_names_the_file_and_line(self, campaign_dir, capsys):
        summary = campaign_dir / "summary.json"
        summary.write_text("x", encoding="utf-8")
        assert run_cli(["report", "--out", str(campaign_dir)]) == 2
        stderr = capsys.readouterr().err
        assert stderr == f"error: {summary}, line 1: not valid JSON: Expecting value\n"

    def test_records_that_are_not_utf8_name_the_file_and_byte(self, campaign_dir, capsys):
        periods = campaign_dir / "tfmp" / "periods.jsonl"
        first = periods.read_bytes().split(b"\n")[0] + b"\n"
        periods.write_bytes(first + b"\xff\n")
        assert run_cli(["report", "--out", str(campaign_dir)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {periods}: not UTF-8 text (byte {len(first)}: invalid start byte)\n")

    def test_summary_that_is_not_utf8_names_the_file(self, campaign_dir, capsys):
        summary = campaign_dir / "summary.json"
        summary.write_bytes(b"\xff")
        assert run_cli(["report", "--out", str(campaign_dir)]) == 2
        assert capsys.readouterr().err == \
            f"error: {summary}: not UTF-8 text (byte 0: invalid start byte)\n"

    def test_out_naming_a_file_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        out.write_text("{}", encoding="utf-8")
        assert run_cli(["report", "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: ") and str(out) in stderr
        assert stderr.count("\n") == 1

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        assert run_cli(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "periods.jsonl" in err
        assert err.count("\n") == 1


class TestOracleCheck:
    def test_catalog_prefix_passes(self, capsys):
        assert run_cli(["oracle-check", "--cases", "3"]) == 0
        stdout = capsys.readouterr().out
        assert "3 instances checked, 0 failing case(s)" in stdout
        assert "PASS" in stdout and "FAIL" not in stdout

    def test_defaults_are_the_selfchecks(self, monkeypatch, capsys):
        # The CLI states neither default itself: it reads selfcheck's.
        calls = []
        monkeypatch.setattr(cli, "run_selfcheck", lambda *args: calls.append(args) or ([], []))
        assert run_cli(["oracle-check"]) == 0
        assert calls == [(selfcheck.CASES, selfcheck.SEED)]

    def test_zero_cases_is_an_error(self, capsys):
        assert run_cli(["oracle-check", "--cases", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --cases must be >= 1\n"

    def test_negative_seed_is_an_error(self, capsys):
        # Case 36 is the first random instance past the 35-case catalog,
        # and numpy rejects a negative seed.
        assert run_cli(["oracle-check", "--cases", "36", "--seed", "-5"]) == 2
        out = capsys.readouterr()
        assert out.err == "error: --seed must be >= 0\n" and out.out == ""

    def test_random_tail_beyond_the_catalog(self, capsys):
        # More cases than the catalog provides: the rest are generated.
        from faircoplan.selfcheck import build_catalog
        n = len(build_catalog()) + 2
        assert run_cli(["oracle-check", "--cases", str(n),
                        "--seed", "5"]) == 0
        assert f"{n} instances checked" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli_without_warnings(self):
        done = run_python("-W", "error::RuntimeWarning", "-m", "faircoplan",
                          "oracle-check", "--cases", "1")
        assert done.returncode == 0, done.stderr
        assert "1 instances checked, 0 failing case(s)" in done.stdout
        assert done.stderr == ""


class TestParser:
    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["optimize-everything"])
