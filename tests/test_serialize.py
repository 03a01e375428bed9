"""Scenario files and campaign artifacts: round-trips and byte stability."""
from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from faircoplan.airspace import ConfigError
from faircoplan.serialize import (
    DAY_COLUMNS,
    load_scenario,
    read_campaign_records,
    read_records,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_campaign,
    write_days_csv,
    write_records,
    write_timing_csv,
)
from faircoplan.sim import run_campaign

from helpers import make_grid

from test_sim import corridor_config


class TestScenarioRoundTrip:
    def test_dict_round_trip_is_identity(self):
        config = corridor_config()
        assert scenario_from_dict(scenario_to_dict(config)) == config

    def test_yaml_round_trip_is_identity(self, tmp_path):
        config = corridor_config()
        path = tmp_path / "scenario.yaml"
        save_scenario(path, config)
        assert load_scenario(path) == config

    def test_overrides_survive_the_round_trip(self, tmp_path):
        grid = make_grid(1, 3, ((0, 0), (0, 2)),
                         overrides=(("r0001", 2, 0),))
        config = corridor_config(grid=grid.config)
        path = tmp_path / "scenario.yaml"
        save_scenario(path, config)
        loaded = load_scenario(path)
        assert loaded.grid.capacity_overrides == (("r0001", 2, 0),)

    def test_save_is_byte_deterministic(self, tmp_path):
        config = corridor_config()
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_scenario(a, config)
        save_scenario(b, config)
        assert a.read_bytes() == b.read_bytes()


# (path to the mapping, key, value of the wrong type, start of the error).
WRONG_TYPES = [
    ((), "days", 2.5, "scenario key days must be an integer"),
    ((), "seed", 4.7, "scenario key seed must be an integer"),
    ((), "periods_per_day", True, "scenario key periods_per_day must be an integer"),
    ((), "gamma", "1", "scenario key gamma must be a number"),
    ((), "alpha", False, "scenario key alpha must be a number"),
    ((), "name", 7, "scenario key name must be a string"),
    (("grid",), "rows", "8", "grid key rows must be an integer"),
    (("grid",), "connectivity", None, "grid key connectivity must be a string"),
    (("grid",), "capacity_overrides", [["r0001", 3, 2.5]],
     "grid key capacity_overrides needs"),
    (("grid",), "capacity_overrides", [[1, 3, 2]], "grid key capacity_overrides needs"),
    (("grid",), "capacity_overrides", [["r0001", 3]], "grid key capacity_overrides needs"),
    (("grid",), "vertiports", 2, "grid key vertiports must be a list, got 2"),
    (("grid",), "capacity_overrides", 5, "grid key capacity_overrides must be a list, got 5"),
    (("grid", "vertiports", 0), "ops_capacity", 2.0,
     "vertiport key ops_capacity must be an integer"),
    (("grid", "vertiports", 0), "kind", ["hub"], "vertiport key kind must be a string"),
]


class TestStrictKeys:
    def test_unknown_scenario_key(self):
        data = scenario_to_dict(corridor_config())
        data["wind_model"] = "none"
        with pytest.raises(ConfigError, match="unknown scenario keys: wind_model"):
            scenario_from_dict(data)

    def test_missing_required_key(self):
        data = scenario_to_dict(corridor_config())
        del data["demand_per_hub_per_hour"]
        with pytest.raises(ConfigError, match="missing scenario keys"):
            scenario_from_dict(data)

    def test_unknown_grid_key(self):
        data = scenario_to_dict(corridor_config())
        data["grid"]["altitude_layers"] = 3
        with pytest.raises(ConfigError, match="unknown grid keys"):
            scenario_from_dict(data)

    def test_retired_cell_size_key_rejected(self):
        data = scenario_to_dict(corridor_config())
        data["grid"]["cell_size_km"] = 4.0
        with pytest.raises(ConfigError, match="unknown grid keys: cell_size_km"):
            scenario_from_dict(data)

    def test_vertiport_keys_are_exact(self):
        data = scenario_to_dict(corridor_config())
        del data["grid"]["vertiports"][0]["kind"]
        with pytest.raises(ConfigError, match="missing vertiport keys"):
            scenario_from_dict(data)

    def test_schema_version_is_checked(self):
        data = scenario_to_dict(corridor_config())
        data["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("where, key, value, message", WRONG_TYPES,
                             ids=[f"{key}={value!r}" for _, key, value, _ in WRONG_TYPES])
    def test_value_of_the_wrong_type_names_its_key(self, where, key, value, message):
        data = scenario_to_dict(corridor_config())
        target = data
        for step in where:
            target = target[step]
        target[key] = value
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict(data)

    def test_a_number_field_takes_an_integer(self):
        data = scenario_to_dict(corridor_config())
        data["gamma"] = 2
        data["demand_per_hub_per_hour"] = 6
        config = scenario_from_dict(data)
        assert (config.gamma, config.demand_per_hub_per_hour) == (2, 6)

    @pytest.mark.parametrize("name", ["desk8x8", "full15x15"])
    def test_shipped_configs_load(self, name):
        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml"
        assert load_scenario(path).name == name

    def test_scenario_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            scenario_from_dict(["not", "a", "mapping"])

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_scenario(empty)


class TestRecords:
    def test_jsonl_round_trip(self, tmp_path):
        rows = [{"b": 1, "a": [1, 2]}, {"a": None, "b": {"x": 0.5}}]
        path = tmp_path / "periods.jsonl"
        write_records(path, rows)
        assert read_records(path) == rows

    def test_lines_have_sorted_keys(self, tmp_path):
        path = tmp_path / "periods.jsonl"
        write_records(path, [{"b": 1, "a": 2}])
        assert path.read_text() == '{"a": 2, "b": 1}\n'

    def test_days_csv_renders_none_as_empty(self, tmp_path):
        row = {col: None for col in DAY_COLUMNS}
        row.update(mode="tfmp", day=0, served=0)
        path = tmp_path / "days.csv"
        write_days_csv(path, [row])
        header, line = path.read_text().strip().splitlines()
        assert header == ",".join(DAY_COLUMNS)
        assert line == "tfmp,0,0,,,,,,,"

    def test_timing_csv_collects_stage_columns(self, tmp_path):
        rows = [
            {"mode": "tfmp", "day": 0, "period": 0, "tfmp": 0.1,
             "step2_max": 0.0},
            {"mode": "coplan", "day": 0, "period": 0, "step1": 0.2,
             "step2_max": 0.1},
        ]
        path = tmp_path / "timing.csv"
        write_timing_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "mode,day,period,step1,step2_max,tfmp"


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    config = corridor_config(periods_per_day=2)
    campaign = run_campaign(config, modes=("tfmp", "coplan"))
    out = tmp_path_factory.mktemp("campaign")
    write_campaign(out, campaign)
    return config, campaign, out


class TestCampaignArtifacts:
    def test_layout(self, outcome):
        _, _, out = outcome
        assert (out / "scenario.yaml").exists()
        assert (out / "summary.json").exists()
        assert (out / "days.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "tfmp" / "periods.jsonl").exists()
        assert (out / "coplan" / "periods.jsonl").exists()

    def test_scenario_file_reloads_to_the_same_config(self, outcome):
        config, _, out = outcome
        assert load_scenario(out / "scenario.yaml") == config

    def test_records_reload_losslessly(self, outcome):
        _, campaign, out = outcome
        assert read_campaign_records(out) == campaign.records()

    def test_reruns_are_byte_identical_outside_timing(self, outcome, tmp_path):
        config, _, first = outcome
        again = run_campaign(config, modes=("tfmp", "coplan"))
        second = tmp_path / "again"
        write_campaign(second, again)
        names = ["scenario.yaml", "summary.json", "days.csv",
                 "tfmp/periods.jsonl", "coplan/periods.jsonl"]
        for name in names:
            assert (first / name).read_bytes() == (
                second / name).read_bytes(), name

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="periods.jsonl"):
            read_campaign_records(tmp_path)

    def test_summary_json_is_valid_yaml_safe_json(self, outcome):
        _, campaign, out = outcome
        loaded = yaml.safe_load((out / "summary.json").read_text())
        assert loaded == campaign.summary()
