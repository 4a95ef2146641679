"""ServerConfig: defaults, validation, environment and CLI construction."""

from __future__ import annotations

import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.errors import ServerError
from repro.obs import ObsConfig
from repro.server import ServerConfig

API_MD = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-serve")
    ServerConfig.add_cli_arguments(parser)
    return parser


class TestDefaultsAndValidation:
    def test_defaults_are_sane(self):
        config = ServerConfig()
        assert config.host == "127.0.0.1"
        assert config.coalesce_window > 0
        assert config.max_in_flight >= 1
        assert config.dataset_quota is None
        assert config.class_quota is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70000},
            {"coalesce_window": -0.1},
            {"coalesce_max_batch": 0},
            {"max_in_flight": 0},
            {"queue_limit": -1},
            {"dataset_quota": 0},
            {"class_quota": 0},
            {"retry_after": -1.0},
            {"max_body_bytes": 0},
            {"drain_timeout": -1.0},
            {"handler_workers": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ServerError):
            ServerConfig(**kwargs)

    def test_removed_group_commit_knobs_are_rejected(self):
        with pytest.raises(TypeError):
            ServerConfig(group_commit=True)
        with pytest.raises(TypeError):
            ServerConfig(max_group_delay=0.01)

    def test_as_dict_round_trips_every_field(self):
        config = ServerConfig(port=0, dataset_quota=3)
        payload = config.as_dict()
        assert ServerConfig(**payload) == config


class TestFromEnv:
    def test_unset_environment_keeps_defaults(self):
        assert ServerConfig.from_env(env={}) == ServerConfig()

    def test_environment_overrides(self):
        env = {
            "REPRO_SERVER_PORT": "9321",
            "REPRO_SERVER_COALESCE_WINDOW": "0.02",
            "REPRO_SERVER_MAX_IN_FLIGHT": "3",
            "REPRO_SERVER_DATASET_QUOTA": "2",
            "REPRO_SERVER_CLASS_QUOTA": "none",
            "REPRO_SERVER_HOST": "0.0.0.0",
        }
        config = ServerConfig.from_env(env=env)
        assert config.port == 9321
        assert config.coalesce_window == pytest.approx(0.02)
        assert config.max_in_flight == 3
        assert config.dataset_quota == 2
        assert config.class_quota is None
        assert config.host == "0.0.0.0"

    def test_malformed_environment_value_names_the_variable(self):
        with pytest.raises(ServerError, match="REPRO_SERVER_PORT"):
            ServerConfig.from_env(env={"REPRO_SERVER_PORT": "not-a-port"})

    def test_empty_value_falls_back_to_default(self):
        config = ServerConfig.from_env(env={"REPRO_SERVER_PORT": ""})
        assert config.port == ServerConfig().port


class TestFromArgs:
    def _parse(self, argv: list[str]) -> ServerConfig:
        return ServerConfig.from_args(_parser().parse_args(argv))

    def test_no_flags_matches_defaults(self):
        assert self._parse([]) == ServerConfig()

    def test_flags_override(self):
        config = self._parse([
            "--port", "0",
            "--coalesce-window-ms", "25",
            "--max-in-flight", "2",
            "--queue-limit", "0",
            "--dataset-quota", "1",
            "--retry-after", "0.5",
        ])
        assert config.port == 0
        assert config.coalesce_window == pytest.approx(0.025)
        assert config.max_in_flight == 2
        assert config.queue_limit == 0
        assert config.dataset_quota == 1
        assert config.retry_after == pytest.approx(0.5)

    def test_window_zero_disables_coalescing(self):
        assert self._parse(["--coalesce-window-ms", "0"]).coalesce_window == 0.0

    @pytest.mark.parametrize("argv", [["--group-commit"],
                                      ["--max-group-delay", "0.01"]])
    def test_removed_group_commit_flags_are_argparse_errors(self, argv,
                                                            capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._parse(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDocumentedConfiguration:
    """docs/API.md's configuration table is the config classes, row for
    row: a knob added or removed without its row fails here."""

    def _rows(self) -> dict[str, str]:
        """``field -> env variable`` from the "### Configuration" table."""
        section = API_MD.read_text(encoding="utf-8").split(
            "### Configuration", 1)[1].split("\n### ", 1)[0]
        rows = re.findall(r"^\| `([a-z_.]+)` \| `([A-Z_]+)` \|", section,
                          flags=re.MULTILINE)
        assert len(rows) == len(dict(rows)), "a field is documented twice"
        return dict(rows)

    def test_table_rows_are_exactly_the_config_fields(self):
        expected = {
            spec.name: "REPRO_SERVER_" + spec.name.upper()
            for spec in fields(ServerConfig) if spec.name != "obs"
        }
        expected.update({
            "obs." + spec.name: "REPRO_OBS_" + spec.name.upper()
            for spec in fields(ObsConfig)
        })
        assert self._rows() == expected

    def test_every_documented_field_has_a_cli_flag(self):
        flags = [option for action in _parser()._actions
                 for option in action.option_strings]
        for name in self._rows():
            flag = "--" + name.replace(".", "-").replace("_", "-")
            # --coalesce-window-ms carries its unit in the flag.
            assert any(option in (flag, flag + "-ms") for option in flags), name
