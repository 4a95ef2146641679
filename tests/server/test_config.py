"""The knob surface: ServerConfig and ObsConfig, their environment and
CLI construction, the docs that list them, and who owns ObsConfig."""

from __future__ import annotations

import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.data.datasets import load_oecd
from repro.errors import ServerError
from repro.obs import ObsConfig
from repro.server import ReproClient, ReproServer, ServerConfig, serving
from repro.server.__main__ import build_parser, build_replica_workspace
from repro.service import InsightRequest, Workspace

DOCS = Path(__file__).resolve().parents[2] / "docs"
API_MD = DOCS / "API.md"
OBSERVABILITY_MD = DOCS / "OBSERVABILITY.md"

#: ``repro-serve``'s option strings, in order, as they were when every
#: flag was still written by hand: the derived parser must keep each.
PINNED_OPTIONS = [
    "-h", "--help", "--host", "--port", "--coalesce-window-ms",
    "--coalesce-max-batch", "--max-in-flight", "--queue-limit",
    "--dataset-quota", "--class-quota", "--write-quota", "--read-timeout",
    "--retry-after", "--max-body-bytes", "--drain-timeout",
    "--handler-workers", "--data-dir", "--replica-of",
    "--replica-poll-interval", "--promote-after", "--obs-enabled",
    "--obs-ring-capacity", "--obs-slow-ms", "--obs-resources-enabled",
    "--obs-cost-window", "--obs-debug-top-k", "--obs-loop-lag-ms",
    "--obs-rebuild-deadline-s", "--obs-lock-wait-ms", "--datasets",
    "--preload",
]

#: Every knob of both classes, as ``(class, field)``.
KNOBS = [(cls, spec) for cls in (ServerConfig, ObsConfig)
         for spec in fields(cls)]


def _knob_id(knob) -> str:
    cls, spec = knob
    return f"{cls.__name__}.{spec.name}"


def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _sample(cls, spec):
    """A valid value of the knob other than its default."""
    default = spec.default
    if isinstance(default, bool):
        return not default
    if spec.name == "replica_of":
        return "http://127.0.0.1:9"
    if spec.name in ("host", "data_dir"):
        return "somewhere"
    if default is None:
        return 3
    return default + (1 if isinstance(default, int) else 0.5)


def _spelled(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _flag(cls, spec) -> tuple[str, float]:
    """The knob's option string and the factor its flag value carries."""
    flag = cls.flag_prefix + spec.name.replace("_", "-")
    return (flag + "-ms", 1000.0) if spec.metadata["cli_ms"] else (flag, 1.0)


def _env(cls, spec) -> str:
    return cls.env_prefix + spec.name.upper()


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
            for spec in fields(ServerConfig)
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

    def test_table_defaults_are_the_declared_defaults(self):
        section = API_MD.read_text(encoding="utf-8").split(
            "### Configuration", 1)[1].split("\n### ", 1)[0]
        rows = dict(re.findall(r"^\| `([a-z_.]+)` \| `[A-Z_]+` \| ([^|]+) \|",
                               section, flags=re.MULTILINE))
        for cls, spec in KNOBS:
            name = ("obs." if cls is ObsConfig else "") + spec.name
            cell = rows[name].strip()
            if spec.default is None:
                # An unset knob is described in words, never as a value.
                assert not cell.startswith("`"), name
            else:
                assert cell == f"`{_spelled(spec.default)}`", name

    def test_observability_md_table_is_the_obs_config(self):
        section = OBSERVABILITY_MD.read_text(encoding="utf-8").split(
            "## Configuration", 1)[1].split("\n## ", 1)[0]
        documented = [tuple(cell.strip() for cell in line.strip("|").split("|"))
                      for line in section.splitlines()
                      if line.startswith("| `")]
        actions = {action.option_strings[0]: action
                   for action in _parser()._actions if action.option_strings}
        expected = []
        for spec in fields(ObsConfig):
            flag, _scale = _flag(ObsConfig, spec)
            expected.append((
                f"`{spec.name}`", f"`{_env(ObsConfig, spec)}`",
                f"`{flag} {actions[flag].metavar}`",
                f"`{_spelled(spec.default)}`"))
        assert [row[:3] + (row[3].split()[0],) for row in documented] == expected


class TestDerivedSurface:
    """Every knob of both classes gets the same env, CLI and checks."""

    def test_parser_keeps_every_option_string(self):
        assert [option for action in _parser()._actions
                for option in action.option_strings] == PINNED_OPTIONS

    @pytest.mark.parametrize("knob", KNOBS, ids=_knob_id)
    def test_env_round_trip(self, knob):
        cls, spec = knob
        value = _sample(cls, spec)
        config = cls.from_env({_env(cls, spec): _spelled(value)})
        assert config == cls(**{spec.name: value})

    @pytest.mark.parametrize("knob", KNOBS, ids=_knob_id)
    def test_cli_round_trip(self, knob, monkeypatch):
        cls, spec = knob
        monkeypatch.delenv(_env(cls, spec), raising=False)
        value = _sample(cls, spec)
        flag, scale = _flag(cls, spec)
        args = _parser().parse_args(
            [flag, _spelled(value * scale if scale != 1.0 else value)])
        assert cls.from_args(args) == cls(**{spec.name: value})

    @pytest.mark.parametrize(
        "knob", [knob for knob in KNOBS if knob[1].type not in ("str", "str | None")],
        ids=_knob_id)
    def test_malformed_env_value_names_its_variable(self, knob):
        cls, spec = knob
        with pytest.raises(cls.error, match=_env(cls, spec)):
            cls.from_env({_env(cls, spec): "abc"})

    @pytest.mark.parametrize(
        "knob", [knob for knob in KNOBS
                 if any(knob[1].metadata[key] is not None
                        for key in ("ge", "gt"))],
        ids=_knob_id)
    def test_out_of_bound_value_names_its_field(self, knob):
        cls, spec = knob
        meta = spec.metadata
        low = meta["ge"] - 1 if meta["ge"] is not None else meta["gt"]
        with pytest.raises(cls.error, match=f"^{spec.name} must be"):
            cls(**{spec.name: low})
        if meta["le"] is not None:
            with pytest.raises(cls.error, match=f"^{spec.name} must be"):
                cls(**{spec.name: meta["le"] + 1})

    def test_cli_none_lifts_an_env_quota(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER_DATASET_QUOTA", "2")
        assert ServerConfig.from_args(
            _parser().parse_args([])).dataset_quota == 2
        args = _parser().parse_args(["--dataset-quota", "none"])
        assert ServerConfig.from_args(args).dataset_quota is None

    def test_bad_flag_value_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _parser().parse_args(["--obs-enabled", "maybe"])
        assert excinfo.value.code == 2
        assert "--obs-enabled" in capsys.readouterr().err


class TestOneOwner:
    """ObsConfig belongs to the workspace; the server reads it there."""

    def test_server_loop_lag_threshold_is_the_workspace_s(self):
        workspace = Workspace(obs=ObsConfig(loop_lag_ms=5))
        server = ReproServer(workspace, ServerConfig())
        assert server.loop_lag.threshold_ms == 5.0

    def test_served_workspace_config_is_echoed_and_applied(self):
        obs = ObsConfig(debug_top_k=1, ring_capacity=8)
        workspace = Workspace(obs=obs)
        workspace.register("oecd", load_oecd)
        with serving(workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                for name in ("skew", "outliers", "dispersion"):
                    client.insights(InsightRequest(dataset="oecd",
                                                   insight_classes=name))
                assert client.healthz()["config"]["obs"] == obs.as_dict()
                debug = client.debug()
                assert len(debug["costs"]["top_requests"]) == 1
                assert client.traces()["tracing"]["ring_capacity"] == 8

    def test_resources_disabled_is_applied_in_full(self):
        workspace = Workspace(obs=ObsConfig(resources_enabled=False))
        workspace.register("oecd", load_oecd)
        with serving(workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(InsightRequest(dataset="oecd",
                                               insight_classes="skew"))
                health = client.healthz()
                debug = client.debug()
        assert health["config"]["obs"]["resources_enabled"] is False
        assert debug["resources_enabled"] is False
        assert debug["costs"]["requests_total"] == 0

    def test_repro_serve_hands_its_obs_config_to_a_replica(self):
        args = _parser().parse_args([
            "--replica-of", "http://127.0.0.1:9", "--obs-ring-capacity", "7",
            "--obs-debug-top-k", "2", "--replica-poll-interval", "30",
        ])
        workspace = build_replica_workspace(ServerConfig.from_args(args),
                                            ObsConfig.from_args(args))
        try:
            assert workspace.obs_config == ObsConfig(ring_capacity=7,
                                                     debug_top_k=2)
            assert workspace.tracer.ring_capacity == 7
        finally:
            workspace.close()

    def test_server_config_has_no_obs_knobs(self):
        assert "obs" not in {spec.name for spec in fields(ServerConfig)}
        with pytest.raises(TypeError):
            ServerConfig(obs=ObsConfig())
