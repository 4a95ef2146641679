"""Observability configuration: the ``REPRO_OBS_*`` knob surface.

:class:`ObsConfig` rides on both :class:`~repro.service.Workspace`
(which owns the tracer) and :class:`~repro.server.ServerConfig` (which
applies it to the served workspace), mirroring the server config's
env/CLI conventions: every field reads from ``REPRO_OBS_<FIELD>`` and
has a ``--obs-*`` flag.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from typing import Any, Mapping

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _parse_bool(name: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(f"{name}: expected a boolean, got {raw!r}")


@dataclass(frozen=True)
class ObsConfig:
    """Tracing + event-log settings (on by default).

    ``enabled``       — record spans at all; off turns every tracer call
                        into a no-op (the <3% budget becomes ~0%).
    ``ring_capacity`` — completed root traces kept for ``/v1/traces``.
    ``slow_ms``       — root spans at least this slow emit a
                        ``slow_request`` event through the
                        ``repro.obs.events`` logger.
    ``resources_enabled`` — per-request cost attribution and the memory
                        ledger (the ``/v1/debug`` surface); off removes
                        the recorder from the hot path entirely.
    ``cost_window``   — requests retained per rolling cost window (and
                        in the recent ring behind the top-K listing).
    ``debug_top_k``   — most-expensive recent requests ``/v1/debug``
                        lists.
    ``loop_lag_ms``   — event-loop lag threshold for the server's
                        ``event_loop_lag`` watchdog event; 0 samples
                        without ever tripping.
    ``rebuild_deadline_s`` — background rebuilds slower than this emit a
                        ``rebuild_stall`` event; 0 disables the
                        detector.
    ``lock_wait_ms``  — blocking lock acquisitions that waited at least
                        this long emit a ``lock_wait`` event; 0 (the
                        default) leaves every lock a plain one.
    """

    enabled: bool = True
    ring_capacity: int = 256
    slow_ms: float = 500.0
    resources_enabled: bool = True
    cost_window: int = 256
    debug_top_k: int = 10
    loop_lag_ms: float = 100.0
    rebuild_deadline_s: float = 30.0
    lock_wait_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {self.ring_capacity}"
            )
        if self.slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {self.slow_ms}")
        if self.cost_window < 1:
            raise ValueError(
                f"cost_window must be >= 1, got {self.cost_window}"
            )
        if self.debug_top_k < 0:
            raise ValueError(
                f"debug_top_k must be >= 0, got {self.debug_top_k}"
            )
        for name in ("loop_lag_ms", "rebuild_deadline_s", "lock_wait_ms"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )

    # ------------------------------------------------------------------
    # Environment / CLI
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ObsConfig":
        if env is None:
            import os

            env = os.environ
        values: dict[str, Any] = {}
        for spec in fields(cls):
            key = f"REPRO_OBS_{spec.name.upper()}"
            raw = env.get(key)
            if raw is None or raw == "":
                continue
            if spec.name in ("enabled", "resources_enabled"):
                values[spec.name] = _parse_bool(key, raw)
            elif spec.name in ("ring_capacity", "cost_window", "debug_top_k"):
                values[spec.name] = int(raw)
            else:
                values[spec.name] = float(raw)
        return cls(**values)

    @classmethod
    def add_cli_arguments(cls, parser: argparse.ArgumentParser,
                          base: "ObsConfig | None" = None) -> None:
        """Register ``--obs-*`` flags, defaulting from ``base`` (or env)."""
        if base is None:
            base = cls.from_env()
        group = parser.add_argument_group("observability")
        group.add_argument(
            "--obs-enabled", dest="obs_enabled", metavar="BOOL",
            default=base.enabled, type=lambda raw: _parse_bool("--obs-enabled", raw),
            help=f"record request traces (default: {base.enabled})",
        )
        group.add_argument(
            "--obs-ring-capacity", dest="obs_ring_capacity", type=int,
            default=base.ring_capacity, metavar="N",
            help=f"completed traces kept for /v1/traces "
                 f"(default: {base.ring_capacity})",
        )
        group.add_argument(
            "--obs-slow-ms", dest="obs_slow_ms", type=float,
            default=base.slow_ms, metavar="MS",
            help=f"slow-request event threshold in ms "
                 f"(default: {base.slow_ms})",
        )
        group.add_argument(
            "--obs-resources-enabled", dest="obs_resources_enabled",
            metavar="BOOL", default=base.resources_enabled,
            type=lambda raw: _parse_bool("--obs-resources-enabled", raw),
            help=f"per-request cost attribution and the memory ledger "
                 f"(default: {base.resources_enabled})",
        )
        group.add_argument(
            "--obs-cost-window", dest="obs_cost_window", type=int,
            default=base.cost_window, metavar="N",
            help=f"requests retained per rolling cost window "
                 f"(default: {base.cost_window})",
        )
        group.add_argument(
            "--obs-debug-top-k", dest="obs_debug_top_k", type=int,
            default=base.debug_top_k, metavar="K",
            help=f"most-expensive recent requests listed by /v1/debug "
                 f"(default: {base.debug_top_k})",
        )
        group.add_argument(
            "--obs-loop-lag-ms", dest="obs_loop_lag_ms", type=float,
            default=base.loop_lag_ms, metavar="MS",
            help=f"event-loop lag watchdog threshold in ms "
                 f"(default: {base.loop_lag_ms})",
        )
        group.add_argument(
            "--obs-rebuild-deadline-s", dest="obs_rebuild_deadline_s",
            type=float, default=base.rebuild_deadline_s, metavar="S",
            help=f"background-rebuild stall deadline in seconds; 0 "
                 f"disables (default: {base.rebuild_deadline_s})",
        )
        group.add_argument(
            "--obs-lock-wait-ms", dest="obs_lock_wait_ms", type=float,
            default=base.lock_wait_ms, metavar="MS",
            help=f"lock-wait watchdog threshold in ms; 0 disables "
                 f"(default: {base.lock_wait_ms})",
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ObsConfig":
        return cls(
            enabled=args.obs_enabled,
            ring_capacity=args.obs_ring_capacity,
            slow_ms=args.obs_slow_ms,
            resources_enabled=args.obs_resources_enabled,
            cost_window=args.obs_cost_window,
            debug_top_k=args.obs_debug_top_k,
            loop_lag_ms=args.obs_loop_lag_ms,
            rebuild_deadline_s=args.obs_rebuild_deadline_s,
            lock_wait_ms=args.obs_lock_wait_ms,
        )

    def as_dict(self) -> dict[str, Any]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


__all__ = ["ObsConfig"]
