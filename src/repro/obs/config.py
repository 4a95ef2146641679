"""Observability configuration: the ``REPRO_OBS_*`` knob surface.

:class:`ObsConfig` has one owner, the :class:`~repro.service.Workspace`
(``Workspace(obs=...)``), which builds its tracer, cost windows and
watchdogs from it; the HTTP server reads the served workspace's
``obs_config``.  Every field is a :func:`~repro.knobs.knob`, so it
reads from ``REPRO_OBS_<FIELD>`` and has an ``--obs-*`` flag in the
"observability" argument group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.knobs import Knobs, knob


@dataclass(frozen=True)
class ObsConfig(Knobs):
    """Tracing + event-log settings (on by default).

    ``enabled`` off turns every tracer call into a no-op (the <3%
    budget becomes ~0%); ``resources_enabled`` off removes the cost
    recorder from the hot path entirely.  Each field's help text is its
    documentation; invalid values raise :class:`ValueError`.
    """

    env_prefix = "REPRO_OBS_"
    flag_prefix = "--obs-"
    cli_group = "observability"

    enabled: bool = knob(True, "record request traces")
    ring_capacity: int = knob(
        256, "completed traces kept for /v1/traces", ge=1)
    slow_ms: float = knob(
        500.0, "root spans at least this slow (ms) emit a slow_request "
        "event", ge=0)
    resources_enabled: bool = knob(
        True, "per-request cost attribution and the memory ledger "
        "(the /v1/debug surface)")
    cost_window: int = knob(
        256, "requests retained per rolling cost window", ge=1)
    debug_top_k: int = knob(
        10, "most-expensive recent requests listed by /v1/debug", ge=0)
    loop_lag_ms: float = knob(
        100.0, "event-loop lag watchdog threshold in ms; 0 samples "
        "without ever tripping", ge=0)
    rebuild_deadline_s: float = knob(
        30.0, "background-rebuild stall deadline in seconds; 0 disables",
        ge=0)
    lock_wait_ms: float = knob(
        0.0, "lock-wait watchdog threshold in ms; 0 leaves every lock a "
        "plain one", ge=0)


__all__ = ["ObsConfig"]
