"""Server configuration: one frozen dataclass, filled from env or CLI.

Every knob of the HTTP transport lives on :class:`ServerConfig` —
bind address, the coalescing window, admission-control limits, drain
behavior — with three construction paths that tests, the ``repro-serve``
CLI and embedding code share:

* :meth:`ServerConfig` directly (tests, embedding);
* :meth:`ServerConfig.from_env` — every field reads a
  ``REPRO_SERVER_*`` environment variable, falling back to the default;
* :meth:`ServerConfig.add_cli_arguments` + :meth:`ServerConfig.from_args`
  — argparse flags for ``repro-serve``, defaulting to the environment so
  ``REPRO_SERVER_PORT=9000 repro-serve`` and ``repro-serve --port 9000``
  mean the same thing.

Durations are seconds everywhere internally; the CLI exposes the
coalescing window in milliseconds (``--coalesce-window-ms``) because
that is the natural magnitude for a micro-batching window.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.errors import ServerError
from repro.obs.config import ObsConfig

#: Prefix shared by every configuration environment variable.
ENV_PREFIX = "REPRO_SERVER_"


def _env_name(field_name: str) -> str:
    return ENV_PREFIX + field_name.upper()


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for the asyncio HTTP transport.

    Parameters
    ----------
    host / port:
        Bind address.  Port 0 asks the OS for a free ephemeral port
        (the bound address is reported by ``ReproServer.address``).
    coalesce_window:
        The longest a miss waits for riders while the server is busy (a
        coalesced dispatch running or a write request in flight) before
        its batch dispatches as one ``Workspace.handle_many`` call.  On
        an idle server a miss dispatches on the next loop tick, with
        whatever arrived in that tick.  0 disables coalescing (every
        request dispatches directly).
    coalesce_max_batch:
        Flush the pending batch immediately once it reaches this size,
        without waiting out the window.
    max_in_flight:
        Requests executing concurrently; arrivals beyond it queue.
    queue_limit:
        Bounded admission queue.  An arrival finding the queue full is
        rejected with 503 and ``Retry-After``.
    dataset_quota:
        Max concurrent in-flight requests per dataset (None = unlimited).
        Exceeding it rejects with 429.
    class_quota:
        Max concurrent in-flight requests touching one insight class
        (None = unlimited).  Exceeding it rejects with 429.
    write_quota:
        Max concurrent in-flight *write* requests (appends,
        registrations, reloads) per dataset (None = unlimited).
        Exceeding it rejects with 429.
    read_timeout:
        Seconds a connection may take to deliver a complete request
        before the server answers 408 and closes it (a stalled client
        must not pin a connection slot).  Also bounds how long an idle
        keep-alive connection is held open.  0 disables the timeout.
    retry_after:
        Seconds advertised in the ``Retry-After`` header of 429/503
        responses.
    max_body_bytes:
        Request bodies above this are refused with 413.
    drain_timeout:
        Seconds graceful shutdown waits for in-flight requests before
        closing connections anyway.
    handler_workers:
        Threads executing blocking ``Workspace`` calls on behalf of the
        event loop.
    data_dir:
        Directory for the durable ingestion journal
        (``REPRO_SERVER_DATA_DIR`` / ``--data-dir``).  When set, every
        accepted append is journalled to disk before it is acknowledged
        and a restarted server replays the journal to the exact
        ``(version, seq)`` state; ``POST /v1/datasets/{name}/flush``
        forces a sync and shutdown drains flush the journal.  ``None``
        (the default) keeps ingestion in-memory only.
    obs:
        Tracing overrides (``REPRO_OBS_*`` / ``--obs-*``) applied to the
        served workspace's tracer at startup.  ``None`` — the default,
        and what env/CLI construction produces when nothing deviates
        from the :class:`~repro.obs.config.ObsConfig` defaults — leaves
        the workspace's own tracer configuration untouched (tracing is
        on by default there too).
    replica_of:
        ``http://host:port`` of a primary to replicate from
        (``REPRO_SERVER_REPLICA_OF`` / ``--replica-of``).  When set the
        server fronts a read-only
        :class:`~repro.service.replica.ReplicaWorkspace` that tails the
        primary's journal endpoint; writes answer 403 until the replica
        is promoted.  Mutually exclusive with ``data_dir`` — a replica's
        state *is* the primary's journal.
    replica_poll_interval:
        Seconds between the replica tailer's polls of the primary
        (only meaningful with ``replica_of``).
    promote_after:
        Auto-promote the replica to writable after the primary has been
        unreachable for this many seconds (0 — the default — never
        auto-promotes; use ``POST /v1/replica:promote``).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    coalesce_window: float = 0.005
    coalesce_max_batch: int = 16
    max_in_flight: int = 8
    queue_limit: int = 32
    dataset_quota: int | None = None
    class_quota: int | None = None
    write_quota: int | None = None
    read_timeout: float = 30.0
    retry_after: float = 1.0
    max_body_bytes: int = 1_048_576
    drain_timeout: float = 5.0
    handler_workers: int = 8
    data_dir: str | None = None
    obs: ObsConfig | None = None
    replica_of: str | None = None
    replica_poll_interval: float = 0.25
    promote_after: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.obs, dict):
            # as_dict() round-trip: the /healthz echo nests obs as a
            # plain dict, so accept one back.
            object.__setattr__(self, "obs", ObsConfig(**self.obs))
        if self.port < 0 or self.port > 65535:
            raise ServerError(f"port must be in [0, 65535], got {self.port}")
        if self.coalesce_window < 0:
            raise ServerError(
                f"coalesce_window must be >= 0, got {self.coalesce_window}"
            )
        if self.coalesce_max_batch < 1:
            raise ServerError(
                f"coalesce_max_batch must be >= 1, got {self.coalesce_max_batch}"
            )
        if self.max_in_flight < 1:
            raise ServerError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.queue_limit < 0:
            raise ServerError(f"queue_limit must be >= 0, got {self.queue_limit}")
        for name in ("dataset_quota", "class_quota", "write_quota"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServerError(f"{name} must be >= 1 or None, got {value}")
        if self.read_timeout < 0:
            raise ServerError(
                f"read_timeout must be >= 0, got {self.read_timeout}"
            )
        if self.retry_after < 0:
            raise ServerError(f"retry_after must be >= 0, got {self.retry_after}")
        if self.max_body_bytes < 1:
            raise ServerError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.drain_timeout < 0:
            raise ServerError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )
        if self.handler_workers < 1:
            raise ServerError(
                f"handler_workers must be >= 1, got {self.handler_workers}"
            )
        if self.replica_poll_interval <= 0:
            raise ServerError(
                "replica_poll_interval must be > 0, got "
                f"{self.replica_poll_interval}"
            )
        if self.promote_after < 0:
            raise ServerError(
                f"promote_after must be >= 0, got {self.promote_after}"
            )
        if self.replica_of is not None and self.data_dir is not None:
            raise ServerError(
                "replica_of and data_dir are mutually exclusive: a "
                "replica's state is the primary's journal, not its own"
            )

    # ------------------------------------------------------------------
    # Construction from the environment / CLI
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ServerConfig":
        """Build a config from ``REPRO_SERVER_*`` environment variables.

        Unset variables keep the field default; malformed values raise
        :class:`~repro.errors.ServerError` naming the variable, so a
        typo fails fast at startup rather than silently falling back.
        """
        env = os.environ if env is None else env
        values: dict[str, Any] = {}
        for spec in fields(cls):
            if spec.name == "obs":
                continue  # its own REPRO_OBS_* namespace, handled below
            raw = env.get(_env_name(spec.name))
            if raw is None or raw == "":
                continue
            values[spec.name] = _parse_field(spec.name, raw)
        try:
            obs = ObsConfig.from_env(env)
        except ValueError as exc:
            raise ServerError(str(exc)) from None
        if obs != ObsConfig():
            values["obs"] = obs
        return cls(**values)

    @staticmethod
    def add_cli_arguments(parser: argparse.ArgumentParser) -> None:
        """Attach the server flags to an argparse parser.

        Flag defaults come from :meth:`from_env`, so environment
        configuration applies unless a flag overrides it.
        """
        base = ServerConfig.from_env()
        parser.add_argument("--host", default=base.host,
                            help=f"bind address (default {base.host})")
        parser.add_argument("--port", type=int, default=base.port,
                            help=f"bind port, 0 = ephemeral (default {base.port})")
        parser.add_argument(
            "--coalesce-window-ms", type=float,
            default=base.coalesce_window * 1000.0,
            help="micro-batching window in milliseconds, 0 disables "
                 f"coalescing (default {base.coalesce_window * 1000.0:g})")
        parser.add_argument(
            "--coalesce-max-batch", type=int, default=base.coalesce_max_batch,
            help=f"flush a batch at this size (default {base.coalesce_max_batch})")
        parser.add_argument(
            "--max-in-flight", type=int, default=base.max_in_flight,
            help=f"concurrent request limit (default {base.max_in_flight})")
        parser.add_argument(
            "--queue-limit", type=int, default=base.queue_limit,
            help=f"bounded admission queue length (default {base.queue_limit})")
        parser.add_argument(
            "--dataset-quota", type=int, default=base.dataset_quota,
            help="max concurrent requests per dataset (default unlimited)")
        parser.add_argument(
            "--class-quota", type=int, default=base.class_quota,
            help="max concurrent requests per insight class "
                 "(default unlimited)")
        parser.add_argument(
            "--write-quota", type=int, default=base.write_quota,
            help="max concurrent write requests (appends/registrations/"
                 "reloads) per dataset (default unlimited)")
        parser.add_argument(
            "--read-timeout", type=float, default=base.read_timeout,
            help="seconds to receive a complete request before 408/close, "
                 f"0 disables (default {base.read_timeout:g})")
        parser.add_argument(
            "--retry-after", type=float, default=base.retry_after,
            help="Retry-After seconds on 429/503 "
                 f"(default {base.retry_after:g})")
        parser.add_argument(
            "--max-body-bytes", type=int, default=base.max_body_bytes,
            help=f"request body size limit (default {base.max_body_bytes})")
        parser.add_argument(
            "--drain-timeout", type=float, default=base.drain_timeout,
            help="seconds to wait for in-flight requests on shutdown "
                 f"(default {base.drain_timeout:g})")
        parser.add_argument(
            "--handler-workers", type=int, default=base.handler_workers,
            help="threads executing blocking workspace calls "
                 f"(default {base.handler_workers})")
        parser.add_argument(
            "--data-dir", default=base.data_dir, metavar="DIR",
            help="directory for the durable ingestion journal; appends "
                 "are journalled before acknowledgement and a restart "
                 "replays them (default: in-memory only)")
        parser.add_argument(
            "--replica-of", default=base.replica_of, metavar="URL",
            help="serve as a read replica tailing this primary "
                 "(http://host:port); writes answer 403 until promoted")
        parser.add_argument(
            "--replica-poll-interval", type=float,
            default=base.replica_poll_interval,
            help="seconds between replica polls of the primary "
                 f"(default {base.replica_poll_interval:g})")
        parser.add_argument(
            "--promote-after", type=float, default=base.promote_after,
            help="auto-promote the replica after the primary has been "
                 "unreachable this many seconds, 0 = never "
                 f"(default {base.promote_after:g})")
        ObsConfig.add_cli_arguments(parser, base=base.obs)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServerConfig":
        """Build a config from a parsed :meth:`add_cli_arguments` namespace."""
        obs = ObsConfig.from_args(args)
        return cls(
            host=args.host,
            port=args.port,
            coalesce_window=args.coalesce_window_ms / 1000.0,
            coalesce_max_batch=args.coalesce_max_batch,
            max_in_flight=args.max_in_flight,
            queue_limit=args.queue_limit,
            dataset_quota=args.dataset_quota,
            class_quota=args.class_quota,
            write_quota=args.write_quota,
            read_timeout=args.read_timeout,
            retry_after=args.retry_after,
            max_body_bytes=args.max_body_bytes,
            drain_timeout=args.drain_timeout,
            handler_workers=args.handler_workers,
            data_dir=args.data_dir,
            obs=obs if obs != ObsConfig() else None,
            replica_of=args.replica_of,
            replica_poll_interval=args.replica_poll_interval,
            promote_after=args.promote_after,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (surfaced by ``/healthz``)."""
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        if self.obs is not None:
            payload["obs"] = self.obs.as_dict()
        return payload


#: Fields parsed as optional ints ("" / unset = None, which _parse_field
#: reaches only via an explicit "none"/"null" spelling).
_OPTIONAL_INT_FIELDS = {"dataset_quota", "class_quota", "write_quota"}
_FLOAT_FIELDS = {"coalesce_window", "retry_after", "drain_timeout",
                 "read_timeout", "replica_poll_interval", "promote_after"}
_INT_FIELDS = {
    "port",
    "coalesce_max_batch",
    "max_in_flight",
    "queue_limit",
    "max_body_bytes",
    "handler_workers",
}


def _parse_field(name: str, raw: str) -> Any:
    raw = raw.strip()
    try:
        if name in _OPTIONAL_INT_FIELDS:
            if raw.lower() in ("none", "null", "unlimited"):
                return None
            return int(raw)
        if name in _INT_FIELDS:
            return int(raw)
        if name in _FLOAT_FIELDS:
            return float(raw)
    except ValueError as exc:
        raise ServerError(
            f"environment variable {_env_name(name)}={raw!r} is not a valid "
            f"value for {name}: {exc}"
        ) from None
    return raw


__all__ = ["ENV_PREFIX", "ServerConfig"]
