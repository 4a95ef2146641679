"""Server configuration: one frozen dataclass, filled from env or CLI.

Every knob of the HTTP transport lives on :class:`ServerConfig` —
bind address, the coalescing window, admission-control limits, drain
behavior — declared once as a :func:`~repro.knobs.knob` field, with
three construction paths that tests, the ``repro-serve`` CLI and
embedding code share (derived by :class:`~repro.knobs.Knobs`):

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

Observability knobs are not here: :class:`~repro.obs.config.ObsConfig`
belongs to the :class:`~repro.service.Workspace` being served, and the
server reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServerError
from repro.knobs import Knobs, knob

#: Prefix shared by every configuration environment variable.
ENV_PREFIX = "REPRO_SERVER_"


@dataclass(frozen=True)
class ServerConfig(Knobs):
    """Tuning knobs for the asyncio HTTP transport.

    Each field's help text (``repro-serve --help``) is its
    documentation; the longer account of each knob is the
    "Configuration" table of docs/API.md.  ``coalesce_window`` is the
    longest a miss waits for riders while the server is busy (a
    coalesced dispatch running or a write request in flight); on an
    idle server a miss dispatches on the next loop tick.  ``data_dir``
    journals every accepted append before it is acknowledged, and a
    restarted server replays the journal to the exact ``(version,
    seq)`` state.  ``replica_of`` fronts a read-only
    :class:`~repro.service.replica.ReplicaWorkspace` that tails the
    primary's journal endpoint; it is mutually exclusive with
    ``data_dir``, because a replica's state *is* the primary's journal.
    Invalid values raise :class:`~repro.errors.ServerError`.
    """

    env_prefix = ENV_PREFIX
    error = ServerError

    host: str = knob("127.0.0.1", "bind address")
    port: int = knob(8765, "bind port, 0 = ephemeral", ge=0, le=65535)
    coalesce_window: float = knob(
        0.005, "micro-batching window, in ms on the flag and in seconds "
        "in the field and its variable; 0 disables coalescing", ge=0,
        cli_ms=True)
    coalesce_max_batch: int = knob(
        16, "flush a pending batch at this size", ge=1)
    max_in_flight: int = knob(
        8, "requests executing concurrently; arrivals beyond it queue",
        ge=1)
    queue_limit: int = knob(
        32, "bounded admission queue length; a full queue rejects with "
        "503", ge=0)
    dataset_quota: int | None = knob(
        None, "max concurrent requests per dataset, 429 beyond it; none "
        "= unlimited", ge=1)
    class_quota: int | None = knob(
        None, "max concurrent requests per insight class, 429 beyond "
        "it; none = unlimited", ge=1)
    write_quota: int | None = knob(
        None, "max concurrent write requests (appends/registrations/"
        "reloads) per dataset, 429 beyond it; none = unlimited", ge=1)
    read_timeout: float = knob(
        30.0, "seconds to receive a complete request before 408/close; "
        "also bounds an idle keep-alive connection; 0 disables", ge=0)
    retry_after: float = knob(
        1.0, "Retry-After seconds on 429/503", ge=0)
    max_body_bytes: int = knob(
        1_048_576, "request body size limit (413 beyond it)", ge=1)
    drain_timeout: float = knob(
        5.0, "seconds to wait for in-flight requests on shutdown", ge=0)
    handler_workers: int = knob(
        8, "threads executing blocking workspace calls", ge=1)
    data_dir: str | None = knob(
        None, "directory for the durable ingestion journal; appends are "
        "journalled before acknowledgement and a restart replays them; "
        "None = in-memory only")
    replica_of: str | None = knob(
        None, "serve as a read replica tailing this primary "
        "(http://host:port); writes answer 403 until promoted")
    replica_poll_interval: float = knob(
        0.25, "seconds between replica polls of the primary", gt=0)
    promote_after: float = knob(
        0.0, "auto-promote the replica after the primary has been "
        "unreachable this many seconds, 0 = never", ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replica_of is not None and self.data_dir is not None:
            raise ServerError(
                "replica_of and data_dir are mutually exclusive: a "
                "replica's state is the primary's journal, not its own"
            )


__all__ = ["ENV_PREFIX", "ServerConfig"]
