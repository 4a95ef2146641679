"""``repro-serve`` / ``python -m repro.server``: serve the bundled datasets.

Builds a :class:`~repro.service.Workspace` with lazily-loaded demo
datasets (the paper's three scenarios), wraps it in
:class:`~repro.server.ReproServer` and blocks until Ctrl-C, which drains
in-flight requests before exiting.  Every :class:`ServerConfig` knob is
available as a flag (``repro-serve --help``) or a ``REPRO_SERVER_*``
environment variable, and every :class:`~repro.obs.config.ObsConfig`
knob as an ``--obs-*`` flag or a ``REPRO_OBS_*`` variable; the parsed
``ObsConfig`` goes to the served workspace, primary or replica.

``--replica-of http://host:port`` serves a read replica instead: the
workspace tails the primary's journal endpoint, refuses writes (403)
until promoted (``POST /v1/replica:promote``, or automatically after
``--promote-after`` seconds of an unreachable primary) and stays
byte-identical to a restarted primary at the same ``(version, seq)``.

Examples::

    repro-serve --port 8765
    repro-serve --port 0 --coalesce-window-ms 10 --dataset-quota 4
    REPRO_SERVER_PORT=9000 python -m repro.server --preload
    repro-serve --port 8766 --replica-of http://127.0.0.1:8765
"""

from __future__ import annotations

import argparse

from repro.data.datasets import load_imdb, load_oecd, load_parkinson
from repro.obs.config import ObsConfig
from repro.service.replica import ReplicaWorkspace
from repro.service.workspace import Workspace
from repro.server.app import ReproServer
from repro.server.config import ServerConfig

#: The datasets ``repro-serve`` offers out of the box.
BUNDLED_DATASETS = {
    "oecd": load_oecd,
    "imdb": load_imdb,
    "parkinson": load_parkinson,
}


def build_workspace(
    datasets: list[str] | None = None,
    preload: bool = False,
    data_dir: str | None = None,
    obs: ObsConfig | None = None,
) -> Workspace:
    """A workspace with the requested bundled datasets registered lazily.

    With ``data_dir`` the workspace opens the durable ingestion journal
    first: datasets persisted by a previous process (snapshots, appended
    rows) are replayed to their exact ``(version, seq)`` state, and
    registering a bundled loader over restored state adopts it instead
    of resetting it.  ``obs`` is the workspace's observability config,
    in force from its construction, so even startup work (restore,
    preload engine builds) is traced under the requested settings.
    """
    names = datasets or sorted(BUNDLED_DATASETS)
    workspace = Workspace(data_dir=data_dir, obs=obs)
    restored = set(workspace.datasets())
    if restored:
        print(f"restored from journal: {', '.join(sorted(restored))}")
    for name in names:
        try:
            loader = BUNDLED_DATASETS[name]
        except KeyError:
            raise SystemExit(
                f"unknown dataset {name!r}; bundled datasets: "
                f"{', '.join(sorted(BUNDLED_DATASETS))}"
            ) from None
        workspace.register(name, loader)
    if preload:
        for name in names:
            workspace.engine(name)
    return workspace


def build_replica_workspace(config: ServerConfig,
                            obs: ObsConfig | None = None) -> ReplicaWorkspace:
    """A read replica tailing the primary named by ``config.replica_of``,
    observed under ``obs``.

    The feed source is constructed lazily-tolerant: an unreachable
    primary at startup is not fatal — the tailer keeps retrying every
    ``replica_poll_interval`` seconds (and, with ``promote_after`` > 0,
    eventually promotes).  No datasets are registered locally; the
    replica's catalogue is whatever the primary's journal carries.
    """
    # Imported here, not at module top: repro.replication imports the
    # client, which nothing else in the serve path needs.
    from repro.replication.feed import HttpFeedSource

    source = HttpFeedSource.from_url(config.replica_of)
    workspace = ReplicaWorkspace(source, obs=obs)
    workspace.start_tailing(
        interval=config.replica_poll_interval,
        promote_after=config.promote_after,
    )
    return workspace


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` parser: server, observability and dataset flags."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the Foresight reproduction over HTTP.",
    )
    ServerConfig.add_cli_arguments(parser)
    ObsConfig.add_cli_arguments(parser)
    parser.add_argument(
        "--datasets", nargs="*", metavar="NAME",
        help="bundled datasets to register "
             f"(default: {' '.join(sorted(BUNDLED_DATASETS))})",
    )
    parser.add_argument(
        "--preload", action="store_true",
        help="build every engine at startup instead of on first request",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServerConfig.from_args(args)
    obs = ObsConfig.from_args(args)
    if config.replica_of is not None:
        workspace = build_replica_workspace(config, obs)
        print(f"replicating from {config.replica_of}")
        ReproServer(workspace, config).run()
        return 0
    workspace = build_workspace(
        datasets=args.datasets,
        preload=args.preload, data_dir=config.data_dir, obs=obs,
    )
    # The bundled loaders double as the PUT /v1/datasets/{name} loader
    # registry, so clients can (re)register them by name over the wire.
    ReproServer(workspace, config, loaders=BUNDLED_DATASETS).run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
