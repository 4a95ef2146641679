"""The program under test, as the end-to-end run launches it.

Generates nothing: the table arrives as a file written by the load
generator, requests and batches arrive over the socket.  Everything is
the shipped default — ``Workspace()``, ``ServerConfig()``,
``IngestConfig()``, ``ObsConfig()`` — except the deployment settings a
caller must supply (an ephemeral port, the data directory).

    serve.py [--table FILE] [--data-dir DIR]

With ``--table`` the dataset is registered and its sketches preprocessed
*before* the socket binds, so "spawn -> /healthz ok" is the full set-up
cost.  Without it (a restart on an existing ``--data-dir``) the
workspace recovers whatever the directory holds.  Prints ``READY <port>``
once it accepts connections and serves until it is killed (the harness
SIGKILLs it; Ctrl-C drains and closes).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import Workspace  # noqa: E402
from repro.server import ReproServer  # noqa: E402
from repro.server.config import ServerConfig  # noqa: E402

from perf_table import DATASET, load_table  # noqa: E402


async def _serve(server: ReproServer) -> None:
    await server.start()
    print(f"READY {server.address[1]}", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", help="table file written by the load generator")
    parser.add_argument("--data-dir", help="durable journal directory")
    args = parser.parse_args(argv)

    workspace = Workspace(data_dir=args.data_dir)
    if args.table:
        workspace.register(DATASET, load_table(args.table))
        workspace.engine(DATASET)
    server = ReproServer(
        workspace, ServerConfig(port=0, data_dir=args.data_dir)
    )
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        pass
    finally:
        workspace.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
