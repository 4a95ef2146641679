"""Serve insights over HTTP and query them with the blocking client.

Starts the asyncio server on an ephemeral port (request coalescing on,
a per-dataset quota for demonstration), points a :class:`ReproClient`
at it, and walks the whole surface: a carousel request, a client-side
batch, cache-hit behavior, and the operations endpoints, including the
Prometheus text scrape of ``/metrics``.

Run with::

    PYTHONPATH=src python examples/server_demo.py

or against a standalone server (``repro-serve --port 8765``) by swapping
the ``serving(...)`` block for ``ReproClient("127.0.0.1", 8765)``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data.datasets import load_oecd  # noqa: E402
from repro.service import InsightRequest, Workspace  # noqa: E402
from repro.server import ReproClient, ServerConfig, serving  # noqa: E402
from repro.server.metrics import PROMETHEUS_CONTENT_TYPE  # noqa: E402
from repro.viz.ascii import render_table  # noqa: E402


def main() -> None:
    workspace = Workspace()
    workspace.register("oecd", load_oecd)

    config = ServerConfig(
        port=0,                   # ask the OS for a free port
        coalesce_window=0.005,    # micro-batch concurrent singles (5 ms)
        dataset_quota=4,          # per-dataset concurrency isolation
    )

    with serving(workspace, config) as handle:
        host, port = handle.address
        print(f"server listening on http://{host}:{port}\n")
        client = ReproClient(host, port)

        # -- one request, three carousels --------------------------------
        response = client.insights(InsightRequest(
            dataset="oecd",
            insight_classes=("linear_relationship", "skew", "outliers"),
            top_k=3,
        ))
        print(f"dataset={response.dataset} v{response.dataset_version} "
              f"cache={response.provenance['cache']} "
              f"coalesced={response.provenance.get('coalesced')}")
        for carousel in response.carousels:
            print(f"\n== {carousel['label']} "
                  f"({carousel['n_admitted']} admitted) ==")
            rows = [
                {"attributes": " × ".join(insight["attributes"]),
                 "score": f"{insight['score']:.3f}"}
                for insight in carousel["insights"]
            ]
            print(render_table(rows))

        # -- the repeat is a cache hit ------------------------------------
        repeat = client.insights(InsightRequest(
            dataset="oecd",
            insight_classes=("linear_relationship", "skew", "outliers"),
            top_k=3,
        ))
        print(f"\nrepeat request: cache={repeat.provenance['cache']}")

        # -- a client-side batch ------------------------------------------
        batch = client.insights_batch([
            InsightRequest(dataset="oecd", insight_classes=("dispersion",)),
            InsightRequest(dataset="oecd", insight_classes=("heavy_tails",)),
        ])
        print(f"batch of {len(batch)}: "
              f"{[b.carousels[0]['insight_class'] for b in batch]}")

        # -- the operations surface ---------------------------------------
        health = client.healthz()
        print(f"\nhealthz: {health['status']}, datasets={health['datasets']}")
        metrics = client.metrics()
        print(f"requests: {metrics['server']['requests']['by_endpoint']}")
        print(f"coalesce: {metrics['server']['coalesce']['batches']} batches, "
              f"{metrics['server']['coalesce']['coalesced_requests']} requests")
        print(f"cache:    {metrics['workspace']['cache']['hits']} hits / "
              f"{metrics['workspace']['cache']['misses']} misses")
        print(f"pipeline: {metrics['workspace']['pipeline']['n_queries']} "
              f"queries, {metrics['workspace']['pipeline']['enumerations']} "
              "enumerations")
        p95 = metrics["server"]["latency"]["p95_seconds"]
        print(f"latency:  p95 <= {p95:.3f}s over "
              f"{metrics['server']['latency']['count']} timed requests")

        # -- the same document as a Prometheus scrape ---------------------
        scrape = client.request_raw("GET", "/metrics",
                                    headers={"Accept": "text/plain"})
        assert scrape.headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = scrape.payload
        assert "repro_requests_total" in text
        assert "repro_span_duration_seconds_bucket" in text
        families = sum(line.startswith("# TYPE ") for line in text.splitlines())
        print(f"prometheus: {families} families, "
              f"{len(text.splitlines())} lines")
        client.close()

    print("\nserver drained and stopped.")


if __name__ == "__main__":
    main()
