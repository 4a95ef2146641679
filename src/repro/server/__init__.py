"""The HTTP transport: asyncio server, coalescing, admission, ops surface.

This package puts an actual wire behind the serving layer.  A
:class:`ReproServer` binds a stdlib-only asyncio HTTP/1.1 transport over
a :class:`~repro.service.Workspace`:

* ``POST /v1/insights`` — single requests; concurrent misses dispatch
  as one ``handle_many`` batch (:class:`RequestCoalescer`), realising
  cross-request enumeration and score sharing at the transport layer —
  a lone miss on an idle server dispatches at once, the coalescing
  window holds misses only while the server is busy;
* ``POST /v1/insights:batch`` — explicit client-side batches;
* admission control (:class:`AdmissionController`): a bounded queue, a
  max-in-flight cap and per-dataset / per-insight-class quotas, with
  429/503 + ``Retry-After`` rejections;
* an operations surface: ``GET /v1/datasets``, ``GET /healthz`` and
  ``GET /metrics`` (cache, engine-build, pipeline, admission and
  latency-histogram counters via :class:`ServerMetrics`);
* graceful shutdown that drains in-flight requests.

:class:`ReproClient` is the blocking counterpart used by tests, the
examples and the benchmark; :class:`ServerConfig` carries every knob and
fills itself from ``REPRO_SERVER_*`` environment variables or CLI flags
(console script ``repro-serve``).

Quick start::

    from repro.server import ReproClient, ServerConfig, serving
    from repro.service import InsightRequest, Workspace
    from repro.data.datasets import load_oecd

    workspace = Workspace()
    workspace.register("oecd", load_oecd)
    with serving(workspace, ServerConfig(port=0)) as handle:
        client = ReproClient(*handle.address)
        response = client.insights(InsightRequest(
            dataset="oecd", insight_classes=("skew", "outliers"), top_k=3,
        ))
        print(response.provenance)
"""

from repro.errors import AdmissionRejected, ServerError
from repro.server.admission import AdmissionController
from repro.server.app import ReproServer, ServerHandle, serving
from repro.server.client import RawResponse, ReproClient, ServerResponseError
from repro.server.coalesce import RequestCoalescer
from repro.server.config import ServerConfig
from repro.server.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    LatencyHistogram,
    ServerMetrics,
    render_prometheus,
)

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "AdmissionController",
    "AdmissionRejected",
    "LatencyHistogram",
    "RawResponse",
    "ReproClient",
    "ReproServer",
    "RequestCoalescer",
    "ServerConfig",
    "ServerError",
    "ServerHandle",
    "ServerMetrics",
    "ServerResponseError",
    "serving",
]
