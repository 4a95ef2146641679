"""Reproduction of "Foresight: Recommending Visual Insights" (VLDB 2017).

Public API highlights
---------------------
HTTP transport (:mod:`repro.server`, stdlib-only asyncio):

* :class:`repro.server.ReproServer` — HTTP/1.1 server over a workspace
  (``repro-serve`` console script): ``POST /v1/insights`` with request
  coalescing (concurrent singles micro-batch into one ``handle_many``
  call), ``POST /v1/insights:batch``, and an operations surface
  (``/v1/datasets``, ``/healthz``, ``/metrics`` with cache / engine /
  pipeline / admission / latency-histogram counters).  Admission
  control (bounded queue, in-flight cap, per-dataset and per-class
  quotas) rejects overload with 429/503 + ``Retry-After``; shutdown
  drains in-flight requests.  :class:`repro.server.ReproClient` is the
  blocking client counterpart.

Serving layer (multi-user, transport-agnostic):

* :class:`repro.Workspace` — registers named datasets (tables or lazy
  loaders), builds one preprocessed engine per dataset (single-flight
  under concurrent callers), serves
  :class:`repro.InsightRequest` → :class:`repro.InsightResponse` DTOs
  with LRU result caching, version-aware invalidation and pagination,
  serves request batches in order (``handle_many``), and restores
  exploration sessions by dataset name.  Thread-safe throughout; one
  request runs on one thread, the caller's.
* :class:`repro.InsightRequest` / :class:`repro.InsightResponse` — the
  versioned, JSON-serialisable wire protocol: one or many insight
  classes per request, shared query constraints, pagination cursors and
  cache/mode provenance on every response.
* :class:`repro.service.QueryPipeline` — the staged execution pipeline
  (plan → enumerate → score → rank) over each published snapshot's
  insight index: a class's candidate domain is enumerated, and each
  candidate scored, once per snapshot, and every later query on that
  snapshot filters and ranks what the index holds.

Single-process embedding:

* :class:`repro.Foresight` — the recommendation engine (preprocess a
  table, get carousels of top insights, run insight queries, build
  visualizations).
* :class:`repro.ExplorationSession` — the interactive exploration loop
  (focus insights, neighborhood recommendations, save/restore state
  through the DTO layer).
* :mod:`repro.data` — the columnar data substrate and the demo datasets.
* :mod:`repro.stats` — exact statistics behind every insight metric.
* :mod:`repro.sketch` — single-pass, mergeable sketches for fast
  approximate insight metrics (co-moment sums, moments, quantile,
  frequent items, entropy, reservoir sampling).
* :mod:`repro.viz` — declarative visualization specs and ASCII renderers.

Quick serving example::

    from repro import InsightRequest, Workspace
    from repro.data.datasets import load_oecd

    workspace = Workspace()
    workspace.register("oecd", load_oecd)
    response = workspace.handle(InsightRequest(
        dataset="oecd",
        insight_classes=("linear_relationship", "skew", "outliers"),
        top_k=3,
    ))
    print(response.provenance["cache"], response.top("skew"))

See ``docs/API.md`` for the full serving-layer guide.
"""

from repro.core.engine import Carousel, EngineConfig, Foresight
from repro.core.insight import Insight, InsightClass, EvaluationContext
from repro.core.pipeline import RankingResult
from repro.core.query import InsightQuery, MetricRange, query
from repro.core.registry import InsightRegistry, default_registry
from repro.core.session import ExplorationSession
from repro.data.table import DataTable
from repro.service import (
    AppendResult,
    IngestConfig,
    InsightRequest,
    InsightResponse,
    SessionState,
    Workspace,
)
from repro.sketch.store import SketchStore, SketchStoreConfig

__version__ = "1.2.0"

__all__ = [
    "Carousel",
    "DataTable",
    "EngineConfig",
    "EvaluationContext",
    "ExplorationSession",
    "Foresight",
    "Insight",
    "InsightClass",
    "InsightQuery",
    "InsightRegistry",
    "AppendResult",
    "IngestConfig",
    "InsightRequest",
    "InsightResponse",
    "MetricRange",
    "RankingResult",
    "SessionState",
    "SketchStore",
    "SketchStoreConfig",
    "Workspace",
    "__version__",
    "default_registry",
    "query",
]
