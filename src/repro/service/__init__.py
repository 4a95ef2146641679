"""The serving layer: Workspace, DTO protocol, result cache, query pipeline.

This package separates the *serving interface* from the *execution
engine*: any transport (HTTP handler, RPC server, CLI, notebook) can park
a :class:`Workspace` behind it and exchange versioned, JSON-serialisable
:class:`InsightRequest` / :class:`InsightResponse` DTOs, while the staged
:class:`QueryPipeline` (plan → enumerate → score → rank) executes the
queries over each snapshot's insight index (every candidate domain
enumerated, and every candidate scored, once per snapshot) and the
:class:`ResultCache` absorbs repeated traffic.

The whole path is safe under concurrent callers: the cache is locked,
engine builds are single-flight, and every dataset sits behind its own
lock.  One request runs on one thread — the thread that called
:meth:`Workspace.handle` or :meth:`Workspace.handle_many` — so
parallelism is the caller's: requests side by side, as the HTTP server's
handler pool runs them.
"""

from repro.service.cache import ResultCache
from repro.service.cursor import decode_cursor, encode_cursor
from repro.service.dto import (
    PROTOCOL_VERSION,
    InsightRequest,
    InsightResponse,
    SessionState,
    error_envelope,
    error_envelope_json,
    is_error_envelope,
)
from repro.core.pipeline import (
    Enumeration,
    ExecutionPlan,
    PipelineStats,
    PlannedQuery,
    QueryPipeline,
    RankingResult,
    ScoredBatch,
)
from repro.ingest.maintenance import IngestConfig
from repro.service.replica import FeedSource, LocalFeedSource, ReplicaWorkspace
from repro.service.workspace import AppendResult, Workspace

__all__ = [
    "AppendResult",
    "Enumeration",
    "FeedSource",
    "IngestConfig",
    "ExecutionPlan",
    "InsightRequest",
    "InsightResponse",
    "LocalFeedSource",
    "PROTOCOL_VERSION",
    "PipelineStats",
    "PlannedQuery",
    "QueryPipeline",
    "RankingResult",
    "ReplicaWorkspace",
    "ResultCache",
    "ScoredBatch",
    "SessionState",
    "Workspace",
    "decode_cursor",
    "encode_cursor",
    "error_envelope",
    "error_envelope_json",
    "is_error_envelope",
]
