"""Operational counters for the HTTP transport.

:class:`ServerMetrics` is the single sink every transport component
reports into — request/response counts per endpoint and status, the
coalescer's batch accounting and per-request latency histograms — and
the producer of the ``/metrics`` JSON document, which merges in the
workspace-side state (result-cache counters, per-dataset engine builds,
lifetime pipeline stats) and the admission controller's gauges.

Latencies go into :class:`~repro.obs.histogram.LatencyHistogram`, the
fixed-bucket histogram the tracer and the cost aggregator use too.

Everything is guarded by one internal lock: the event loop, the handler
worker threads and scraping clients may all touch it concurrently.

The JSON document is the canonical surface.  Its Prometheus text form
(:func:`render_prometheus`) is one walk over one declaration,
:data:`PROMETHEUS_FAMILIES`: a row per family naming its type and its
path into the document, so a new series is one row, here and in
docs/OBSERVABILITY.md's table.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.obs import lockhook
from repro.obs.histogram import LATENCY_BUCKETS, LatencyHistogram

class ServerMetrics:
    """Counter sink for the transport; renders the ``/metrics`` document."""

    def __init__(self) -> None:
        self._lock = lockhook.lock("metrics.lock")
        self._requests_by_endpoint: dict[str, int] = {}
        self._responses_by_status: dict[str, int] = {}
        self._rejected_quota = 0
        self._rejected_overload = 0
        self._coalesced_batches = 0
        self._coalesced_requests = 0
        self._coalesce_max_batch = 0
        self._immediate_dispatches = 0
        self._direct_requests = 0
        self._fast_hits = 0
        self._rider_wait_total = 0.0
        self._latency = LatencyHistogram()
        self._coalesce_wait = LatencyHistogram()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, endpoint: str) -> None:
        with self._lock:
            self._requests_by_endpoint[endpoint] = (
                self._requests_by_endpoint.get(endpoint, 0) + 1
            )

    def record_response(self, status: int, seconds: float | None = None) -> None:
        with self._lock:
            key = str(status)
            self._responses_by_status[key] = (
                self._responses_by_status.get(key, 0) + 1
            )
            if seconds is not None:
                self._latency.observe(seconds)

    def record_rejection(self, status: int) -> None:
        """Count an admission rejection (429 = quota, 503 = overload)."""
        with self._lock:
            if status == 429:
                self._rejected_quota += 1
            else:
                self._rejected_overload += 1

    def record_batch(self, size: int, wait_seconds: float,
                     rider_waits: list[float] | None = None,
                     windowed: bool = True) -> None:
        """Count one coalesced dispatch of ``size`` requests.

        ``rider_waits`` (one entry per batched request, when the
        coalescer computes them) accumulates the total time requests
        spent parked in coalescing windows — the aggregate the per-rider
        trace spans must sum to.  A batch that opened on an idle
        coalescer (``windowed`` false) counts as an immediate dispatch.
        """
        with self._lock:
            self._coalesced_batches += 1
            if not windowed:
                self._immediate_dispatches += 1
            self._coalesced_requests += size
            if size > self._coalesce_max_batch:
                self._coalesce_max_batch = size
            self._coalesce_wait.observe(wait_seconds)
            if rider_waits:
                self._rider_wait_total += sum(rider_waits)

    def record_direct(self) -> None:
        """Count one request dispatched without coalescing."""
        with self._lock:
            self._direct_requests += 1

    def record_fast_hit(self) -> None:
        """Count one request answered from the result cache on the event
        loop — neither coalesced nor dispatched."""
        with self._lock:
            self._fast_hits += 1

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            requests_total = sum(self._requests_by_endpoint.values())
            return {
                "requests": {
                    "total": requests_total,
                    "by_endpoint": dict(self._requests_by_endpoint),
                },
                "responses": {
                    "by_status": dict(self._responses_by_status),
                    "rejected_quota": self._rejected_quota,
                    "rejected_overload": self._rejected_overload,
                },
                "coalesce": {
                    "batches": self._coalesced_batches,
                    "coalesced_requests": self._coalesced_requests,
                    "max_batch_size": self._coalesce_max_batch,
                    "immediate_dispatches": self._immediate_dispatches,
                    "direct_requests": self._direct_requests,
                    "fast_hits": self._fast_hits,
                    "rider_wait_seconds_total": self._rider_wait_total,
                    "wait": self._coalesce_wait.snapshot(),
                },
                "latency": self._latency.snapshot(),
            }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
#: Content type advertised for the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class Family(NamedTuple):
    """One declared Prometheus family and where its samples live.

    ``path`` is dotted into the ``/metrics`` document.  A ``{label}``
    segment fans out over a dict's keys (sorted) or a list of records
    (in order, by each record's ``name``); its value becomes that label,
    or — when the family's ``name`` holds the same placeholder — part of
    the name.  ``labels`` are fixed labels on every sample.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    path: str
    labels: tuple[tuple[str, str], ...] = ()


def _each(name: str, kind: str, path: str, keys: tuple[str, ...]) -> list[Family]:
    """One family per key, in the given order.

    ``{key}`` is filled in both templates; a label placeholder that must
    survive into the row is written doubled (``{{dataset}}``).
    """
    return [Family(name.format(key=key), kind, path.format(key=key)) for key in keys]


_INGEST_COUNTERS = ("rows_appended", "delta_merges", "rebuilds", "bg_rebuilds")

#: The whole exposition, in rendering order: one row per family (two for
#: ``repro_rejected_total``, one per fixed ``reason``).
PROMETHEUS_FAMILIES: tuple[Family, ...] = (
    Family("repro_requests_total", "counter", "server.requests.total"),
    Family("repro_endpoint_requests_total", "counter",
           "server.requests.by_endpoint.{endpoint}"),
    Family("repro_responses_total", "counter", "server.responses.by_status.{status}"),
    Family("repro_rejected_total", "counter", "server.responses.rejected_quota",
           (("reason", "quota"),)),
    Family("repro_rejected_total", "counter", "server.responses.rejected_overload",
           (("reason", "overload"),)),
    Family("repro_coalesce_batches_total", "counter", "server.coalesce.batches"),
    Family("repro_coalesce_requests_total", "counter",
           "server.coalesce.coalesced_requests"),
    Family("repro_coalesce_immediate_total", "counter",
           "server.coalesce.immediate_dispatches"),
    Family("repro_direct_requests_total", "counter", "server.coalesce.direct_requests"),
    Family("repro_fast_hits_total", "counter", "server.coalesce.fast_hits"),
    Family("repro_coalesce_rider_wait_seconds_total", "counter",
           "server.coalesce.rider_wait_seconds_total"),
    Family("repro_coalesce_max_batch_size", "gauge", "server.coalesce.max_batch_size"),
    Family("repro_coalesce_wait_seconds", "histogram", "server.coalesce.wait"),
    Family("repro_request_latency_seconds", "histogram", "server.latency"),
    *_each("repro_admission_{key}", "gauge", "admission.{key}",
           ("in_flight", "queued", "parked", "peak_in_flight", "peak_queued",
            "peak_parked")),
    *_each("repro_admission_{key}", "counter", "admission.{key}",
           ("admitted_total", "queued_total", "parked_total",
            "batches_dispatched_total", "rejected_quota_total",
            "rejected_overload_total")),
    Family("repro_admission_in_flight_by_dataset", "gauge",
           "admission.in_flight_by_dataset.{dataset}"),
    Family("repro_admission_in_flight_by_class", "gauge",
           "admission.in_flight_by_class.{class}"),
    Family("repro_admission_in_flight_writes_by_dataset", "gauge",
           "admission.in_flight_writes_by_dataset.{dataset}"),
    *_each("repro_cache_{key}_total", "counter", "workspace.cache.{key}",
           ("hits", "misses", "evictions", "invalidations")),
    *_each("repro_cache_{key}", "gauge", "workspace.cache.{key}", ("size", "capacity")),
    Family("repro_pipeline_{key}_total", "counter", "workspace.pipeline.{key}"),
    Family("repro_engine_builds_total", "counter", "workspace.engine_builds"),
    Family("repro_dataset_version", "gauge", "workspace.datasets.{dataset}.version"),
    Family("repro_dataset_seq", "gauge", "workspace.datasets.{dataset}.seq"),
    *_each("repro_ingest_{key}_total", "counter", "workspace.ingest.totals.{key}",
           ("appends", *_INGEST_COUNTERS)),
    Family("repro_ingest_durable", "gauge", "workspace.ingest.durable"),
    *_each("repro_dataset_ingest_{key}_total", "counter",
           "workspace.ingest.datasets.{{dataset}}.{key}", _INGEST_COUNTERS),
    Family("repro_dataset_rebuild_running", "gauge",
           "workspace.ingest.datasets.{dataset}.rebuild_running"),
    Family("repro_replica_promoted", "gauge", "workspace.ingest.replica.promoted"),
    Family("repro_replica_tailing", "gauge", "workspace.ingest.replica.tailing"),
    Family("repro_replica_lag_seq", "gauge",
           "workspace.ingest.replica.datasets.{dataset}.lag_seq"),
    Family("repro_replica_applied_records_total", "counter",
           "workspace.ingest.replica.datasets.{dataset}.applied_records"),
    Family("repro_replica_resets_total", "counter",
           "workspace.ingest.replica.datasets.{dataset}.resets"),
    Family("repro_tracing_enabled", "gauge", "obs.tracing.enabled"),
    Family("repro_tracing_traces_held", "gauge", "obs.tracing.traces_held"),
    Family("repro_tracing_traces_recorded_total", "counter",
           "obs.tracing.traces_recorded"),
    Family("repro_tracing_spans_recorded_total", "counter", "obs.tracing.spans_recorded"),
    Family("repro_span_duration_seconds", "histogram", "obs.spans.{span}"),
    Family("repro_tracing_ring_evictions_total", "counter", "obs.tracing.ring_evictions"),
    Family("repro_tracing_ring_bytes", "gauge", "obs.tracing.ring_bytes"),
    Family("repro_memory_bytes", "gauge", "resources.memory.components.{component}"),
    Family("repro_memory_total_bytes", "gauge", "resources.memory.total_bytes"),
    Family("repro_dataset_memory_bytes", "gauge",
           "resources.memory.datasets.{dataset}.{component}"),
    Family("repro_cost_requests_total", "counter", "resources.costs.requests_total"),
    Family("repro_request_cost_total", "counter", "resources.costs.totals.{counter}"),
    Family("repro_request_cpu_seconds", "histogram",
           "resources.costs.cpu_seconds_histogram"),
    Family("repro_class_requests_total", "counter",
           "resources.costs.classes.{class}.requests_total"),
    Family("repro_class_window_cpu_seconds", "gauge",
           "resources.costs.classes.{class}.cpu_seconds"),
    Family("repro_dataset_requests_total", "counter",
           "resources.costs.datasets.{dataset}.requests_total"),
    Family("repro_dataset_window_cpu_seconds", "gauge",
           "resources.costs.datasets.{dataset}.cpu_seconds"),
    Family("repro_event_loop_lag_seconds", "gauge",
           "resources.watchdogs.event_loop_lag.last_lag_seconds"),
    Family("repro_event_loop_lag_max_seconds", "gauge",
           "resources.watchdogs.event_loop_lag.max_lag_seconds"),
    Family("repro_watchdog_trips_total", "counter", "resources.watchdogs.{watchdog}.trips"),
)


def _escape_label(value: object) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _sample(name: str, value: object, labels: dict[str, object]) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def _histogram_lines(name: str, snapshot: dict[str, Any],
                     labels: dict[str, object]) -> list[str]:
    """Render a :meth:`LatencyHistogram.snapshot` as a Prometheus histogram.

    The snapshot's buckets hold per-bucket counts; Prometheus buckets are
    cumulative, so they are summed on the way out (with the mandatory
    ``+Inf`` bucket equal to the total count).
    """
    lines = []
    cumulative = 0
    for key, count in snapshot.get("buckets", {}).items():
        if key == "le_inf":
            continue
        cumulative += count
        lines.append(_sample(f"{name}_bucket", cumulative,
                             {**labels, "le": key[len("le_"):]}))
    lines.append(_sample(f"{name}_bucket", snapshot.get("count", 0),
                         {**labels, "le": "+Inf"}))
    lines.append(_sample(f"{name}_sum", snapshot.get("sum_seconds", 0.0), labels))
    lines.append(_sample(f"{name}_count", snapshot.get("count", 0), labels))
    return lines


def _walk(node: Any, segments: list[str], bound: dict[str, str]):
    """Yield ``(bindings, value)`` for every node the path reaches."""
    if not segments:
        yield bound, node
        return
    head, rest = segments[0], segments[1:]
    if not head.startswith("{"):
        if isinstance(node, dict) and head in node:
            yield from _walk(node[head], rest, bound)
        return
    if isinstance(node, dict):
        children = [(key, node[key]) for key in sorted(node)]
    elif isinstance(node, list):
        children = [(entry.get("name", ""), entry) for entry in node]
    else:
        return
    for key, child in children:
        yield from _walk(child, rest, {**bound, head[1:-1]: key})


def render_prometheus(document: dict[str, Any]) -> str:
    """Render the ``/metrics`` JSON document in Prometheus text format.

    The JSON document stays the canonical surface (and the default
    content type); this renderer exists so a stock Prometheus scraper
    can consume the same counters via ``Accept: text/plain`` content
    negotiation.  It walks :data:`PROMETHEUS_FAMILIES` in order: each
    family's ``# TYPE`` line comes once, before its first sample;
    booleans render as 1/0, paths absent from the document and
    non-numeric values are skipped.
    """
    lines: list[str] = []
    declared = None
    for family in PROMETHEUS_FAMILIES:
        for bound, value in _walk(document, family.path.split("."), {}):
            name = family.name.format_map(bound)
            labels = dict(family.labels)
            labels.update((key, val) for key, val in bound.items()
                          if f"{{{key}}}" not in family.name)
            if family.kind == "histogram":
                if not isinstance(value, dict):
                    continue
                samples = _histogram_lines(name, value, labels)
            elif isinstance(value, (int, float)):
                samples = [_sample(name, int(value) if isinstance(value, bool)
                                   else value, labels)]
            else:
                continue
            if name != declared:
                lines.append(f"# TYPE {name} {family.kind}")
                declared = name
            lines.extend(samples)
    return "\n".join(lines) + "\n"


__all__ = [
    "LATENCY_BUCKETS",
    "LatencyHistogram",
    "PROMETHEUS_CONTENT_TYPE",
    "PROMETHEUS_FAMILIES",
    "ServerMetrics",
    "render_prometheus",
]
