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
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.histogram import LATENCY_BUCKETS, LatencyHistogram

class ServerMetrics:
    """Counter sink for the transport; renders the ``/metrics`` document."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
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


def _escape_label(value: object) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _sample(name: str, value: object, labels: dict[str, object] | None = None) -> str:
    if value is None:
        value = "NaN"
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def _histogram_lines(name: str, snapshot: dict[str, Any],
                     labels: dict[str, object] | None = None,
                     declare: bool = True) -> list[str]:
    """Render a :meth:`LatencyHistogram.snapshot` as a Prometheus histogram.

    The snapshot's buckets hold per-bucket counts; Prometheus buckets are
    cumulative, so they are summed on the way out (with the mandatory
    ``+Inf`` bucket equal to the total count).  ``labels`` ride on every
    sample (used for the per-span-name duration histograms, which share
    one metric family); pass ``declare=False`` after the first family
    member so the ``# TYPE`` line appears exactly once.
    """
    lines = [] if not declare else [f"# TYPE {name} histogram"]
    cumulative = 0
    for key, count in snapshot.get("buckets", {}).items():
        if key == "le_inf":
            continue
        cumulative += count
        bound = key[len("le_"):]
        bucket_labels = dict(labels or {})
        bucket_labels["le"] = bound
        lines.append(_sample(f"{name}_bucket", cumulative, bucket_labels))
    inf_labels = dict(labels or {})
    inf_labels["le"] = "+Inf"
    lines.append(_sample(f"{name}_bucket", snapshot.get("count", 0),
                         inf_labels))
    lines.append(_sample(f"{name}_sum", snapshot.get("sum_seconds", 0.0),
                         labels))
    lines.append(_sample(f"{name}_count", snapshot.get("count", 0), labels))
    return lines


def render_prometheus(document: dict[str, Any]) -> str:
    """Render the ``/metrics`` JSON document in Prometheus text format.

    The JSON document stays the canonical surface (and the default
    content type); this renderer exists so a stock Prometheus scraper
    can consume the same counters via ``Accept: text/plain`` content
    negotiation.  Metric names are stable: ``repro_*`` counters/gauges,
    with per-dataset / per-endpoint breakdowns as labels.
    """
    lines: list[str] = []

    def counter(name: str, value: object,
                labels: dict[str, object] | None = None,
                declare: bool = True) -> None:
        if declare:
            lines.append(f"# TYPE {name} counter")
        lines.append(_sample(name, value, labels))

    def gauge(name: str, value: object,
              labels: dict[str, object] | None = None,
              declare: bool = True) -> None:
        if declare:
            lines.append(f"# TYPE {name} gauge")
        lines.append(_sample(name, value, labels))

    server = document.get("server", {})
    requests = server.get("requests", {})
    counter("repro_requests_total", requests.get("total", 0))
    by_endpoint = requests.get("by_endpoint", {})
    if by_endpoint:
        lines.append("# TYPE repro_endpoint_requests_total counter")
        for endpoint, count in sorted(by_endpoint.items()):
            counter("repro_endpoint_requests_total", count,
                    {"endpoint": endpoint}, declare=False)
    responses = server.get("responses", {})
    by_status = responses.get("by_status", {})
    if by_status:
        lines.append("# TYPE repro_responses_total counter")
        for status, count in sorted(by_status.items()):
            counter("repro_responses_total", count, {"status": status},
                    declare=False)
    lines.append("# TYPE repro_rejected_total counter")
    counter("repro_rejected_total", responses.get("rejected_quota", 0),
            {"reason": "quota"}, declare=False)
    counter("repro_rejected_total", responses.get("rejected_overload", 0),
            {"reason": "overload"}, declare=False)
    coalesce = server.get("coalesce", {})
    counter("repro_coalesce_batches_total", coalesce.get("batches", 0))
    counter("repro_coalesce_requests_total",
            coalesce.get("coalesced_requests", 0))
    counter("repro_coalesce_immediate_total",
            coalesce.get("immediate_dispatches", 0))
    counter("repro_direct_requests_total", coalesce.get("direct_requests", 0))
    counter("repro_fast_hits_total", coalesce.get("fast_hits", 0))
    counter("repro_coalesce_rider_wait_seconds_total",
            coalesce.get("rider_wait_seconds_total", 0.0))
    gauge("repro_coalesce_max_batch_size", coalesce.get("max_batch_size", 0))
    if "wait" in coalesce:
        lines.extend(_histogram_lines("repro_coalesce_wait_seconds",
                                      coalesce["wait"]))
    if "latency" in server:
        lines.extend(_histogram_lines("repro_request_latency_seconds",
                                      server["latency"]))

    admission = document.get("admission", {})
    for key in ("in_flight", "queued", "parked", "peak_in_flight",
                "peak_queued", "peak_parked"):
        if key in admission:
            gauge(f"repro_admission_{key}", admission[key])
    for key in ("admitted_total", "queued_total", "parked_total",
                "batches_dispatched_total", "rejected_quota_total",
                "rejected_overload_total"):
        if key in admission:
            counter(f"repro_admission_{key}", admission[key])
    for section, metric in (
        ("in_flight_by_dataset", "repro_admission_in_flight_by_dataset"),
        ("in_flight_by_class", "repro_admission_in_flight_by_class"),
        ("in_flight_writes_by_dataset",
         "repro_admission_in_flight_writes_by_dataset"),
    ):
        breakdown = admission.get(section, {})
        if breakdown:
            lines.append(f"# TYPE {metric} gauge")
            label = "class" if section == "in_flight_by_class" else "dataset"
            for name, count in sorted(breakdown.items()):
                gauge(metric, count, {label: name}, declare=False)

    workspace = document.get("workspace", {})
    cache = workspace.get("cache", {})
    for key in ("hits", "misses", "evictions", "invalidations"):
        if key in cache:
            counter(f"repro_cache_{key}_total", cache[key])
    for key in ("size", "capacity"):
        if key in cache:
            gauge(f"repro_cache_{key}", cache[key])
    pipeline = workspace.get("pipeline", {})
    for key in sorted(pipeline):
        value = pipeline[key]
        if isinstance(value, (int, float)):
            counter(f"repro_pipeline_{key}_total", value)
    if "engine_builds" in workspace:
        counter("repro_engine_builds_total", workspace["engine_builds"])
    datasets = workspace.get("datasets", [])
    if datasets:
        lines.append("# TYPE repro_dataset_version gauge")
        for entry in datasets:
            gauge("repro_dataset_version", entry.get("version", 0),
                  {"dataset": entry.get("name", "")}, declare=False)
        lines.append("# TYPE repro_dataset_seq gauge")
        for entry in datasets:
            gauge("repro_dataset_seq", entry.get("seq", 0),
                  {"dataset": entry.get("name", "")}, declare=False)

    ingest = workspace.get("ingest", {})
    totals = ingest.get("totals", {})
    for key in ("appends", "rows_appended", "delta_merges", "rebuilds",
                "bg_rebuilds"):
        if key in totals:
            counter(f"repro_ingest_{key}_total", totals[key])
    if "durable" in ingest:
        gauge("repro_ingest_durable", 1 if ingest["durable"] else 0)
    per_dataset = ingest.get("datasets", {})
    if per_dataset:
        for key in ("rows_appended", "delta_merges", "rebuilds",
                    "bg_rebuilds"):
            metric = f"repro_dataset_ingest_{key}_total"
            lines.append(f"# TYPE {metric} counter")
            for name, counters in sorted(per_dataset.items()):
                counter(metric, counters.get(key, 0), {"dataset": name},
                        declare=False)
        lines.append("# TYPE repro_dataset_rebuild_running gauge")
        for name, counters in sorted(per_dataset.items()):
            gauge("repro_dataset_rebuild_running",
                  1 if counters.get("rebuild_running") else 0,
                  {"dataset": name}, declare=False)
    replica = ingest.get("replica", {})
    if replica:
        gauge("repro_replica_promoted", 1 if replica.get("promoted") else 0)
        gauge("repro_replica_tailing", 1 if replica.get("tailing") else 0)
        replica_datasets = replica.get("datasets", {})
        if replica_datasets:
            lines.append("# TYPE repro_replica_lag_seq gauge")
            for name, snap in sorted(replica_datasets.items()):
                gauge("repro_replica_lag_seq", snap.get("lag_seq", 0),
                      {"dataset": name}, declare=False)
            lines.append("# TYPE repro_replica_applied_records_total counter")
            for name, snap in sorted(replica_datasets.items()):
                counter("repro_replica_applied_records_total",
                        snap.get("applied_records", 0),
                        {"dataset": name}, declare=False)
            lines.append("# TYPE repro_replica_resets_total counter")
            for name, snap in sorted(replica_datasets.items()):
                counter("repro_replica_resets_total", snap.get("resets", 0),
                        {"dataset": name}, declare=False)

    obs = document.get("obs", {})
    tracing = obs.get("tracing", {})
    if tracing:
        gauge("repro_tracing_enabled", 1 if tracing.get("enabled") else 0)
        gauge("repro_tracing_traces_held", tracing.get("traces_held", 0))
        for key in ("traces_recorded", "spans_recorded"):
            if key in tracing:
                counter(f"repro_tracing_{key}_total", tracing[key])
    spans = obs.get("spans", {})
    if spans:
        # One histogram family, labelled by span name — the per-stage
        # duration surface (pipeline.score, journal.append, ...).
        declare = True
        for name, snap in sorted(spans.items()):
            lines.extend(_histogram_lines("repro_span_duration_seconds",
                                          snap, {"span": name},
                                          declare=declare))
            declare = False
    if "ring_evictions" in tracing:
        counter("repro_tracing_ring_evictions_total",
                tracing["ring_evictions"])
    if "ring_bytes" in tracing:
        gauge("repro_tracing_ring_bytes", tracing["ring_bytes"])

    resources = document.get("resources", {})
    memory = resources.get("memory", {})
    components = memory.get("components", {})
    if components:
        lines.append("# TYPE repro_memory_bytes gauge")
        for component, n_bytes in sorted(components.items()):
            gauge("repro_memory_bytes", n_bytes, {"component": component},
                  declare=False)
        gauge("repro_memory_total_bytes", memory.get("total_bytes", 0))
    per_dataset_mem = memory.get("datasets", {})
    if per_dataset_mem:
        lines.append("# TYPE repro_dataset_memory_bytes gauge")
        for name, parts in sorted(per_dataset_mem.items()):
            for component, n_bytes in sorted(parts.items()):
                gauge("repro_dataset_memory_bytes", n_bytes,
                      {"dataset": name, "component": component},
                      declare=False)
    costs = resources.get("costs", {})
    if costs:
        counter("repro_cost_requests_total", costs.get("requests_total", 0))
        totals = costs.get("totals", {})
        if totals:
            lines.append("# TYPE repro_request_cost_total counter")
            for key, value in sorted(totals.items()):
                counter("repro_request_cost_total", value, {"counter": key},
                        declare=False)
        if "cpu_seconds_histogram" in costs:
            lines.extend(_histogram_lines("repro_request_cpu_seconds",
                                          costs["cpu_seconds_histogram"]))
        classes = costs.get("classes", {})
        if classes:
            # Lifetime per-class request counter plus rolling-window
            # CPU gauge (the window sum moves down as entries age out,
            # so it cannot be a Prometheus counter).
            lines.append("# TYPE repro_class_requests_total counter")
            for name, window in sorted(classes.items()):
                counter("repro_class_requests_total",
                        window.get("requests_total", 0),
                        {"class": name}, declare=False)
            lines.append("# TYPE repro_class_window_cpu_seconds gauge")
            for name, window in sorted(classes.items()):
                gauge("repro_class_window_cpu_seconds",
                      window.get("cpu_seconds", 0.0),
                      {"class": name}, declare=False)
        dataset_costs = costs.get("datasets", {})
        if dataset_costs:
            lines.append("# TYPE repro_dataset_requests_total counter")
            for name, window in sorted(dataset_costs.items()):
                counter("repro_dataset_requests_total",
                        window.get("requests_total", 0),
                        {"dataset": name}, declare=False)
            lines.append("# TYPE repro_dataset_window_cpu_seconds gauge")
            for name, window in sorted(dataset_costs.items()):
                gauge("repro_dataset_window_cpu_seconds",
                      window.get("cpu_seconds", 0.0),
                      {"dataset": name}, declare=False)
    watchdogs = resources.get("watchdogs", {})
    loop_lag = watchdogs.get("event_loop_lag", {})
    if loop_lag:
        gauge("repro_event_loop_lag_seconds",
              loop_lag.get("last_lag_seconds", 0.0))
        gauge("repro_event_loop_lag_max_seconds",
              loop_lag.get("max_lag_seconds", 0.0))
    if watchdogs:
        lines.append("# TYPE repro_watchdog_trips_total counter")
        for name, snap in sorted(watchdogs.items()):
            counter("repro_watchdog_trips_total", snap.get("trips", 0),
                    {"watchdog": name}, declare=False)

    return "\n".join(lines) + "\n"


__all__ = [
    "LATENCY_BUCKETS",
    "LatencyHistogram",
    "PROMETHEUS_CONTENT_TYPE",
    "ServerMetrics",
    "render_prometheus",
]
