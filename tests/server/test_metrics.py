"""LatencyHistogram, ServerMetrics and Prometheus exposition tests."""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from repro.data.datasets import make_mixed_table
from repro.server import LatencyHistogram, ReproClient, ServerConfig, ServerMetrics, serving
from repro.server.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service import InsightRequest, Workspace

FIXTURES = Path(__file__).parent / "fixtures"


class TestLatencyHistogram:
    def test_empty_histogram_has_no_percentiles(self):
        histogram = LatencyHistogram()
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_seconds"] is None
        assert snapshot["p95_seconds"] is None

    def test_observations_land_in_the_right_buckets(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0005)   # <= 1ms
        histogram.observe(0.003)    # <= 5ms
        histogram.observe(0.2)      # <= 250ms
        histogram.observe(99.0)     # overflow
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["buckets"]["le_0.001"] == 1
        assert snapshot["buckets"]["le_0.005"] == 1
        assert snapshot["buckets"]["le_0.25"] == 1
        assert snapshot["buckets"]["le_inf"] == 1
        assert snapshot["max_seconds"] == 99.0

    def test_quantiles_are_upper_bound_estimates(self):
        histogram = LatencyHistogram()
        for _ in range(95):
            histogram.observe(0.002)   # bucket le_0.0025
        for _ in range(5):
            histogram.observe(0.4)     # bucket le_0.5
        assert histogram.quantile(0.50) == 0.0025
        assert histogram.quantile(0.95) == 0.0025
        assert histogram.quantile(0.99) == 0.5

    def test_overflow_quantile_reports_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe(42.0)
        assert histogram.quantile(0.95) == 42.0


class TestServerMetrics:
    def test_snapshot_shape_and_counting(self):
        metrics = ServerMetrics()
        metrics.record_request("insights")
        metrics.record_request("insights")
        metrics.record_request("healthz")
        metrics.record_response(200, 0.01)
        metrics.record_response(200, 0.02)
        metrics.record_response(404)
        metrics.record_rejection(429)
        metrics.record_rejection(503)
        metrics.record_batch(3, 0.004)
        metrics.record_direct()
        metrics.record_fast_hit()
        metrics.record_fast_hit()
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["total"] == 3
        assert snapshot["requests"]["by_endpoint"] == {"insights": 2, "healthz": 1}
        assert snapshot["responses"]["by_status"] == {"200": 2, "404": 1}
        assert snapshot["responses"]["rejected_quota"] == 1
        assert snapshot["responses"]["rejected_overload"] == 1
        assert snapshot["coalesce"]["batches"] == 1
        assert snapshot["coalesce"]["coalesced_requests"] == 3
        assert snapshot["coalesce"]["direct_requests"] == 1
        assert snapshot["coalesce"]["fast_hits"] == 2
        assert snapshot["latency"]["count"] == 2

    def test_immediate_dispatches_in_both_renderings(self):
        metrics = ServerMetrics()
        metrics.record_batch(1, 0.0, rider_waits=[0.0], windowed=False)
        metrics.record_batch(2, 0.005, rider_waits=[0.005, 0.001])
        snapshot = metrics.snapshot()
        assert snapshot["coalesce"]["batches"] == 2
        assert snapshot["coalesce"]["immediate_dispatches"] == 1
        lines = render_prometheus({"server": snapshot}).splitlines()
        assert "# TYPE repro_coalesce_immediate_total counter" in lines
        assert "repro_coalesce_immediate_total 1" in lines
        assert "repro_coalesce_batches_total 2" in lines

    def test_thread_safety_of_counters(self):
        metrics = ServerMetrics()

        def hammer():
            for _ in range(500):
                metrics.record_request("insights")
                metrics.record_response(200, 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["total"] == 2000
        assert snapshot["latency"]["count"] == 2000


class TestPrometheusExposition:
    @pytest.mark.parametrize("stem", ["primary", "replica"])
    def test_rendering_is_byte_identical_to_the_golden_text(self, stem):
        # Both /metrics documents and their texts were captured from live
        # servers with the hand-walked renderer the declaration replaced:
        # a durable primary with a journalled and a loader-backed
        # dataset, and a promoted replica scraped with a write and a read
        # in flight.  Both carry span histograms, cost windows and
        # lock-wait / loop-lag watchdog trips.
        document = json.loads((FIXTURES / f"metrics_{stem}.json").read_text())
        expected = (FIXTURES / f"metrics_{stem}.prom").read_text()
        assert render_prometheus(document) == expected

    def test_a_live_scrape_is_well_formed(self):
        # A dataset name needing every escape the text format defines.
        odd = 'we"ird\\na\nme'
        workspace = Workspace()
        workspace.register(odd, make_mixed_table(
            n_rows=80, n_numeric=3, n_categorical=1, seed=2))
        workspace.handle(InsightRequest(dataset=odd, insight_classes=("skew",)))
        with serving(workspace, ServerConfig(port=0)) as handle:
            client = ReproClient(*handle.address)
            client.healthz()
            response = client.request_raw("GET", "/metrics",
                                          headers={"Accept": "text/plain"})
            client.close()
        assert response.headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = response.payload
        assert text.endswith("\n")
        kinds: dict[str, str] = {}
        current = None
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert name not in kinds, f"second TYPE line for {name}"
                kinds[name] = kind
                current = name
                continue
            name = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
            family = name
            if kinds.get(current) == "histogram":
                family = re.sub(r"_(bucket|sum|count)$", "", name)
            # Every sample sits under its own family's TYPE line, so each
            # family's samples are contiguous.
            assert family == current, line
        assert kinds["repro_span_duration_seconds"] == "histogram"
        escaped = 'we\\"ird\\\\na\\nme'
        assert f'repro_dataset_version{{dataset="{escaped}"}} 1' in text
