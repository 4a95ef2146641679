"""End-to-end socket tests for the trace surface.

Real TCP, real threads: requests go through admission, coalescing, the
worker pool and (for the durable test) the journal, and
the traces served back by ``/v1/traces`` must tell exactly that story —
down to the rider waits summing to the ``rider_wait_seconds_total``
metric.
"""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.data.datasets import make_mixed_table
from repro.obs.config import ObsConfig
from repro.server import (
    ReproClient,
    ReproServer,
    ServerConfig,
    ServerResponseError,
    serving,
)
from repro.service import InsightRequest, Workspace
from tests.server.conftest import HeldEntryLock, wait_for


@pytest.fixture(scope="module")
def table():
    return make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=17)


@pytest.fixture()
def workspace(table):
    workspace = Workspace()
    workspace.register("demo", lambda: table)
    return workspace


def _request(top_k: int = 3) -> InsightRequest:
    return InsightRequest(dataset="demo", insight_classes=("skew", "outliers"),
                          top_k=top_k)


def walk(node):
    """Flatten one span tree, depth first."""
    yield node
    for child in node["children"]:
        yield from walk(child)


def names(trace) -> set:
    return {span["name"] for span in walk(trace["root"])}


class TestRequestTraces:
    def test_every_response_names_its_trace(self, workspace):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                insight_trace_id = client.last_trace_id
                assert insight_trace_id
                client.healthz()
                assert client.last_trace_id
                assert client.last_trace_id != insight_trace_id

    def test_direct_insight_trace_tells_the_whole_story(self, workspace):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                trace = client.trace(client.last_trace_id)
        assert trace["name"] == "request"
        root = trace["root"]
        assert root["attributes"]["endpoint"] == "insights"
        assert root["attributes"]["status"] == 200
        assert root["attributes"]["dataset"] == "demo"
        # The request lifecycle across the thread handoff into the
        # workspace: the dispatched handle (a cache miss: engine
        # snapshot + pipeline) parents straight to the request root.
        assert {
            "workspace.handle", "engine.snapshot", "pipeline.execute",
        } <= names(trace)
        # An unloaded server grants the admission slot and a worker
        # thread instantly, so neither wait records a span (see
        # test_contended_admission_records_a_wait_span).
        assert "admission.wait" not in names(trace)
        assert "request.dispatch" not in names(trace)
        [handle_span] = [s for s in walk(root)
                         if s["name"] == "workspace.handle"]
        assert handle_span["attributes"]["cache"] == "miss"

    def test_contended_admission_records_a_wait_span(self, workspace):
        # With one in-flight slot held by a request that blocks behind
        # the dataset's entry lock, the next two cold requests must queue
        # in admission — and their traces must show the wait as a
        # synthesized admission.wait span (an unloaded grant records
        # nothing, see test_direct_insight_trace_tells_the_whole_story).
        config = ServerConfig(port=0, coalesce_window=0.0, max_in_flight=1)
        n = 3
        trace_ids: list = [None] * n
        with serving(workspace, config) as handle:
            admission = handle.server.admission

            def worker(index: int) -> None:
                with ReproClient(*handle.address, timeout=60) as client:
                    # A class of its own per worker: no cache hit and no
                    # warm miss (nothing the index already scored), so
                    # each request holds the slot for a pipeline run.
                    client.insights(InsightRequest(
                        dataset="demo", top_k=3,
                        insight_classes=(("skew", "dispersion",
                                          "heavy_tails")[index],)))
                    trace_ids[index] = client.last_trace_id

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            held = HeldEntryLock(workspace)
            try:
                threads[0].start()
                wait_for(lambda: admission.snapshot()["in_flight"] == 1)
                for thread in threads[1:]:
                    thread.start()
                wait_for(lambda: admission.snapshot()["queued"] == n - 1)
            finally:
                held.release()
            for thread in threads:
                thread.join()
            with ReproClient(*handle.address) as client:
                waited = ["admission.wait" in names(client.trace(tid))
                          for tid in trace_ids]
        assert waited[1:] == [True, True], "a queued request recorded no admission.wait span"

    def test_cache_hit_trace_skips_the_pipeline(self, workspace):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                client.insights(_request())
                trace = client.trace(client.last_trace_id)
        assert "pipeline.execute" not in names(trace)
        [handle_span] = [s for s in walk(trace["root"])
                         if s["name"] == "workspace.handle"]
        assert handle_span["attributes"]["cache"] == "hit"

    def test_unknown_trace_is_a_404_envelope(self, workspace):
        with serving(workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                with pytest.raises(ServerResponseError) as excinfo:
                    client.trace("no-such-trace")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_trace"

    def test_traces_listing_filters(self, workspace):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                client.insights(_request(top_k=4))
                listing = client.traces(dataset="demo")
                assert len(listing["traces"]) == 2
                assert all(t["dataset"] == "demo"
                           for t in listing["traces"])
                limited = client.traces(dataset="demo", limit=1)
                assert len(limited["traces"]) == 1
                assert listing["tracing"]["enabled"] is True
                nothing = client.traces(dataset="absent")
                assert nothing["traces"] == []
                raw = client.request_raw("GET", "/v1/traces?limit=zero")
                assert raw.status == 400

    def test_tracing_can_be_disabled_per_server(self, table):
        workspace = Workspace(obs=ObsConfig(enabled=False))
        workspace.register("demo", lambda: table)
        with serving(workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                assert client.last_trace_id is None
                assert client.traces()["traces"] == []
                assert client.healthz()["config"]["obs"]["enabled"] is False


class TestCoalescedBatchTrace:
    def test_batch_trace_riders_match_the_metric(self, workspace):
        workspace.engine("demo")  # prebuild: requests coalesce tightly
        config = ServerConfig(port=0, coalesce_window=0.25,
                              coalesce_max_batch=16)
        n_clients = 3
        barrier = threading.Barrier(n_clients)
        request_trace_ids: dict[int, str] = {}

        with serving(workspace, config) as handle:
            def fire(index: int) -> None:
                with ReproClient(*handle.address) as client:
                    barrier.wait()
                    client.insights(_request(top_k=index + 1))
                    request_trace_ids[index] = client.last_trace_id

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(n_clients)]
            # The first arrival dispatches at once and blocks behind the
            # held lock, so the others find the server busy and share
            # the window.
            held = HeldEntryLock(workspace)
            try:
                for thread in threads:
                    thread.start()
                wait_for(lambda: handle.server.admission.snapshot()
                         ["parked"] == len(threads))
            finally:
                held.release()
            for thread in threads:
                thread.join()

            with ReproClient(*handle.address) as client:
                listing = client.traces()["traces"]
                batches = [client.trace(t["trace_id"]) for t in listing
                           if t["name"] == "coalesce.batch"]
                metrics = client.metrics()

        assert batches, "no coalesce.batch trace was recorded"
        riders = [span for batch in batches for span in walk(batch["root"])
                  if span["name"] == "coalesce.rider"]
        assert len(riders) == n_clients
        # Every rider answers to the request trace its client was handed.
        assert ({r["attributes"]["request_trace_id"] for r in riders}
                == set(request_trace_ids.values()))
        # The batch really batched (the held lock packed one window) and
        # each batch dispatched exactly once.
        assert max(b["root"]["attributes"]["size"] for b in batches) >= 2
        for batch in batches:
            dispatches = [s for s in walk(batch["root"])
                          if s["name"] == "coalesce.dispatch"]
            assert len(dispatches) == 1
            assert [s["name"] for s in walk(batch["root"])].count(
                "workspace.handle") >= 1
        # The traced rider waits and the aggregate metric are two views
        # of the same measurements.
        total_wait = sum(
            sum(r["attributes"]["wait_seconds"]
                for r in walk(batch["root"])
                if r["name"] == "coalesce.rider")
            for batch in batches
        )
        metric = metrics["server"]["coalesce"]["rider_wait_seconds_total"]
        assert total_wait == pytest.approx(metric, rel=1e-9)


class TestDurableAppendTrace:
    def test_inline_fsync_is_labelled_on_the_journal_span(self, tmp_path,
                                                          table):
        """The append's durability is the ``journal.append`` span itself:
        the fsync runs inside it, so there is no separate wait span."""
        workspace = Workspace(data_dir=str(tmp_path))
        workspace.register("demo", lambda: table)
        delta = make_mixed_table(n_rows=5, n_numeric=4, n_categorical=2,
                                 seed=19).to_records()
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                client.append_rows("demo", delta)
                listing = client.traces()["traces"]
                appends = [client.trace(t["trace_id"]) for t in listing
                           if t["name"] == "workspace.append"]
        assert len(appends) == 1
        trace = appends[0]
        assert trace["dataset"] == "demo"
        assert trace["root"]["attributes"]["applied"] in {
            "deferred", "delta_merge", "rebuild"
        }
        spans = {s["name"]: s for s in walk(trace["root"])}
        assert spans["journal.append"]["attributes"] == {"n_rows": 5}
        assert "journal.commit_wait" not in spans


class TestRuntimeConfigAndEvents:
    def test_slow_threshold_is_adjustable_over_http(self, workspace, caplog):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                applied = client.set_slow_threshold(0.0)
                assert applied["slow_ms"] == 0.0
                with caplog.at_level(logging.INFO,
                                     logger="repro.obs.events"):
                    client.insights(_request())
                with pytest.raises(ServerResponseError) as excinfo:
                    client.set_slow_threshold(-5)
                assert excinfo.value.status == 400
                raw = client.request_raw("POST", "/v1/traces:config",
                                         {"nope": 1})
                assert raw.status == 400
        events = [json.loads(r.message) for r in caplog.records
                  if '"slow_request"' in r.message]
        assert events, "threshold 0 must flag every request as slow"
        assert events[0]["name"] == "request"
        assert events[0]["trace_id"]

    def test_healthz_echoes_the_live_slow_threshold(self, workspace):
        with serving(workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                built = client.healthz()["config"]["obs"]["slow_ms"]
                assert built == workspace.obs_config.slow_ms != 10.0
                client.set_slow_threshold(10)
                echoed = client.healthz()["config"]["obs"]
        assert echoed["slow_ms"] == workspace.tracer.slow_ms == 10.0
        # The rest of the echo is the workspace's ObsConfig as built.
        assert {**echoed, "slow_ms": built} == workspace.obs_config.as_dict()

    def test_metrics_document_and_prometheus_expose_tracing(self, workspace):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                document = client.metrics()
                text = client.metrics_text()
        obs = document["obs"]
        assert obs["tracing"]["traces_recorded"] >= 1
        spans = obs["spans"]
        assert "request" in spans and "workspace.handle" in spans
        for snapshot in spans.values():
            assert {"count", "sum_seconds", "max_seconds", "p50_seconds",
                    "p95_seconds", "p99_seconds", "bounds",
                    "buckets"} <= set(snapshot)
        latency = document["server"]["latency"]
        assert "p99_seconds" in latency
        assert latency["bounds"]
        assert "repro_tracing_enabled 1" in text
        assert 'repro_span_duration_seconds_count{span="request"}' in text
        assert "repro_coalesce_rider_wait_seconds_total" in text
