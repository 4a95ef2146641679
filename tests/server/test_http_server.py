"""End-to-end socket tests for the asyncio HTTP server.

Everything here goes over real TCP: a server on an ephemeral port, the
blocking :class:`ReproClient` on the other side, and the acceptance
criteria of the transport in between — byte-identical coalesced
responses, 429/503 with ``Retry-After``, graceful drain, and a
``/metrics`` document consistent with the traffic sent.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.data.datasets import make_mixed_table
from repro.service import InsightRequest, Workspace
from repro.server import (
    ReproClient,
    ReproServer,
    ServerConfig,
    ServerResponseError,
    serving,
)

from tests.server.conftest import HeldEntryLock, stable_payload, wait_for


def _request(top_k: int = 3, classes=("skew", "outliers")) -> InsightRequest:
    return InsightRequest(dataset="demo", insight_classes=classes, top_k=top_k)


class TestBasicEndpoints:
    def test_single_insight_request(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                response = client.insights(_request())
                assert response.dataset == "demo"
                assert response.dataset_version == 1
                assert [c["insight_class"] for c in response.carousels] == [
                    "skew", "outliers",
                ]
                assert response.provenance["cache"] == "miss"
                repeat = client.insights(_request())
                assert repeat.provenance["cache"] == "hit"

    def test_single_response_matches_direct_workspace_handle(
        self, server_workspace, server_table
    ):
        reference = Workspace()
        reference.register("demo", lambda: server_table)
        expected = stable_payload(reference.handle(_request()))
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                response = client.insights(_request())
        assert stable_payload(response) == expected

    def test_batch_endpoint_preserves_order_and_batch_provenance(
        self, server_workspace
    ):
        requests = [_request(2, ("skew",)), _request(3, ("dispersion",)),
                    _request(4, ("outliers",))]
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                responses = client.insights_batch(requests)
        assert [r.carousels[0]["insight_class"] for r in responses] == [
            "skew", "dispersion", "outliers",
        ]
        for index, response in enumerate(responses):
            assert response.provenance["batch"]["index"] == index
            assert response.provenance["batch"]["size"] == 3

    def test_datasets_and_healthz(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                datasets = client.datasets()
                assert [d["name"] for d in datasets] == ["demo"]
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["datasets"] == ["demo"]
                assert health["port"] == handle.port
                assert health["config"]["max_in_flight"] >= 1

    def test_pagination_through_the_server(self, server_workspace):
        request = _request(2, ("skew",))
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                first = client.insights(request)
                assert first.next_cursor is not None
                second = client.insights(request.next_page(first.next_cursor))
                first_keys = {i["attributes"][0] for i in first.carousels[0]["insights"]}
                second_keys = {i["attributes"][0] for i in second.carousels[0]["insights"]}
                assert not first_keys & second_keys


class TestErrorEnvelopes:
    def test_malformed_json_returns_400_envelope(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("POST", "/v1/insights", "{not json")
        assert raw.status == 400
        assert raw.payload["status"] == "error"
        assert raw.payload["code"] == "protocol_error"
        assert "message" in raw.payload

    def test_unknown_dataset_returns_404_envelope(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw(
                    "POST", "/v1/insights",
                    {"dataset": "nope", "insight_classes": ["skew"]},
                )
        assert raw.status == 404
        assert raw.payload["code"] == "unknown_dataset"
        assert raw.payload["available"] == ["demo"]

    def test_unknown_insight_class_returns_400_envelope(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw(
                    "POST", "/v1/insights",
                    {"dataset": "demo", "insight_classes": ["not_a_class"]},
                )
        assert raw.status == 400
        assert raw.payload["code"] == "unknown_insight_class"

    def test_unknown_path_and_wrong_method(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("GET", "/v2/everything")
                assert raw.status == 404
                assert raw.payload["code"] == "not_found"
                raw = client.request_raw("GET", "/v1/insights")
                assert raw.status == 405
                assert raw.payload["code"] == "method_not_allowed"

    def test_oversized_body_returns_413_envelope(self, server_workspace):
        config = ServerConfig(port=0, max_body_bytes=64)
        with serving(server_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw(
                    "POST", "/v1/insights",
                    {"dataset": "demo", "insight_classes": ["skew"],
                     "tags": ["x" * 200]},
                )
        assert raw.status == 413
        assert raw.payload["code"] == "payload_too_large"

    def test_malformed_batch_body_returns_400(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("POST", "/v1/insights:batch",
                                         {"requests": []})
                assert raw.status == 400
                raw = client.request_raw("POST", "/v1/insights:batch",
                                         {"requests": [{"top_k": 3}]})
                assert raw.status == 400
                assert "batch request #0" in raw.payload["message"]

    def test_typed_client_raises_server_response_error(self, server_workspace):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                with pytest.raises(ServerResponseError) as info:
                    client.insights({"dataset": "nope",
                                     "insight_classes": ["skew"]})
        assert info.value.status == 404
        assert info.value.code == "unknown_dataset"


class TestCoalescing:
    def test_coalesced_responses_identical_to_direct_handle(
        self, server_workspace, server_table
    ):
        """Acceptance (a): coalesced singles == direct Workspace.handle."""
        requests = [_request(k, ("skew",)) for k in (1, 2, 3, 4)]
        requests += [_request(2, ("dispersion", "outliers"))]
        reference = Workspace()
        reference.register("demo", lambda: server_table)
        expected = [stable_payload(reference.handle(r)) for r in requests]

        # Warm the server-side engine so all arrivals land in one window.
        server_workspace.engine("demo")
        config = ServerConfig(port=0, coalesce_window=0.25, coalesce_max_batch=16)
        results: dict[int, object] = {}
        barrier = threading.Barrier(len(requests))

        with serving(server_workspace, config) as handle:
            def fire(index: int) -> None:
                with ReproClient(*handle.address) as client:
                    barrier.wait()
                    results[index] = client.insights(requests[index])

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(requests))
            ]
            # The first arrival dispatches at once and blocks behind the
            # held lock, so the others find the server busy and share
            # the window.
            held = HeldEntryLock(server_workspace)
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
                metrics = client.metrics()

        for index, request in enumerate(requests):
            assert stable_payload(results[index]) == expected[index], (
                f"coalesced response {index} diverged from direct handle"
            )
        coalesce = metrics["server"]["coalesce"]
        assert coalesce["coalesced_requests"] == len(requests)
        assert coalesce["batches"] >= 1
        # All arrivals after the first were parked inside one 250ms
        # window, so at least one true multi-request batch must have formed.
        assert coalesce["max_batch_size"] >= 2

    def test_coalesced_provenance_records_transport_batching(
        self, server_workspace
    ):
        server_workspace.engine("demo")
        config = ServerConfig(port=0, coalesce_window=0.2)
        responses = []
        barrier = threading.Barrier(3)
        with serving(server_workspace, config) as handle:
            def fire(top_k: int) -> None:
                with ReproClient(*handle.address) as client:
                    barrier.wait()
                    responses.append(client.insights(_request(top_k, ("skew",))))

            threads = [threading.Thread(target=fire, args=(k,)) for k in (1, 2, 3)]
            # The first arrival dispatches at once and blocks behind the
            # held lock, so the others find the server busy and share
            # the window.
            held = HeldEntryLock(server_workspace)
            try:
                for thread in threads:
                    thread.start()
                wait_for(lambda: handle.server.admission.snapshot()
                         ["parked"] == len(threads))
            finally:
                held.release()
            for thread in threads:
                thread.join()
        sizes = {r.provenance["coalesced"]["size"] for r in responses}
        assert max(sizes) >= 2
        assert all("batch" not in r.provenance for r in responses)

    def test_zero_window_disables_coalescing(self, server_workspace):
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(server_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                response = client.insights(_request())
                metrics = client.metrics()
        assert "coalesced" not in response.provenance
        assert metrics["server"]["coalesce"]["batches"] == 0
        assert metrics["server"]["coalesce"]["direct_requests"] == 1

    def test_bad_request_in_a_coalesced_batch_fails_only_itself(
        self, server_workspace
    ):
        server_workspace.engine("demo")
        config = ServerConfig(port=0, coalesce_window=0.2)
        outcomes: dict[str, object] = {}
        barrier = threading.Barrier(2)
        with serving(server_workspace, config) as handle:
            def good() -> None:
                with ReproClient(*handle.address) as client:
                    barrier.wait()
                    outcomes["good"] = client.insights(_request(2, ("skew",)))

            def bad() -> None:
                with ReproClient(*handle.address) as client:
                    barrier.wait()
                    outcomes["bad"] = client.request_raw(
                        "POST", "/v1/insights",
                        {"dataset": "demo", "insight_classes": ["not_a_class"]},
                    )

            threads = [threading.Thread(target=good),
                       threading.Thread(target=bad)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert outcomes["good"].carousels[0]["insight_class"] == "skew"
        assert outcomes["bad"].status == 400
        assert outcomes["bad"].payload["code"] == "unknown_insight_class"


class TestAdmission:
    @staticmethod
    def _gated_workspace(table):
        """A workspace whose 'slow' dataset blocks in its loader until gated."""
        gate = threading.Event()
        loading = threading.Event()

        def slow_loader():
            loading.set()
            assert gate.wait(timeout=30), "test gate never opened"
            return table

        workspace = Workspace()
        workspace.register("slow", slow_loader)
        workspace.register("demo", lambda: table)
        workspace.engine("demo")
        return workspace, gate, loading

    def test_quota_overflow_returns_429_with_retry_after(self, server_table):
        """Acceptance (b): quota overflow → 429 + Retry-After."""
        workspace, gate, loading = self._gated_workspace(server_table)
        config = ServerConfig(
            port=0, coalesce_window=0.0, dataset_quota=1,
            max_in_flight=8, queue_limit=8, retry_after=2.0,
        )
        with serving(workspace, config) as handle:
            blocked: dict[str, object] = {}

            def fire_blocked() -> None:
                with ReproClient(*handle.address, timeout=60) as client:
                    blocked["response"] = client.insights(
                        InsightRequest(dataset="slow", insight_classes=("skew",))
                    )

            thread = threading.Thread(target=fire_blocked)
            thread.start()
            assert loading.wait(timeout=10)
            try:
                with ReproClient(*handle.address) as client:
                    raw = client.request_raw(
                        "POST", "/v1/insights",
                        {"dataset": "slow", "insight_classes": ["outliers"]},
                    )
                    assert raw.status == 429
                    assert raw.payload["status"] == "error"
                    assert raw.payload["code"] == "dataset_quota_exceeded"
                    assert raw.headers["retry-after"] == "2"
                    assert raw.payload["retry_after"] == 2.0
                    # Other datasets are unaffected: isolation, not outage.
                    ok = client.insights(_request(2, ("skew",)))
                    assert ok.dataset == "demo"
                    metrics = client.metrics()
                    assert metrics["admission"]["rejected_quota_total"] == 1
                    assert metrics["server"]["responses"]["rejected_quota"] == 1
            finally:
                gate.set()
                thread.join(timeout=30)
            assert blocked["response"].dataset == "slow"

    def test_capacity_overflow_returns_503(self, server_table):
        workspace, gate, loading = self._gated_workspace(server_table)
        config = ServerConfig(
            port=0, coalesce_window=0.0, max_in_flight=1, queue_limit=0,
            retry_after=1.0,
        )
        with serving(workspace, config) as handle:
            def fire_blocked() -> None:
                with ReproClient(*handle.address, timeout=60) as client:
                    client.insights(
                        InsightRequest(dataset="slow", insight_classes=("skew",))
                    )

            thread = threading.Thread(target=fire_blocked)
            thread.start()
            assert loading.wait(timeout=10)
            try:
                with ReproClient(*handle.address) as client:
                    raw = client.request_raw(
                        "POST", "/v1/insights",
                        {"dataset": "demo", "insight_classes": ["skew"]},
                    )
                    assert raw.status == 503
                    assert raw.payload["code"] == "overloaded"
                    assert "retry-after" in raw.headers
            finally:
                gate.set()
                thread.join(timeout=30)

    def test_queued_request_is_served_when_capacity_frees(self, server_table):
        workspace, gate, loading = self._gated_workspace(server_table)
        config = ServerConfig(
            port=0, coalesce_window=0.0, max_in_flight=1, queue_limit=4,
        )
        with serving(workspace, config) as handle:
            outcomes: dict[str, object] = {}

            def fire(name: str, dataset: str) -> None:
                with ReproClient(*handle.address, timeout=60) as client:
                    outcomes[name] = client.insights(
                        InsightRequest(dataset=dataset, insight_classes=("skew",))
                    )

            blocker = threading.Thread(target=fire, args=("slow", "slow"))
            blocker.start()
            assert loading.wait(timeout=10)
            queued = threading.Thread(target=fire, args=("queued", "demo"))
            queued.start()
            time.sleep(0.1)
            assert "queued" not in outcomes   # still waiting for the slot
            gate.set()
            blocker.join(timeout=30)
            queued.join(timeout=30)
        assert outcomes["slow"].dataset == "slow"
        assert outcomes["queued"].dataset == "demo"


class TestGracefulShutdown:
    def test_drain_completes_in_flight_request(self, server_table):
        workspace, gate, loading = TestAdmission._gated_workspace(server_table)
        config = ServerConfig(port=0, coalesce_window=0.0, drain_timeout=10.0)
        handle_box: dict[str, object] = {}
        blocked: dict[str, object] = {}

        with serving(workspace, config) as handle:
            handle_box["handle"] = handle

            def fire_blocked() -> None:
                with ReproClient(*handle.address, timeout=60) as client:
                    blocked["response"] = client.insights(
                        InsightRequest(dataset="slow", insight_classes=("skew",))
                    )

            thread = threading.Thread(target=fire_blocked)
            thread.start()
            assert loading.wait(timeout=10)

            stopper = threading.Thread(target=lambda: handle.stop(drain=True))
            stopper.start()
            time.sleep(0.1)
            # The request is mid-flight; open the gate and let drain finish.
            gate.set()
            stopper.join(timeout=30)
            thread.join(timeout=30)

        response = blocked["response"]
        assert response.dataset == "slow"
        assert response.carousels[0]["insight_class"] == "skew"

    def test_server_restarts_after_stop(self, server_workspace):
        server = ReproServer(server_workspace, ServerConfig(port=0))
        handle = server.start_in_thread()
        with ReproClient(*handle.address) as client:
            assert client.healthz()["status"] == "ok"
        handle.stop()
        # A restarted server must serve again (stop() left no sticky state).
        handle = server.start_in_thread()
        try:
            with ReproClient(*handle.address) as client:
                assert client.healthz()["status"] == "ok"
                assert client.insights(_request(2, ("skew",))).dataset == "demo"
        finally:
            handle.stop()

    def test_stop_is_idempotent_and_refuses_new_connections(
        self, server_workspace
    ):
        with serving(server_workspace, ServerConfig(port=0)) as handle:
            with ReproClient(*handle.address) as client:
                client.healthz()
            handle.stop()
            handle.stop()   # second stop is a no-op
            with pytest.raises(OSError):
                probe = ReproClient(*handle.address, timeout=2)
                try:
                    probe.healthz()
                finally:
                    probe.close()


class TestMetricsConsistency:
    def test_metrics_match_the_traffic_sent(self, server_workspace):
        """Acceptance (c): /metrics consistent with the traffic."""
        server_workspace.engine("demo")
        config = ServerConfig(port=0, coalesce_window=0.15)
        # One class each: no single can be answered from what another
        # scored (a warm miss is answered on the loop, uncoalesced).
        singles = ("skew", "heavy_tails", "normality", "multimodality")
        n_singles = len(singles)
        barrier = threading.Barrier(n_singles)
        with serving(server_workspace, config) as handle:
            def fire(name: str) -> None:
                with ReproClient(*handle.address) as client:
                    barrier.wait()
                    client.insights(_request(2, (name,)))

            threads = [
                threading.Thread(target=fire, args=(name,))
                for name in singles
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ReproClient(*handle.address) as client:
                client.insights_batch([_request(2, ("dispersion",)),
                                       _request(3, ("outliers",))])
                client.request_raw(
                    "POST", "/v1/insights",
                    {"dataset": "nope", "insight_classes": ["skew"]},
                )
                client.healthz()
                metrics = client.metrics()

        server = metrics["server"]
        by_endpoint = server["requests"]["by_endpoint"]
        assert by_endpoint["insights"] == n_singles + 1   # +1 unknown dataset
        assert by_endpoint["insights_batch"] == 1
        assert by_endpoint["healthz"] == 1
        assert server["responses"]["by_status"]["200"] >= n_singles + 2
        assert server["responses"]["by_status"]["404"] == 1
        # Every successful single went through the coalescer.
        assert server["coalesce"]["coalesced_requests"] == n_singles
        assert 1 <= server["coalesce"]["batches"] <= n_singles
        assert server["latency"]["count"] == n_singles + 2
        admission = metrics["admission"]
        assert admission["admitted_total"] == n_singles + 1
        assert admission["in_flight"] == 0
        workspace_metrics = metrics["workspace"]
        assert workspace_metrics["engine_builds"] == 1
        assert workspace_metrics["cache"]["misses"] >= n_singles
        assert workspace_metrics["pipeline"]["n_queries"] >= n_singles
        datasets = {d["name"]: d for d in workspace_metrics["datasets"]}
        assert datasets["demo"]["engine_built"] is True
