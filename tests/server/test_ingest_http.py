"""Live datasets over HTTP: dataset management, liveness, write quota,
Prometheus exposition and the per-connection read timeout."""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.data.datasets import make_mixed_table
from repro.server import (
    AdmissionController,
    ReproClient,
    ReproServer,
    ServerConfig,
    ServerResponseError,
)
from repro.service import InsightRequest, Workspace

from tests.server.conftest import stable_payload


@pytest.fixture(scope="module")
def live_table():
    return make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=31)


@pytest.fixture(scope="module")
def delta_rows(live_table):
    return make_mixed_table(n_rows=40, n_numeric=4, n_categorical=2,
                            seed=32).to_records()


def _request():
    return InsightRequest(dataset="live", insight_classes=("skew", "outliers"),
                          top_k=3, mode="approximate")


def _serving(live_table, **config_kwargs):
    workspace = Workspace()
    workspace.register("live", lambda: live_table)
    server = ReproServer(
        workspace,
        ServerConfig(port=0, **config_kwargs),
        loaders={"live_again": lambda: live_table},
    )
    return server, server.start_in_thread()


class TestDatasetManagementAPI:
    def test_put_inline_append_reload_round_trip(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                created = client.put_dataset(
                    "inline", columns={"x": [1.0, 2.0, 3.0, 4.0],
                                       "g": ["a", "b", "a", "b"]},
                )
                assert (created["version"], created["seq"]) == (1, 0)
                assert created["source"] == "inline"
                assert "inline" in [d["name"] for d in client.datasets()]

                appended = client.append_rows(
                    "inline", [{"x": 9.0, "g": "c"}, {"x": 10.0}]
                )
                assert (appended["version"], appended["seq"]) == (1, 1)
                assert appended["rows_appended"] == 2
                assert appended["total_rows"] == 6

                # Inline tables have no loader: reload keeps the rows
                # (appends included) but bumps the generation.
                reloaded = client.reload_dataset("inline")
                assert reloaded["version"] == 2
                assert reloaded["seq"] == 0

    def test_put_registered_loader(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                created = client.put_dataset("live_again", loader="live_again")
                assert created["source"] == "loader"
                response = client.insights(InsightRequest(
                    dataset="live_again", insight_classes=("skew",), top_k=2))
                assert response.dataset == "live_again"

    def test_put_unknown_loader_is_400(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                with pytest.raises(ServerResponseError) as info:
                    client.put_dataset("x", loader="nope")
                assert info.value.status == 400

    def test_put_conflict_and_replace(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("PUT", "/v1/datasets/live",
                                         {"columns": {"x": [1.0]}})
                assert raw.status == 409
                assert raw.payload["code"] == "dataset_exists"
                replaced = client.put_dataset(
                    "live", columns={"x": [1.0, 2.0]}, replace=True
                )
                assert replaced["version"] == 2  # behaves like a reload

    def test_append_of_an_int_beyond_the_float_range_is_400(self, live_table):
        # Valid JSON, and it used to be a 500: float(10**400) overflows.
        column = live_table.numeric_names()[0]
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw(
                    "POST", "/v1/datasets/live/rows",
                    {"rows": [{column: 1.5}, {column: 10**400}]},
                )
                assert raw.status == 400
                assert raw.payload["code"] == "delta_rejected"
                (problem,) = raw.payload["problems"]
                assert problem.startswith(f"row 1, column {column!r}: value 1000")
                assert problem.endswith("is not numeric")
                (status,) = [d for d in client.datasets()
                             if d["name"] == "live"]
                assert status["seq"] == 0

    def test_append_validation_failure_is_400_with_problems(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw(
                    "POST", "/v1/datasets/live/rows",
                    {"rows": [{"not_a_column": 1}]},
                )
                assert raw.status == 400
                assert raw.payload["code"] == "delta_rejected"
                assert raw.payload["problems"]
                # Nothing changed server-side.
                (status,) = [d for d in client.datasets()
                             if d["name"] == "live"]
                assert status["seq"] == 0

    def test_unknown_dataset_and_wrong_method(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("POST", "/v1/datasets/nope/rows",
                                         {"rows": [{}]})
                assert raw.status == 404
                raw = client.request_raw("GET", "/v1/datasets/live/rows")
                assert raw.status == 405
                raw = client.request_raw("GET", "/v1/datasets/live/bogus")
                assert raw.status == 404


class TestDurabilityOverHttp:
    """The flush endpoint and server-restart recovery with a data_dir."""

    def test_flush_endpoint_reports_durability(self, tmp_path, live_table,
                                               delta_rows):
        workspace = Workspace(data_dir=str(tmp_path))
        workspace.register("live", lambda: live_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                client.append_rows("live", delta_rows[:10])
                flushed = client.flush_dataset("live")
                assert flushed == {"protocol": 1, "dataset": "live",
                                   "version": 1, "seq": 1, "durable": True}
                with pytest.raises(ServerResponseError) as excinfo:
                    client.flush_dataset("nope")
                assert excinfo.value.status == 404
                raw = client.request_raw("GET", "/v1/datasets/live/flush")
                assert raw.status == 405

    def test_flush_without_data_dir_is_a_no_op(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                assert client.flush_dataset("live")["durable"] is False

    def test_server_restart_replays_the_journal(self, tmp_path, live_table,
                                                delta_rows):
        workspace = Workspace(data_dir=str(tmp_path))
        workspace.register("live", lambda: live_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                client.append_rows("live", delta_rows[:10])
                client.append_rows("live", delta_rows[10:25])
                before = stable_payload(client.insights(_request()))
        # A second server process over the same data_dir: identity and
        # payload bytes survive the restart (graceful stop flushed, but
        # fsync-on-commit means even a kill would have).
        workspace2 = Workspace(data_dir=str(tmp_path))
        workspace2.register("live", lambda: live_table)
        server2 = ReproServer(workspace2, ServerConfig(port=0))
        with server2.start_in_thread() as handle2:
            with ReproClient(*handle2.address) as client:
                (status,) = [d for d in client.datasets()
                             if d["name"] == "live"]
                assert (status["version"], status["seq"]) == (1, 2)
                assert stable_payload(client.insights(_request())) == before
                metrics = client.metrics()
                assert metrics["workspace"]["ingest"]["durable"] is True


class TestEndToEndLiveness:
    """The acceptance scenario: append over HTTP, query reflects it."""

    def _reference_payloads(self, live_table, delta_rows):
        """Expected responses at seq 0 and seq 1, from a twin workspace."""
        reference = Workspace()
        reference.register("live", lambda: live_table)
        reference.engine("live")
        at_seq = {0: stable_payload(reference.handle(_request()))}
        result = reference.append("live", delta_rows)
        assert result.applied == "delta_merge"
        at_seq[1] = stable_payload(reference.handle(_request()))
        # Liveness must be observable: the two snapshots answer
        # differently, so matching seq-1 proves the appended rows landed.
        assert at_seq[0] != at_seq[1]
        return at_seq

    def test_append_then_query_reflects_new_rows(self, live_table,
                                                 delta_rows):
        expected = self._reference_payloads(live_table, delta_rows)
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                before = client.insights(_request())
                assert (before.dataset_version, before.dataset_seq) == (1, 0)
                assert stable_payload(before) == expected[0]

                appended = client.append_rows("live", delta_rows)
                assert (appended["version"], appended["seq"]) == (1, 1)
                assert appended["applied"] == "delta_merge"

                after = client.insights(_request())
                assert (after.dataset_version, after.dataset_seq) == (1, 1)
                assert stable_payload(after) == expected[1]

                # No full-store rebuild on the append path: the delta-merge
                # counters prove how the rows were absorbed.
                metrics = client.metrics()
                ingest = metrics["workspace"]["ingest"]["totals"]
                assert ingest["delta_merges"] == 1
                assert ingest["rebuilds"] == 0
                assert ingest["rows_appended"] == len(delta_rows)
                assert metrics["workspace"]["engine_builds"] == 1

    def test_queries_racing_the_append_see_consistent_snapshots(
        self, live_table, delta_rows
    ):
        expected = self._reference_payloads(live_table, delta_rows)
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as warmup:
                warmup.insights(_request())  # build the engine

            payloads: list[tuple[int, int, str]] = []
            errors: list[Exception] = []
            lock = threading.Lock()
            stop = threading.Event()

            def query_loop():
                try:
                    with ReproClient(*handle.address, timeout=30) as client:
                        while not stop.is_set():
                            response = client.insights(_request())
                            with lock:
                                payloads.append((
                                    response.dataset_version,
                                    response.dataset_seq,
                                    stable_payload(response),
                                ))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=query_loop) for _ in range(4)]
            for thread in threads:
                thread.start()
            with ReproClient(*handle.address, timeout=60) as writer:
                appended = writer.append_rows("live", delta_rows)
                assert appended["seq"] == 1
                post = writer.insights(_request())
            stop.set()
            for thread in threads:
                thread.join()

            assert not errors
            assert (post.dataset_version, post.dataset_seq) == (1, 1)
            assert stable_payload(post) == expected[1]
            # Every racing response matches the reference payload of the
            # exact snapshot its provenance names — no torn reads.
            for version, seq, payload in payloads:
                assert version == 1
                assert seq in (0, 1)
                assert payload == expected[seq]


class TestWriteQuota:
    def test_write_quota_rejects_concurrent_writes_only(self):
        async def scenario():
            controller = AdmissionController(max_in_flight=8, queue_limit=8,
                                             write_quota=1, retry_after=0.25)
            await controller.acquire(["live"], [], writes=["live"])
            snapshot = controller.snapshot()
            assert snapshot["in_flight_writes_by_dataset"] == {"live": 1}
            # A second concurrent write on the same dataset: 429.
            try:
                await controller.acquire(["live"], [], writes=["live"])
            except Exception as exc:
                assert exc.status == 429
                assert exc.code == "write_quota_exceeded"
                assert exc.retry_after == 0.25
            else:  # pragma: no cover - the acquire must reject
                raise AssertionError("second write was admitted")
            # Reads on the same dataset are unaffected by the write quota.
            await controller.acquire(["live"], ["skew"])
            # Writes on another dataset are unaffected too.
            await controller.acquire(["other"], [], writes=["other"])
            await controller.release(["live"], [], writes=["live"])
            await controller.acquire(["live"], [], writes=["live"])
            await controller.release(["live"], [], writes=["live"])
            await controller.release(["live"], ["skew"])
            await controller.release(["other"], [], writes=["other"])
            final = controller.snapshot()
            assert final["in_flight"] == 0
            assert final["in_flight_writes_by_dataset"] == {}
            assert final["rejected_quota_total"] == 1
            assert final["limits"]["write_quota"] == 1

        asyncio.run(scenario())

    def test_http_write_quota_config_reaches_admission(self, live_table):
        server, handle = _serving(live_table, write_quota=2)
        with handle:
            with ReproClient(*handle.address) as client:
                limits = client.metrics()["admission"]["limits"]
                assert limits["write_quota"] == 2


class TestPrometheusExposition:
    def test_json_stays_the_default(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                document = client.metrics()
                assert isinstance(document, dict)
                assert "ingest" in document["workspace"]

    def test_text_plain_negotiates_prometheus(self, live_table, delta_rows):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                client.insights(_request())
                client.append_rows("live", delta_rows)
                document = client.metrics()
                raw = client.request_raw("GET", "/metrics",
                                         headers={"Accept": "text/plain"})
                assert raw.status == 200
                assert raw.headers["content-type"].startswith("text/plain")
                text = raw.payload
                assert isinstance(text, str)
                assert "# TYPE repro_requests_total counter" in text
                assert "# TYPE repro_request_latency_seconds histogram" in text
                assert 'repro_request_latency_seconds_bucket{le="+Inf"}' in text
                assert 'repro_dataset_seq{dataset="live"} 1' in text
                assert "repro_ingest_delta_merges_total 1" in text
                # Counter values agree with the JSON document scraped one
                # request earlier (the JSON scrape itself counted once).
                total = document["server"]["requests"]["total"]
                assert f"repro_requests_total {total + 1}" in text

    def test_client_metrics_text_helper(self, live_table):
        server, handle = _serving(live_table)
        with handle:
            with ReproClient(*handle.address) as client:
                text = client.metrics_text()
                assert text.startswith("# TYPE")
                assert "repro_cache_hits_total" in text


class TestReadTimeout:
    def test_stalled_request_gets_408_and_close(self, live_table):
        server, handle = _serving(live_table, read_timeout=0.3)
        with handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(b"POST /v1/insights HTTP/1.1\r\n"
                             b"Content-Length: 100\r\n\r\n{\"data")
                sock.settimeout(5)
                data = sock.recv(65536)
                assert b"408" in data.split(b"\r\n", 1)[0]
                assert b"request_timeout" in data
                # The connection is closed after the 408.
                assert sock.recv(65536) == b""

    def test_idle_keep_alive_connection_is_reclaimed_silently(self,
                                                              live_table):
        # An idle connection (no request started) is closed without a 408
        # so a persistent client can never read a buffered timeout
        # envelope as the answer to its *next* request.
        server, handle = _serving(live_table, read_timeout=0.3)
        with handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.settimeout(5)
                assert sock.recv(65536) == b""  # closed, nothing written

    def test_slow_client_between_requests_is_not_poisoned(self, live_table):
        # A keep-alive client that pauses past the read timeout between
        # requests reconnects cleanly (ReproClient's stale-connection
        # retry) instead of receiving a stale 408.
        import time

        server, handle = _serving(live_table, read_timeout=0.3)
        with handle:
            with ReproClient(*handle.address) as client:
                first = client.insights(_request())
                time.sleep(0.6)  # server reclaims the idle connection
                second = client.insights(_request())
                assert stable_payload(first) == stable_payload(second)

    def test_zero_disables_the_timeout(self, live_table):
        server, handle = _serving(live_table, read_timeout=0.0)
        with handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.settimeout(0.6)
                with pytest.raises(socket.timeout):
                    sock.recv(65536)  # nothing arrives: no 408, no close

    def test_normal_traffic_unaffected(self, live_table):
        server, handle = _serving(live_table, read_timeout=5.0)
        with handle:
            with ReproClient(*handle.address) as client:
                response = client.insights(_request())
                assert response.dataset == "live"
