"""Replication over real sockets: the journal endpoint, HTTP-fed
replicas, replica serving (read-only + promote) and ``max_lag_seq``
read routing on the primary."""

from __future__ import annotations

import base64
import json

import pytest

from repro.data.datasets import make_mixed_table
from repro.errors import ProtocolError
from repro.ingest import IngestConfig
from repro.replication import HttpFeedSource
from repro.server import ReproClient, ReproServer, ServerConfig
from repro.service import InsightRequest, ReplicaWorkspace, Workspace

BASE_ROWS = 80


@pytest.fixture(scope="module")
def base_table():
    return make_mixed_table(n_rows=BASE_ROWS, n_numeric=3, n_categorical=2,
                            seed=11)


@pytest.fixture(scope="module")
def stream(base_table):
    return make_mixed_table(n_rows=30, n_numeric=3, n_categorical=2,
                            seed=12).to_records()


def _request(**overrides):
    fields = {"dataset": "live", "insight_classes": ("skew", "outliers"),
              "top_k": 3}
    fields.update(overrides)
    return InsightRequest(**fields)


def _payload(response) -> str:
    body = response.to_dict()
    body.pop("timing")
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _primary(data_dir, base_table) -> Workspace:
    workspace = Workspace(data_dir=str(data_dir),
                          ingest=IngestConfig(rebuild_fraction=float("inf")))
    workspace.register("live", base_table)  # self-contained durable state
    return workspace


class TestJournalEndpoint:
    def test_bootstrap_and_incremental_batches(self, tmp_path, base_table,
                                               stream):
        workspace = _primary(tmp_path, base_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                client.append_rows("live", stream[:4])
                answer = client.journal("live")
                assert answer["protocol"] == 1
                assert answer["dataset"] == "live"
                batch = answer["batch"]
                assert batch["reset"] is not None
                # The reset ships the snapshot file's own bytes.
                assert base64.b64decode(batch["reset"]["snapshot"]) == (
                    tmp_path / "live" / "snapshot-00000001.bin").read_bytes()
                assert batch["position"] == "1:1"
                assert batch["records"] == []
                assert batch["primary_seq"] == 1

                client.append_rows("live", stream[4:8])
                follow = client.journal("live", position="1:1")["batch"]
                assert follow["reset"] is None
                assert [r["seq"] for r in follow["records"]] == [2]
                assert follow["position"] == "1:2"

    def test_endpoint_error_envelopes(self, tmp_path, base_table):
        workspace = _primary(tmp_path, base_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("GET", "/v1/datasets/nope/journal")
                assert raw.status == 404
                raw = client.request_raw(
                    "GET", "/v1/datasets/live/journal?from=bogus")
                assert raw.status == 400
                assert raw.payload["code"] == "protocol_error"
                raw = client.request_raw(
                    "GET", "/v1/datasets/live/journal?max_records=0")
                assert raw.status == 400
                raw = client.request_raw(
                    "GET", "/v1/datasets/live/journal?max_records=nope")
                assert raw.status == 400

    def test_non_durable_server_answers_409(self, base_table):
        workspace = Workspace()  # no data_dir: nothing to tail
        workspace.register("live", lambda: base_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("GET", "/v1/datasets/live/journal")
                assert raw.status == 409
                assert raw.payload["code"] == "not_durable"

    def test_promote_on_a_primary_is_409(self, tmp_path, base_table):
        workspace = _primary(tmp_path, base_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                raw = client.request_raw("POST", "/v1/replica:promote", {})
                assert raw.status == 409
                assert raw.payload["code"] == "not_a_replica"


class TestHttpFedReplica:
    def test_http_replica_is_byte_identical_to_a_restarted_primary(
        self, tmp_path, base_table, stream
    ):
        workspace = _primary(tmp_path, base_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                client.append_rows("live", stream[:6])
            replica = ReplicaWorkspace(
                HttpFeedSource(*handle.address))
            assert replica.sync() == {"live": 1}
            assert replica.state("live") == (1, 1)
            assert replica.replica_lag() == {"live": 0}
            # Incremental catch-up over the wire.
            with ReproClient(*handle.address) as client:
                client.append_rows("live", stream[6:12])
            assert replica.sync() == {"live": 1}
            assert replica.state("live") == (1, 2)
            replica_bytes = _payload(replica.handle(_request()))
            replica.close()
        restarted = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        assert restarted.state("live") == (1, 2)
        assert replica_bytes == _payload(restarted.handle(_request()))

    @pytest.mark.parametrize("snapshot", [
        "not base64!",
        base64.b64encode(b"RPSC torn").decode("ascii"),
    ])
    def test_an_unreadable_reset_is_refused(self, tmp_path, base_table,
                                            snapshot):
        """A reset whose snapshot is not base64 of an intact snapshot
        file is refused like a torn one: nothing is adopted, the
        dataset's ``last_error`` says why, and the next good poll
        bootstraps."""
        workspace = _primary(tmp_path, base_table)
        server = ReproServer(workspace, ServerConfig(port=0))
        with server.start_in_thread() as handle:
            source = HttpFeedSource(*handle.address)
            request = source._client._request

            def mangled(method, path, *args, **kwargs):
                payload = request(method, path, *args, **kwargs)
                if "/journal" in path and payload["batch"]["reset"]:
                    payload["batch"]["reset"]["snapshot"] = snapshot
                return payload

            source._client._request = mangled
            replica = ReplicaWorkspace(source)
            assert replica.sync() == {}
            assert "live" not in replica
            stats = replica.ingest_stats()["replica"]["datasets"]["live"]
            assert "unreadable reset" in stats["last_error"]
            assert stats["resets"] == 0
            source._client._request = request
            assert replica.sync() == {"live": 1}
            assert replica.state("live") == (1, 0)
            replica.close()

    def test_from_url_accepts_the_replica_of_forms(self):
        source = HttpFeedSource.from_url("http://example.test:7000")
        assert (source.host, source.port) == ("example.test", 7000)
        source = HttpFeedSource.from_url("example.test:7000")
        assert (source.host, source.port) == ("example.test", 7000)
        from repro.errors import ServiceError
        with pytest.raises(ServiceError, match="replica-of"):
            HttpFeedSource.from_url("ftp://example.test")


class TestServedReplica:
    def test_replica_server_refuses_writes_until_promoted(
        self, tmp_path, base_table, stream
    ):
        workspace = _primary(tmp_path, base_table)
        primary_server = ReproServer(workspace, ServerConfig(port=0))
        with primary_server.start_in_thread() as primary_handle:
            with ReproClient(*primary_handle.address) as client:
                client.append_rows("live", stream[:4])
            replica = ReplicaWorkspace(
                HttpFeedSource(*primary_handle.address))
            replica.sync()
            replica_server = ReproServer(replica, ServerConfig(port=0))
            with replica_server.start_in_thread() as replica_handle:
                with ReproClient(*replica_handle.address) as client:
                    # Reads work; the replica section is in the metrics.
                    response = client.insights(_request())
                    assert (response.dataset_version,
                            response.dataset_seq) == (1, 1)
                    metrics = client.metrics()
                    ingest = metrics["workspace"]["ingest"]
                    assert ingest["replica"]["promoted"] is False
                    assert ingest["replica"]["datasets"]["live"][
                        "lag_seq"] == 0
                    text = client.metrics_text()
                    assert "repro_replica_promoted 0" in text
                    assert 'repro_replica_lag_seq{dataset="live"} 0' in text

                    raw = client.request_raw(
                        "POST", "/v1/datasets/live/rows",
                        {"rows": stream[4:6]})
                    assert raw.status == 403
                    assert raw.payload["code"] == "replica_read_only"

                    assert client.promote() == {"protocol": 1,
                                                "promoted": True}
                    appended = client.append_rows("live", stream[4:6])
                    assert (appended["version"], appended["seq"]) == (1, 2)
            replica.close()


class TestStalenessRouting:
    """``max_lag_seq`` routes bounded reads to caught-up replicas."""

    def _count_handles(self, workspace):
        calls = []
        original = workspace.handle

        def counting(request):
            calls.append(request.dataset)
            return original(request)

        workspace.handle = counting
        return calls

    def test_bounded_reads_hit_a_caught_up_replica(self, tmp_path,
                                                   base_table, stream):
        from repro.service import LocalFeedSource

        workspace = _primary(tmp_path, base_table)
        workspace.append("live", stream[:4])
        replica = ReplicaWorkspace(LocalFeedSource(str(tmp_path)))
        replica.sync()
        server = ReproServer(workspace,
                             ServerConfig(port=0, coalesce_window=0.0),
                             replicas=[replica])
        primary_calls = self._count_handles(workspace)
        replica_calls = self._count_handles(replica)
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                # No bound: read-your-writes, the primary answers.
                client.insights(_request())
                assert (len(primary_calls), len(replica_calls)) == (1, 0)
                # Bounded and caught up: the replica answers, and the
                # payload names the same snapshot the primary would.
                bounded = client.insights(_request(), max_lag_seq=0)
                assert (len(primary_calls), len(replica_calls)) == (1, 1)
                assert (bounded.dataset_version, bounded.dataset_seq) == (1, 1)
        replica.close()

    def test_stale_replica_falls_back_to_the_primary(self, tmp_path,
                                                     base_table, stream):
        from repro.service import LocalFeedSource

        workspace = _primary(tmp_path, base_table)
        workspace.append("live", stream[:4])
        replica = ReplicaWorkspace(LocalFeedSource(str(tmp_path)))
        replica.sync()
        # The primary moves on; the replica's tailer has *observed* the
        # new tip but not yet applied it (the state a routing read sees
        # between capped sync batches).
        workspace.append("live", stream[4:8])
        replica._rstate["live"].primary_seq = 2
        assert replica.replica_lag() == {"live": 1}
        server = ReproServer(workspace,
                             ServerConfig(port=0, coalesce_window=0.0),
                             replicas=[replica])
        replica_calls = self._count_handles(replica)
        with server.start_in_thread() as handle:
            with ReproClient(*handle.address) as client:
                # Too stale for a zero bound: the primary answers.
                response = client.insights(_request(), max_lag_seq=0)
                assert (response.dataset_version, response.dataset_seq) == \
                    (1, 2)
                assert replica_calls == []
                # A bound of 1 tolerates the lag: the replica answers
                # with the snapshot it actually holds.
                relaxed = client.insights(_request(), max_lag_seq=1)
                assert (relaxed.dataset_version, relaxed.dataset_seq) == (1, 1)
                assert replica_calls == ["live"]
        replica.close()


class TestMaxLagSeqDto:
    def test_negative_bound_is_rejected(self):
        with pytest.raises(ProtocolError, match="max_lag_seq"):
            _request(max_lag_seq=-1)

    def test_bound_stays_out_of_the_canonical_key(self):
        bounded = _request(max_lag_seq=3)
        unbounded = _request()
        assert bounded.canonical_key() == unbounded.canonical_key()
        assert "max_lag_seq" not in bounded.to_dict()
        # ...but the wire reader honours an explicitly shipped bound.
        payload = bounded.to_dict()
        payload["max_lag_seq"] = 3
        assert InsightRequest.from_dict(payload).max_lag_seq == 3
