"""The event-loop paths of ``POST /v1/insights``.

A request whose reply the workspace already holds is answered on the
event loop, inside its admission block and before anything is parked:
no coalesce window, no worker thread, the cached bytes as they stand.
So is a miss the snapshot's insight index can rank without enumerating
or scoring (``TestWarmMiss``).  Pinned here: the loop never waits for a
dataset's entry lock, a hit or a warm miss issues no executor hand-off,
the reply is the worker thread's reply byte for byte, the counters and
the request span say what happened, and quota / overload refusals do
not care whether the key was warm.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.ingest import IngestConfig
from repro.server import ReproClient, ReproServer, ServerConfig, serving
from repro.service import (
    InsightRequest,
    LocalFeedSource,
    ReplicaWorkspace,
    Workspace,
)
from tests.server.conftest import HeldEntryLock, stable_payload, wait_for

WARM = InsightRequest(dataset="demo", insight_classes=("skew", "outliers"),
                      top_k=3)
COLD = InsightRequest(dataset="demo", insight_classes=("dispersion",), top_k=2)


def _post(address, request: InsightRequest, **extra) -> tuple[int, bytes]:
    """One exchange on its own connection; the reply's bytes untouched."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        body = json.dumps({**request.to_dict(), **extra})
        connection.request("POST", "/v1/insights", body=body)
        reply = connection.getresponse()
        return reply.status, reply.read()
    finally:
        connection.close()


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@pytest.fixture()
def warm_workspace(server_workspace) -> Workspace:
    """Engine built and ``WARM`` cached at ``(1, 0)``."""
    assert server_workspace.handle(WARM).provenance["cache"] == "miss"
    return server_workspace


@pytest.fixture()
def executor_hops(monkeypatch) -> list[str]:
    """Names of the functions handed to ``run_in_executor``, in order."""
    hops: list[str] = []
    real = asyncio.BaseEventLoop.run_in_executor

    def spying(loop, executor, func, *args):
        hops.append(getattr(func, "__qualname__", repr(func)))
        return real(loop, executor, func, *args)

    monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", spying)
    return hops


class TestEventLoopSafety:
    @pytest.mark.parametrize("window", [0.0, 0.005],
                             ids=["direct", "coalesced"])
    def test_a_hit_never_leaves_the_loop(self, warm_workspace, executor_hops,
                                         window):
        config = ServerConfig(port=0, coalesce_window=window)
        with serving(warm_workspace, config) as handle:
            for _ in range(5):
                status, body = _post(handle.address, WARM)
                assert status == 200
                assert json.loads(body)["provenance"]["cache"] == "hit"
            assert executor_hops == []
            with ReproClient(*handle.address) as client:
                coalesce = client.metrics()["server"]["coalesce"]
        assert coalesce["fast_hits"] == 5
        assert coalesce["coalesced_requests"] == 0
        assert coalesce["direct_requests"] == 0

    def test_an_append_in_flight_sends_warm_keys_to_the_slow_path(
        self, warm_workspace, server_table, executor_hops
    ):
        """The loop must not wait for the entry lock, and must not answer
        from the ``(version, seq)`` the append is moving away from."""
        config = ServerConfig(port=0, coalesce_window=0.005)
        replies: list[dict] = []

        def ask(address) -> None:
            status, body = _post(address, WARM)
            assert status == 200
            replies.append(json.loads(body))

        with serving(warm_workspace, config) as handle:
            held = HeldEntryLock(warm_workspace,
                                 rows=server_table.to_records()[:3])
            try:
                askers = [threading.Thread(target=ask, args=(handle.address,))
                          for _ in range(4)]
                for asker in askers:
                    asker.start()
                # Every asker is parked behind the lock on a worker
                # thread; the loop itself still answers.
                wait_for(lambda: handle.server.admission.snapshot()
                         ["in_flight"] >= 1)
                with ReproClient(*handle.address) as client:
                    assert client.healthz()["status"] == "ok"
                # ... for at least one full lag sample with the lock held.
                monitor = handle.server.loop_lag
                sampled = monitor.samples
                wait_for(lambda: monitor.samples > sampled + 1)
                assert replies == []
            finally:
                held.release()
            for asker in askers:
                asker.join(timeout=30)
            lag = handle.server.loop_lag.snapshot()
            hops = list(executor_hops)
            with ReproClient(*handle.address) as client:
                coalesce = client.metrics()["server"]["coalesce"]

        assert len(replies) == 4
        for reply in replies:
            # After the append, from the snapshot it published: seq 0 was
            # cached and is never served again.
            assert (reply["dataset_version"], reply["dataset_seq"]) == (1, 1)
            assert "coalesced" in reply["provenance"]
        assert coalesce["fast_hits"] == 0
        assert coalesce["coalesced_requests"] == 4
        # One hand-off per dispatched batch, none per request.
        assert 1 <= len(hops) <= 4
        assert lag["trips"] == 0

    def test_a_held_lock_alone_sends_warm_keys_to_the_slow_path(
        self, warm_workspace
    ):
        """No state change at all: the peek still says no while it would
        have to wait, and the worker thread answers the hit afterwards."""
        config = ServerConfig(port=0, coalesce_window=0.0)
        with serving(warm_workspace, config) as handle:
            held = HeldEntryLock(warm_workspace)
            outcome: dict[str, bytes] = {}
            asker = threading.Thread(target=lambda: outcome.update(
                body=_post(handle.address, WARM)[1]))
            asker.start()
            try:
                wait_for(lambda: handle.server.admission.snapshot()
                         ["in_flight"] == 1)
                assert not outcome
            finally:
                held.release()
            asker.join(timeout=30)
            with ReproClient(*handle.address) as client:
                coalesce = client.metrics()["server"]["coalesce"]
        reply = json.loads(outcome["body"])
        assert reply["provenance"]["cache"] == "hit"
        assert (reply["dataset_version"], reply["dataset_seq"]) == (1, 0)
        assert (coalesce["fast_hits"], coalesce["direct_requests"]) == (0, 1)


#: A distinct key over ``WARM``'s classes: a miss the index answers.
WARM_MISS = InsightRequest(dataset="demo", insight_classes=("skew", "outliers"),
                           top_k=2)


class TestWarmMiss:
    """A miss whose classes the snapshot's index already holds is ranked
    on the loop (``Workspace.answer_warm``) and sent as ``handle``'s miss
    reply; anything else still goes to the coalescer or the pool."""

    @pytest.mark.parametrize("window", [0.0, 0.005],
                             ids=["direct", "coalesced"])
    def test_a_warm_miss_never_leaves_the_loop(self, warm_workspace,
                                               server_table, executor_hops,
                                               window):
        config = ServerConfig(port=0, coalesce_window=window)
        with serving(warm_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                reply = client.insights(WARM_MISS)
                trace = client.trace(client.last_trace_id)
                metrics = client.metrics()
            assert executor_hops == []
        assert reply.provenance == {"cache": "miss", "mode": "approximate"}
        fresh = Workspace()
        fresh.register("demo", lambda: server_table)
        assert stable_payload(reply) == stable_payload(fresh.handle(WARM_MISS))
        coalesce = metrics["server"]["coalesce"]
        assert (coalesce["fast_hits"], coalesce["coalesced_requests"],
                coalesce["direct_requests"]) == (0, 0, 0)
        cache = metrics["workspace"]["cache"]
        assert (cache["hits"], cache["misses"]) == (0, 2)
        assert trace["root"]["attributes"]["answered"] == "loop"
        [child] = trace["root"]["children"]  # no coalesce.wait
        assert child["attributes"] == {"cache": "miss", "dataset": "demo"}
        [execute] = child["children"]
        assert execute["name"] == "pipeline.execute"
        assert execute["attributes"]["index_hits"] > 0
        assert trace["cost"]["cache_misses"] == 1

    def test_a_cold_miss_and_a_held_lock_go_to_the_coalescer(
        self, warm_workspace
    ):
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(warm_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                cold = client.insights(COLD)
                cold_trace = client.trace(client.last_trace_id)
            held = HeldEntryLock(warm_workspace)
            outcome: dict[str, bytes] = {}
            asker = threading.Thread(target=lambda: outcome.update(
                body=_post(handle.address, WARM_MISS)[1]))
            asker.start()
            try:
                wait_for(lambda: handle.server.admission.snapshot()
                         ["in_flight"] == 1)
                assert not outcome
            finally:
                held.release()
            asker.join(timeout=30)
        assert "coalesced" in cold.provenance
        assert cold_trace["root"]["attributes"]["answered"] == "coalescer"
        reply = json.loads(outcome["body"])
        assert reply["provenance"]["cache"] == "miss"
        assert reply["provenance"]["coalesced"] == {"index": 0, "size": 1}

    def test_a_hit_is_answered_on_the_loop_too(self, warm_workspace):
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(warm_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(WARM)
                trace = client.trace(client.last_trace_id)
        assert trace["root"]["attributes"]["answered"] == "loop"


class TestCoalesceWindow:
    def test_a_miss_beside_a_write_in_flight_is_windowed(
        self, warm_workspace, server_table
    ):
        """A lone miss on an idle server dispatches at once; one that
        arrives while an append is in flight waits for the window."""
        config = ServerConfig(port=0, coalesce_window=0.005)
        beside = InsightRequest(dataset="demo", insight_classes=("outliers",),
                                top_k=4)
        outcome: dict[str, object] = {}

        def append() -> None:
            with ReproClient(*handle.address) as client:
                outcome["append"] = client.append_rows(
                    "demo", server_table.to_records()[:2])

        def read() -> None:
            outcome["read"] = _post(handle.address, beside)

        with serving(warm_workspace, config) as handle:
            stats = handle.server._coalescer.stats
            assert _post(handle.address, COLD)[0] == 200
            with ReproClient(*handle.address) as client:
                before = client.metrics()["server"]["coalesce"]
            assert (before["batches"], before["immediate_dispatches"]) == (1, 1)
            held = HeldEntryLock(warm_workspace)
            threads = [threading.Thread(target=append)]
            try:
                threads[0].start()
                wait_for(lambda: stats()["writes_in_flight"] == 1)
                threads.append(threading.Thread(target=read))
                threads[1].start()
                # The read's batch waited out the window and is now
                # dispatched, blocked behind the lock with the append.
                wait_for(lambda: stats()["dispatching"] == 1)
            finally:
                held.release()
            for thread in threads:
                thread.join(timeout=30)
            assert stats()["writes_in_flight"] == 0
            with ReproClient(*handle.address) as client:
                after = client.metrics()["server"]["coalesce"]
                windowed = sorted(
                    client.trace(t["trace_id"])["root"]["attributes"]
                    ["windowed"]
                    for t in client.traces()["traces"]
                    if t["name"] == "coalesce.batch")

        status, body = outcome["read"]
        assert status == 200
        assert json.loads(body)["provenance"]["coalesced"] == {
            "index": 0, "size": 1}
        assert outcome["append"]["seq"] == 1
        assert (after["batches"], after["immediate_dispatches"]) == (2, 1)
        assert windowed == [False, True]


class TestReplyContract:
    def test_a_fast_hit_is_the_worker_thread_hit_minus_coalesced(
        self, warm_workspace
    ):
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(warm_workspace, config) as handle:
            _, fast = _post(handle.address, WARM)
            held = HeldEntryLock(warm_workspace)
            outcome: dict[str, bytes] = {}
            asker = threading.Thread(target=lambda: outcome.update(
                body=_post(handle.address, WARM)[1]))
            asker.start()
            wait_for(lambda: handle.server.admission.snapshot()
                     ["in_flight"] == 1)
            held.release()
            asker.join(timeout=30)
        slow = json.loads(outcome["body"])
        assert slow["provenance"].pop("coalesced") == {"index": 0, "size": 1}
        assert fast == _canonical(slow)
        assert "coalesced" not in json.loads(fast)["provenance"]
        # ... and is what the cache holds, to the byte.
        [key] = warm_workspace.cache.keys()
        assert fast == warm_workspace.cache.peek(key).encode()

    def test_debug_echoes_cost_without_forking_the_cached_payload(
        self, warm_workspace
    ):
        [key] = warm_workspace.cache.keys()
        stored = warm_workspace.cache.peek(key)
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(warm_workspace, config) as handle:
            _, debugged = _post(handle.address, WARM, debug=True)
            _, plain = _post(handle.address, WARM)
            with ReproClient(*handle.address) as client:
                assert client.metrics()["server"]["coalesce"]["fast_hits"] == 2
        reply = json.loads(debugged)
        cost = reply["provenance"].pop("cost")
        assert (cost["cache_hits"], cost["cache_misses"]) == (1, 0)
        assert _canonical(reply) == plain == stored.encode()
        assert warm_workspace.cache.keys() == [key]
        assert warm_workspace.cache.peek(key) is stored

    def test_counters_are_exact_and_say_what_happened(self, server_workspace):
        server_workspace.engine("demo")
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(server_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                for request in (WARM, COLD, WARM, WARM, COLD):
                    client.insights(request)
                metrics = client.metrics()
                text = client.metrics_text()
        cache = metrics["workspace"]["cache"]
        coalesce = metrics["server"]["coalesce"]
        # Five reads, five lookups that counted: a peek that found
        # nothing left the miss to the slow path, which counted it once.
        assert (cache["hits"], cache["misses"]) == (3, 2)
        assert (coalesce["fast_hits"], coalesce["coalesced_requests"]) == (3, 2)
        assert "repro_fast_hits_total 3" in text.splitlines()
        totals = metrics["resources"]["costs"]["totals"]
        assert (totals["cache_hits"], totals["cache_misses"]) == (3, 2)
        assert metrics["admission"]["admitted_total"] == 5

    def test_a_fast_hit_is_one_span_under_the_request_root(
        self, warm_workspace
    ):
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(warm_workspace, config) as handle:
            with ReproClient(*handle.address) as client:
                client.insights(WARM)
                trace = client.trace(client.last_trace_id)
        assert trace["name"] == "request"
        [child] = trace["root"]["children"]  # no coalesce.wait
        assert child["name"] == "workspace.handle"
        assert child["attributes"] == {"cache": "hit", "dataset": "demo"}
        assert child["children"] == []
        # The same bill a worker-thread hit leaves with its trace.
        assert (trace["cost"]["cache_hits"], trace["cost"]["cache_misses"]) \
            == (1, 0)

    def test_hit_recency_is_refreshed(self, server_workspace):
        server_workspace.handle(WARM)
        server_workspace.handle(COLD)
        warm_key, cold_key = server_workspace.cache.keys()
        config = ServerConfig(port=0, coalesce_window=0.005)
        with serving(server_workspace, config) as handle:
            assert _post(handle.address, WARM)[0] == 200
        assert server_workspace.cache.keys() == [cold_key, warm_key]


class TestAdmissionDoesNotCareAboutWarmth:
    """429 and 503 are decided before the lookup, so a warm key is
    refused exactly as a cold one is."""

    @pytest.mark.parametrize("window", [0.0, 0.005],
                             ids=["direct", "coalesced"])
    @pytest.mark.parametrize("request_", [WARM, COLD], ids=["warm", "cold"])
    def test_dataset_over_quota_is_429(self, warm_workspace, window, request_):
        config = ServerConfig(port=0, coalesce_window=window, dataset_quota=1,
                              retry_after=2.0)
        self._refused(warm_workspace, config, request_, 429,
                      "dataset_quota_exceeded")

    @pytest.mark.parametrize("request_", [WARM, COLD], ids=["warm", "cold"])
    def test_class_over_quota_is_429(self, warm_workspace, request_):
        # The blocker below asks for "normality"; so does this twin.
        twin = InsightRequest(
            dataset="demo", top_k=request_.top_k,
            insight_classes=request_.insight_classes + ("normality",))
        if request_ is WARM:
            warm_workspace.handle(twin)
        config = ServerConfig(port=0, coalesce_window=0.005, class_quota=1,
                              retry_after=2.0)
        self._refused(warm_workspace, config, twin, 429,
                      "class_quota_exceeded")

    @pytest.mark.parametrize("window,limits", [
        (0.0, {"max_in_flight": 1, "queue_limit": 0}),
        (0.005, {"queue_limit": 1}),
    ], ids=["direct", "coalesced"])
    @pytest.mark.parametrize("request_", [WARM, COLD], ids=["warm", "cold"])
    def test_full_queue_is_503(self, warm_workspace, window, limits, request_):
        config = ServerConfig(port=0, coalesce_window=window, retry_after=2.0,
                              **limits)
        self._refused(warm_workspace, config, request_, 503, "overloaded")

    @staticmethod
    def _refused(workspace, config, request, status, code) -> None:
        blocker = InsightRequest(dataset="demo",
                                 insight_classes=("normality",), top_k=1)
        with serving(workspace, config) as handle:
            held = HeldEntryLock(workspace)
            asker = threading.Thread(
                target=_post, args=(handle.address, blocker))
            asker.start()
            try:
                wait_for(lambda: handle.server.admission.snapshot()
                          ["in_flight_by_dataset"].get("demo") == 1)
                with ReproClient(*handle.address) as client:
                    raw = client.request_raw("POST", "/v1/insights",
                                             request.to_dict())
                    assert (raw.status, raw.payload["code"]) == (status, code)
                    assert raw.headers["retry-after"] == "2"
                    coalesce = client.metrics()["server"]["coalesce"]
                    assert coalesce["fast_hits"] == 0
            finally:
                held.release()
                asker.join(timeout=30)


class TestReplicaRouting:
    def test_a_routed_read_peeks_the_replica_it_was_routed_to(
        self, tmp_path, server_table
    ):
        primary = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        primary.register("demo", server_table)
        primary.handle(WARM)
        replica = ReplicaWorkspace(LocalFeedSource(str(tmp_path)))
        replica.sync()
        server = ReproServer(primary, ServerConfig(port=0),
                             replicas=[replica])
        try:
            with server.start_in_thread() as handle:
                with ReproClient(*handle.address) as client:
                    # Warm on the primary, cold on the replica: the peek
                    # asks the replica, hears no, and the replica computes.
                    first = client.insights(WARM, max_lag_seq=0)
                    assert first.provenance["cache"] == "miss"
                    assert primary.cache_info()["hits"] == 0
                    second = client.insights(WARM, max_lag_seq=0)
                    assert second.provenance["cache"] == "hit"
                    coalesce = client.metrics()["server"]["coalesce"]
            assert (replica.cache_info()["hits"],
                    replica.cache_info()["misses"]) == (1, 1)
            assert (primary.cache_info()["hits"],
                    primary.cache_info()["misses"]) == (0, 1)
            assert (coalesce["fast_hits"], coalesce["direct_requests"]) == (1, 1)
        finally:
            replica.close()
            primary.close()
