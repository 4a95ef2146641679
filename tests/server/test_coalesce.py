"""RequestCoalescer unit tests with a scripted dispatcher (no sockets)."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.server import RequestCoalescer, ServerMetrics
from repro.service import InsightRequest, InsightResponse


def make_request(top_k: int = 3) -> InsightRequest:
    return InsightRequest(dataset="demo", insight_classes=("skew",), top_k=top_k)


def make_response(request: InsightRequest) -> InsightResponse:
    return InsightResponse(
        dataset=request.dataset,
        dataset_version=1,
        carousels=[{"insight_class": "skew", "label": "Skew", "insights": [],
                    "n_admitted": request.top_k, "truncated": False}],
        provenance={"cache": "miss", "batch": {"index": 0, "size": 1}},
    )


class _ScriptedDispatch:
    """Records batches; returns one response (or scripted error) per item."""

    def __init__(self, fail_top_k: int | None = None):
        self.batches: list[list[InsightRequest]] = []
        self._fail_top_k = fail_top_k

    def __call__(self, requests):
        self.batches.append(list(requests))
        results = []
        for request in requests:
            if self._fail_top_k is not None and request.top_k == self._fail_top_k:
                results.append(ValueError(f"scripted failure for {request.top_k}"))
            else:
                results.append(make_response(request))
        return results


class TestBatching:
    def test_concurrent_submits_coalesce_into_one_batch(self):
        async def scenario():
            dispatch = _ScriptedDispatch()
            coalescer = RequestCoalescer(dispatch, window=0.02, max_batch=8)
            responses = await asyncio.gather(
                coalescer.submit(make_request(1)),
                coalescer.submit(make_request(2)),
                coalescer.submit(make_request(3)),
            )
            assert len(dispatch.batches) == 1
            assert [r.top_k for r in dispatch.batches[0]] == [1, 2, 3]
            # Responses map back to their own submitters, in order.
            assert [r.provenance["coalesced"]["index"] for r in responses] == [0, 1, 2]
            assert all(r.provenance["coalesced"]["size"] == 3 for r in responses)
            # The transport-layer entry replaces handle_many's batch entry.
            assert all("batch" not in r.provenance for r in responses)

        asyncio.run(scenario())

    def test_max_batch_flushes_without_waiting_for_the_window(self):
        async def scenario():
            dispatch = _ScriptedDispatch()
            # A window far longer than the test: only the size trigger can flush.
            coalescer = RequestCoalescer(dispatch, window=30.0, max_batch=2)
            await asyncio.gather(
                coalescer.submit(make_request(1)), coalescer.submit(make_request(2))
            )
            assert len(dispatch.batches) == 1
            assert len(dispatch.batches[0]) == 2

        asyncio.run(scenario())

    def test_sequential_submits_with_gaps_stay_separate(self):
        async def scenario():
            dispatch = _ScriptedDispatch()
            coalescer = RequestCoalescer(dispatch, window=0.005, max_batch=8)
            await coalescer.submit(make_request(1))
            await coalescer.submit(make_request(2))
            assert len(dispatch.batches) == 2

        asyncio.run(scenario())

    def test_metrics_record_batches(self):
        async def scenario():
            metrics = ServerMetrics()
            dispatch = _ScriptedDispatch()
            coalescer = RequestCoalescer(
                dispatch, window=0.02, max_batch=8, metrics=metrics
            )
            await asyncio.gather(
                coalescer.submit(make_request(1)), coalescer.submit(make_request(2))
            )
            snapshot = metrics.snapshot()["coalesce"]
            assert snapshot["batches"] == 1
            assert snapshot["coalesced_requests"] == 2
            assert snapshot["max_batch_size"] == 2

        asyncio.run(scenario())


class TestIdleRule:
    """A batch opened on an idle coalescer flushes on the next tick; one
    opened while a dispatch runs waits for the window."""

    def test_a_lone_submit_on_an_idle_coalescer_dispatches_at_once(self):
        async def scenario():
            metrics = ServerMetrics()
            dispatch = _ScriptedDispatch()
            # A window far longer than the test: only the idle rule flushes.
            coalescer = RequestCoalescer(dispatch, window=30.0, max_batch=8,
                                         metrics=metrics)
            for top_k in (1, 2):
                response = await asyncio.wait_for(
                    coalescer.submit(make_request(top_k)), 5)
                assert response.provenance["coalesced"] == {"index": 0,
                                                            "size": 1}
            # Answered and idle again: the second lone submit was too.
            assert [len(batch) for batch in dispatch.batches] == [1, 1]
            assert metrics.snapshot()["coalesce"]["immediate_dispatches"] == 2
            assert coalescer.stats()["dispatching"] == 0

        asyncio.run(scenario())

    def test_a_submit_during_a_dispatch_waits_and_rides_with_later_ones(self):
        async def scenario():
            started, release = threading.Event(), threading.Event()
            batches: list[list[int]] = []

            def dispatch(requests):
                batches.append([request.top_k for request in requests])
                if len(batches) == 1:
                    started.set()
                    assert release.wait(10), "first dispatch never released"
                return [make_response(request) for request in requests]

            metrics = ServerMetrics()
            # Clock-free: the window never elapses, max_batch flushes.
            coalescer = RequestCoalescer(dispatch, window=30.0, max_batch=2,
                                         metrics=metrics)
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(coalescer.submit(make_request(1)))
            assert await loop.run_in_executor(None, started.wait, 10)
            assert coalescer.stats()["dispatching"] == 1
            second = asyncio.ensure_future(coalescer.submit(make_request(2)))
            for _ in range(5):
                await asyncio.sleep(0)
            assert coalescer.pending == 1 and not second.done()
            release.set()
            await asyncio.wait_for(first, 5)
            # The first batch is answered; the second still waits for a
            # rider, and the next arrival fills it.
            assert coalescer.pending == 1 and not second.done()
            third = await asyncio.wait_for(
                coalescer.submit(make_request(3)), 5)
            second = await asyncio.wait_for(second, 5)
            assert batches == [[1], [2, 3]]
            assert second.provenance["coalesced"] == {"index": 0, "size": 2}
            assert third.provenance["coalesced"] == {"index": 1, "size": 2}
            assert metrics.snapshot()["coalesce"]["immediate_dispatches"] == 1

        asyncio.run(scenario())


class TestFailureIsolation:
    def test_exception_item_fails_only_its_own_caller(self):
        async def scenario():
            dispatch = _ScriptedDispatch(fail_top_k=2)
            coalescer = RequestCoalescer(dispatch, window=0.02, max_batch=8)
            results = await asyncio.gather(
                coalescer.submit(make_request(1)),
                coalescer.submit(make_request(2)),
                coalescer.submit(make_request(3)),
                return_exceptions=True,
            )
            assert isinstance(results[0], InsightResponse)
            assert isinstance(results[1], ValueError)
            assert isinstance(results[2], InsightResponse)
            assert len(dispatch.batches) == 1

        asyncio.run(scenario())

    def test_dispatcher_crash_fails_the_whole_batch(self):
        async def scenario():
            def dispatch(requests):
                raise RuntimeError("engine exploded")

            coalescer = RequestCoalescer(dispatch, window=0.02, max_batch=8)
            results = await asyncio.gather(
                coalescer.submit(make_request(1)),
                coalescer.submit(make_request(2)),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        asyncio.run(scenario())


class TestLifecycle:
    def test_aclose_flushes_the_pending_batch(self):
        async def scenario():
            dispatch = _ScriptedDispatch()
            # The window never fires inside the test; only aclose flushes.
            # A write in flight makes the arrival wait for the window (an
            # idle coalescer would dispatch it on the next tick).
            coalescer = RequestCoalescer(dispatch, window=30.0, max_batch=8)
            with coalescer.writing():
                task = asyncio.create_task(coalescer.submit(make_request(1)))
                await asyncio.sleep(0.01)
                assert coalescer.pending == 1
            await coalescer.aclose()
            response = await task
            assert response.provenance["coalesced"] == {"index": 0, "size": 1}
            with pytest.raises(RuntimeError):
                await coalescer.submit(make_request(2))

        asyncio.run(scenario())

    def test_validation(self):
        def dispatch(requests):  # pragma: no cover - never dispatched
            return []

        with pytest.raises(ValueError):
            RequestCoalescer(dispatch, window=-1.0)
        with pytest.raises(ValueError):
            RequestCoalescer(dispatch, max_batch=0)
