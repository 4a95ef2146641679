"""RequestCoalescer unit tests with a scripted dispatcher (no sockets)."""

from __future__ import annotations

import asyncio

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
            coalescer = RequestCoalescer(dispatch, window=30.0, max_batch=8)
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
