"""The coalescer's batching contract over generated arrival schedules.

A schedule is a list of arrival groups — each a number of submits made
in one loop tick, then a gap shorter or longer than the window — with
dispatch durations for the fake dispatcher and a ``max_batch`` of 1-8.
Whatever the schedule, every submit resolves exactly once with its own
response, the dispatched batches partition the submits without
exceeding ``max_batch``, each reply's ``coalesced`` entry names its
place in the batch that carried it, and a batch opened on the idle rule
(``windowed`` false on its ``coalesce.batch`` trace) never dispatched
while another dispatch was running.
"""

from __future__ import annotations

import asyncio
import threading
import time

from hypothesis import given, settings, strategies as st

from repro.obs.config import ObsConfig
from repro.obs.tracer import Tracer
from repro.server import RequestCoalescer
from repro.service import InsightRequest, InsightResponse

WINDOW = 0.004

schedules = st.tuples(
    st.lists(st.tuples(st.integers(1, 4),
                       st.sampled_from([0.0, WINDOW / 4, WINDOW * 2])),
             min_size=1, max_size=5),
    st.lists(st.sampled_from([0.0, WINDOW / 2, WINDOW * 1.5]),
             min_size=1, max_size=4),
    st.integers(1, 8),
)


class _FakeDispatch:
    """Sleeps a scripted time per batch; records who overlapped whom."""

    def __init__(self, durations: list[float]):
        self._durations = durations
        self._lock = threading.Lock()
        self._running = 0
        #: The submit ids of each batch, in dispatch order.
        self.batches: list[list[int]] = []
        #: Batch (as a frozenset of ids) -> another dispatch was running.
        self.overlapped: dict[frozenset, bool] = {}

    def __call__(self, requests: list[InsightRequest]):
        ids = [request.top_k for request in requests]
        with self._lock:
            self.overlapped[frozenset(ids)] = self._running > 0
            self._running += 1
            duration = self._durations[len(self.batches) % len(self._durations)]
            self.batches.append(ids)
        time.sleep(duration)
        with self._lock:
            self._running -= 1
        return [InsightResponse(dataset=request.dataset, dataset_version=1,
                                carousels=[{"n_admitted": request.top_k}],
                                provenance={"batch": {"index": 0, "size": 1}})
                for request in requests]


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


@settings(max_examples=30, deadline=None)
@given(schedules)
def test_every_schedule_keeps_the_batching_contract(schedule):
    groups, durations, max_batch = schedule
    dispatch = _FakeDispatch(durations)
    tracer = Tracer(ObsConfig(ring_capacity=256))
    n_submits = sum(size for size, _ in groups)

    async def drive() -> list[InsightResponse]:
        coalescer = RequestCoalescer(dispatch, window=WINDOW,
                                     max_batch=max_batch, tracer=tracer)
        tasks = []
        for size, gap in groups:
            for _ in range(size):
                submit_id = len(tasks) + 1
                tasks.append(asyncio.ensure_future(coalescer.submit(
                    InsightRequest(dataset="demo", insight_classes=("skew",),
                                   top_k=submit_id),
                    trace_id=str(submit_id))))
            await asyncio.sleep(gap)
        responses = await asyncio.wait_for(asyncio.gather(*tasks), 30)
        assert coalescer.stats()["dispatching"] == 0
        return responses

    responses = asyncio.run(drive())

    # Each submit got its own response, exactly once.
    assert [r.carousels[0]["n_admitted"] for r in responses] \
        == list(range(1, n_submits + 1))
    # The batches partition the submits, none larger than max_batch.
    assert sorted(i for batch in dispatch.batches for i in batch) \
        == list(range(1, n_submits + 1))
    assert all(1 <= len(batch) <= max_batch for batch in dispatch.batches)
    # Each reply names its place in the batch that carried it.
    for batch in dispatch.batches:
        for index, submit_id in enumerate(batch):
            provenance = responses[submit_id - 1].provenance
            assert provenance["coalesced"] == {"index": index,
                                               "size": len(batch)}
            assert "batch" not in provenance
    # An immediate dispatch never ran beside another dispatch.
    traced = [tracer.trace(t["trace_id"])["root"] for t in tracer.traces()
              if t["name"] == "coalesce.batch"]
    assert len(traced) == len(dispatch.batches)
    for root in traced:
        ids = frozenset(int(span["attributes"]["request_trace_id"])
                        for span in _walk(root)
                        if span["name"] == "coalesce.rider")
        assert root["attributes"]["size"] == len(ids)
        if not root["attributes"]["windowed"]:
            assert not dispatch.overlapped[ids], sorted(ids)
