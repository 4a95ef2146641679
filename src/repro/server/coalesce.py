"""Request coalescing: micro-batch concurrent singles into one batch call.

Concurrent ``POST /v1/insights`` arrivals within a small window are
collected and dispatched as **one** ``Workspace.handle_many`` call.
Enumeration and scoring are shared whether or not requests ride one
batch — each published snapshot's insight index
(:class:`repro.core.pipeline.InsightIndex`) does it for every request on
that snapshot.  What the coalescer still changes is scheduling: a miss
that arrives while a write is in flight waits out the window before it
dispatches, which paces reads beside an append.

What rides a batch is what can share work: the server submits a request
here only after ``Workspace.peek_cached`` said the result cache does not
hold its reply and ``Workspace.answer_warm`` said the snapshot's insight
index cannot rank it without enumerating or scoring.  A hit or a warm
miss at arrival has nothing to share and nothing to wait for — it is
answered on the event loop and never enters the window.

Mechanics: a batch opens on the first arrival, and how long it stays
open depends on whether a rider can come.  On an **idle** coalescer —
no batch dispatching and no write request in flight on the server (the
app brackets its write handlers with :meth:`writing`) — nothing else is
running to send one, so the batch flushes on the next loop tick:
arrivals of the same tick (an ``asyncio.gather`` of submits) still
share it, and a lone miss waits for nobody.  While the server is busy
the first arrival starts the window timer instead, and later arrivals
join until the window elapses or the batch reaches ``max_batch``,
whichever comes first.  The blocking dispatch runs on a worker thread
(the event loop never blocks), and each caller's future resolves with
its own response.

Responses get transport provenance: the per-request ``batch`` entry that
``handle_many`` stamps is replaced by ``coalesced`` (``{"index", "size"}``)
recording how the transport batched it — present exactly on the replies
that rode a batch.  Like ``batch``, the entry is
stamped after the response left the result cache, so cached payloads
stay byte-identical however requests were coalesced.

The coalescer is event-loop native: ``submit`` must be called from the
owning loop.  :meth:`aclose` flushes whatever is pending and waits for
outstanding dispatches — the server's graceful drain calls it so no
accepted request is dropped on shutdown.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.config import ObsConfig
from repro.obs.tracer import Tracer, bind
from repro.service.dto import InsightRequest, InsightResponse
from repro.server.admission import AdmissionController
from repro.server.metrics import ServerMetrics

#: A blocking batch dispatcher — in production ``Workspace.handle_many``.
DispatchFn = Callable[[list[InsightRequest]], list[InsightResponse]]


class RequestCoalescer:
    """Collects concurrent single requests and dispatches them as batches.

    With an ``admission`` controller the coalescer participates in
    coalescer-aware admission: each *dispatched batch* holds exactly one
    in-flight slot (``begin_batch``/``end_batch``) for the duration of
    its ``handle_many`` call, while the requests riding in it were
    already quota-checked and parked at arrival.  Without one (the
    default, and the unit-test configuration) dispatch is ungated.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        window: float = 0.005,
        max_batch: int = 16,
        metrics: ServerMetrics | None = None,
        executor: Executor | None = None,
        admission: AdmissionController | None = None,
        tracer: Tracer | None = None,
    ):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch = dispatch
        self.window = window
        self.max_batch = max_batch
        self._metrics = metrics
        self._executor = executor
        self._admission = admission
        # No tracer = a disabled one: every span call is then the shared
        # no-op, so the dispatch path below needs no branching.
        self._tracer = (tracer if tracer is not None
                        else Tracer(ObsConfig(enabled=False)))
        self._pending: list[
            tuple[InsightRequest, asyncio.Future, float, str | None]
        ] = []
        #: The open batch's flush: next tick when it opened idle, after
        #: ``window`` when it opened busy (``_windowed``).
        self._timer: asyncio.Handle | None = None
        self._windowed = False
        self._tasks: set[asyncio.Task] = set()
        #: Batches flushed and not yet resolved, admission wait included.
        self._dispatching = 0
        self._writes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: InsightRequest,
                     trace_id: str | None = None) -> InsightResponse:
        """Join the pending batch and wait for this request's response.

        ``trace_id`` names the submitting request's trace; the batch
        trace's per-rider spans carry it as ``request_trace_id`` so the
        two traces cross-reference each other.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self._pending:
            self._windowed = bool(self._dispatching or self._writes)
        self._pending.append((request, future, loop.time(), trace_id))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            self._timer = (loop.call_later(self.window, self._flush)
                           if self._windowed else loop.call_soon(self._flush))
        return await future

    @contextmanager
    def writing(self) -> Iterator[None]:
        """Mark a write request in flight: misses meanwhile keep the window.

        Under the GIL a miss dispatched at once competes with the write
        for the same core; one that waits out the window leaves the
        writer that time.
        """
        self._writes += 1
        try:
            yield
        finally:
            self._writes -= 1

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Dispatch the pending batch (no-op when nothing is pending)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._dispatching += 1
        task = asyncio.ensure_future(
            self._dispatch_batch(batch, self._windowed))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _dispatch_batch(
        self,
        batch: list[tuple[InsightRequest, asyncio.Future, float, str | None]],
        windowed: bool,
    ) -> None:
        try:
            responses = await self._run_batch(batch, windowed)
        except Exception as exc:  # noqa: BLE001 - forwarded to each caller
            responses = [exc] * len(batch)
        finally:
            # Idle again before any rider resumes: a caller that submits
            # right after its answer finds no dispatch running.
            self._dispatching -= 1
        size = len(batch)
        for index, ((_, future, _, _), response) in enumerate(
            zip(batch, responses)
        ):
            if future.done():
                continue
            # Dispatchers may isolate per-request failures by returning
            # the exception in that request's slot (see the server's
            # batch dispatcher); forward it to just that caller.
            if isinstance(response, BaseException):
                future.set_exception(response)
                continue
            provenance = dict(response.provenance)
            provenance.pop("batch", None)
            provenance["coalesced"] = {"index": index, "size": size}
            response.provenance = provenance
            future.set_result(response)

    async def _run_batch(
        self,
        batch: list[tuple[InsightRequest, asyncio.Future, float, str | None]],
        windowed: bool,
    ) -> list[InsightResponse]:
        loop = asyncio.get_running_loop()
        requests = [request for request, _, _, _ in batch]
        if self._admission is not None:
            # One in-flight slot per dispatched batch, however many
            # requests ride in it.  Waits for capacity rather than
            # rejecting: every rider already passed admission at
            # arrival.
            await self._admission.begin_batch(len(batch))
        # Measured after the slot wait: the recorded latency is what the
        # riders actually experienced between arrival and dispatch.
        wait_seconds = loop.time() - batch[0][2]
        # One timestamp for every rider wait — the per-rider trace spans
        # and the metrics aggregate must sum to the same total, so both
        # read from this one list.
        now = loop.time()
        rider_waits = [now - arrived for _, _, arrived, _ in batch]
        batch_span = self._tracer.start_span("coalesce.batch")
        try:
            batch_span.set_attribute("size", len(batch))
            batch_span.set_attribute("windowed", windowed)
            batch_span.set_attribute("window_wait_seconds", wait_seconds)
            for index, ((request, _, _, trace_id), rider_wait) in enumerate(
                zip(batch, rider_waits)
            ):
                # Near-instant spans whose attributes record what
                # coalescing cost each rider: its position, how long it
                # was parked, and the request trace it answers to.
                rider = self._tracer.start_span("coalesce.rider",
                                                parent=batch_span)
                try:
                    rider.set_attribute("index", index)
                    rider.set_attribute("dataset", request.dataset)
                    rider.set_attribute("wait_seconds", rider_wait)
                    if trace_id is not None:
                        rider.set_attribute("request_trace_id", trace_id)
                finally:
                    rider.end()
            dispatch_span = self._tracer.start_span("coalesce.dispatch",
                                                    parent=batch_span)
            try:
                # bind() re-establishes the dispatch span as ambient on
                # the worker thread, so the handle_many spans beneath
                # nest inside this batch trace.
                responses = await loop.run_in_executor(
                    self._executor, bind(dispatch_span, self._dispatch),
                    requests,
                )
            finally:
                dispatch_span.end()
                if self._admission is not None:
                    await self._admission.end_batch(len(batch))
        finally:
            batch_span.end()
        if self._metrics is not None:
            self._metrics.record_batch(len(batch), wait_seconds,
                                       rider_waits=rider_waits,
                                       windowed=windowed)
        return responses

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests currently waiting in the open batch."""
        return len(self._pending)

    def stats(self) -> dict[str, Any]:
        return {
            "window_seconds": self.window,
            "max_batch": self.max_batch,
            "pending": len(self._pending),
            "dispatching": self._dispatching,
            "writes_in_flight": self._writes,
        }

    async def aclose(self, timeout: float | None = None) -> None:
        """Flush the open batch and wait for every outstanding dispatch.

        With a ``timeout``, dispatches still running when it expires are
        cancelled (their callers see ``CancelledError``) so shutdown
        stays bounded even when the engine is stuck mid-call.
        """
        self._closed = True
        self._flush()
        while self._tasks:
            pending = asyncio.gather(*list(self._tasks), return_exceptions=True)
            if timeout is None:
                await pending
            else:
                try:
                    await asyncio.wait_for(pending, timeout)
                except asyncio.TimeoutError:
                    break


__all__ = ["DispatchFn", "RequestCoalescer"]
