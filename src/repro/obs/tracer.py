"""Spans, ambient context and the completed-trace ring.

One :class:`Tracer` (owned by the workspace, shared by the HTTP server)
hands out :class:`Span` objects.  The lifecycle is deliberately
asymmetric between sync and async code:

* **Sync code** uses ``with tracer.span(...)`` (or the module helper
  :func:`obs_span` when it has no tracer reference).  Entering the span
  makes it the thread's *ambient* span, so nested layers — the
  pipeline's stages, the journal — parent to it without any plumbing.
* **Async code** uses :meth:`Tracer.start_span` and must call
  :meth:`Span.end` in a ``finally``.  Manual spans never touch the
  ambient stack: coroutines interleave on one thread, so thread-local
  context on the event loop would cross-wire concurrent requests.
  Parents are passed explicitly instead.  (The ``trace-hygiene`` lint
  rule enforces both disciplines.)

Context crosses thread boundaries explicitly: :func:`bind` pins a given
span as ambient around a callable (the server wraps its
``run_in_executor`` dispatches with it).  Below that hand-off a request
stays on one thread, so nothing else needs carrying.

Timing is monotonic (``perf_counter``) everywhere; the injectable wall
clock is consulted once per trace, on the root span, so the ranking
core's determinism contract is never in reach.  Each trace owns one
completed-span bucket: the root creates it, children inherit the
reference, and ending a span is a single GIL-atomic ``list.append``
into it — no lock, no registry, no cross-trace bookkeeping.  When a
*root* completes, its bucket is published under the one declared lock
(``obs.trace`` in the analyzer hierarchy) into the bounded ring served
by ``/v1/traces``, per-span-name duration histograms are updated, and a
``slow_request`` event fires if the root exceeded ``slow_ms``.  A trace
whose root never completes holds no tracer state at all — its bucket is
garbage-collected with its spans.  The nested node tree is assembled
lazily, on the first ``trace()`` read — most traces are evicted unread,
and assembly is the most expensive step by far.  Root spans must never
end while any other lock is held — every instrumented root ends after
its layer's locks are released.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.obs import lockhook
from repro.obs.config import ObsConfig
from repro.obs.events import emit as _emit_event
from repro.obs.histogram import LATENCY_BUCKETS, LatencyHistogram

#: Upper bounds (seconds) of per-span duration histogram buckets: the
#: request-latency bounds, so the server renders both through one
#: Prometheus helper.
SPAN_BUCKETS: tuple[float, ...] = LATENCY_BUCKETS

_ambient = threading.local()


def current_span() -> "Span | None":
    """The innermost ambient span on this thread (None outside any)."""
    stack = getattr(_ambient, "stack", None)
    if stack:
        return stack[-1]
    return None


def _push_ambient(span: "Span") -> None:
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = []
        _ambient.stack = stack
    stack.append(span)


def _pop_ambient(span: "Span") -> None:
    stack = getattr(_ambient, "stack", None)
    if stack and stack[-1] is span:
        stack.pop()


class Span:
    """One timed operation in a trace.  Create via the tracer, not directly.

    ``span_id``/``parent_id`` are plain ints here; they are rendered as
    hex strings only when a trace tree is assembled for ``/v1/traces``.
    ``bucket`` is the trace's own completed-span list: the root creates
    it, children inherit the reference, and :meth:`end` appends to it —
    one GIL-atomic append, no lock, no cross-trace bookkeeping.  A trace
    whose root never completes is garbage-collected with its spans; it
    can never leak into the tracer.  The hot-path methods are
    deliberately flat — every helper call costs more than the work it
    wraps at this size.
    """

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "attributes", "start_wall", "start_pc", "duration",
                 "bucket", "cost", "_ended", "_pushed")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: int, parent_id: int | None,
                 attributes: dict[str, Any], start_wall: float | None,
                 start_pc: float, bucket: list):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_wall = start_wall  # wall clock; roots only
        self.start_pc = start_pc
        self.bucket = bucket
        self.cost = None  # CostRecorder; published with the trace
        self.duration: float | None = None
        self._ended = False
        self._pushed = False

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_cost(self, recorder) -> None:
        """Attach a request's cost recorder; rides into the trace ring."""
        self.cost = recorder

    def end(self) -> None:
        """Finish the span (idempotent; only the first call records).

        Manual (``start_span``) spans only: never entered as context
        managers, so no ambient bookkeeping here — ``__exit__`` pops its
        own push before delegating.  (The lint's trace-hygiene rule pins
        each creation API to its matching completion shape.)
        """
        if self._ended:
            return
        self._ended = True
        self.duration = self.tracer.clock() - self.start_pc
        # Lock-free hot path: one GIL-atomic append per completed span.
        self.bucket.append(self)
        if self.parent_id is None:
            self.tracer._complete_root(self)

    def __enter__(self) -> "Span":
        self._pushed = True
        stack = getattr(_ambient, "stack", None)
        if stack is None:
            stack = _ambient.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._pushed:
            self._pushed = False
            stack = getattr(_ambient, "stack", None)
            if stack and stack[-1] is self:
                stack.pop()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.end()
        return False


class _NoopSpan:
    """Shared do-nothing span: what a disabled tracer hands out."""

    __slots__ = ()
    tracer = None
    trace_id = None
    span_id = None
    parent_id = None
    name = "noop"
    duration = None
    attributes: dict[str, Any] = {}

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_cost(self, recorder) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span factory, thread-local buffers, and the completed-trace ring."""

    def __init__(self, config: ObsConfig | None = None,
                 wall_clock: Callable[[], float] = time.time,
                 clock: Callable[[], float] = time.perf_counter):
        config = config or ObsConfig()
        self.enabled = config.enabled
        self.ring_capacity = config.ring_capacity
        self.slow_ms = config.slow_ms
        self.account_memory = config.resources_enabled
        self._wall = wall_clock
        #: The monotonic clock (public: :meth:`record_span` callers time
        #: with the same clock spans use, so tests can inject a fake).
        self.clock = clock
        self._ids = itertools.count(1)
        # A level-30 leaf of the lock hierarchy.  Guards the ring, the
        # histograms and the counters; never wraps another lock.
        self._drain_lock = lockhook.lock("obs.trace")
        self._ring: deque = deque(maxlen=config.ring_capacity)
        self._histograms: dict[str, LatencyHistogram] = {}
        self._traces_recorded = 0
        self._spans_recorded = 0
        self._ring_evictions = 0
        self._ring_bytes = 0

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    # span() and start_span() construct identically; the two names exist
    # because the *caller-side* discipline differs (with-statement vs
    # try/finally — see the module docstring and the trace-hygiene lint
    # rule).  Their bodies are duplicated rather than shared: on the
    # cached hot path a helper call costs as much as the construction.
    def span(self, name: str, parent: "Span | _NoopSpan | None" = None,
             **attributes: Any):
        """A span to use as a context manager (sync code).

        Without an explicit ``parent`` the thread's ambient span is
        used; with neither, the span roots a new trace.  Disabled
        tracers return the shared no-op span.
        """
        if not self.enabled:
            return NOOP_SPAN
        if parent is None:
            stack = getattr(_ambient, "stack", None)
            parent = stack[-1] if stack else None
        if parent is None or parent.trace_id is None:
            # No (real) parent: root a new trace with a fresh bucket.
            return Span(self, name, format(next(self._ids), "012x"),
                        next(self._ids), None, attributes,
                        self._wall(), self.clock(), [])
        return Span(self, name, parent.trace_id, next(self._ids),
                    parent.span_id, attributes, None, self.clock(),
                    parent.bucket)

    def start_span(self, name: str, parent: "Span | _NoopSpan | None" = None,
                   **attributes: Any):
        """A manually-ended span (async code): ``end()`` it in a finally.

        Never touches the ambient stack — event-loop code must pass
        parents explicitly.
        """
        if not self.enabled:
            return NOOP_SPAN
        if parent is None:
            stack = getattr(_ambient, "stack", None)
            parent = stack[-1] if stack else None
        if parent is None or parent.trace_id is None:
            return Span(self, name, format(next(self._ids), "012x"),
                        next(self._ids), None, attributes,
                        self._wall(), self.clock(), [])
        return Span(self, name, parent.trace_id, next(self._ids),
                    parent.span_id, attributes, None, self.clock(),
                    parent.bucket)

    def record_span(self, name: str, parent: "Span | _NoopSpan | None",
                    start_pc: float, **attributes: Any) -> None:
        """Record an already-elapsed operation as a completed child span.

        For hot paths that should not pay for a span when nothing
        noteworthy happened: read ``tracer.clock()`` before the
        operation, and synthesize the span afterwards only if the
        elapsed time is worth keeping (the server does this for
        ``admission.wait``, which is ~0 on an unloaded server).  No-op
        when disabled or without a real parent — synthesized spans never
        root a trace.
        """
        if not self.enabled or parent is None or parent.trace_id is None:
            return
        span = Span(self, name, parent.trace_id, next(self._ids),
                    parent.span_id, attributes, None, start_pc,
                    parent.bucket)
        span._ended = True
        span.duration = self.clock() - start_pc
        parent.bucket.append(span)

    def set_slow_ms(self, slow_ms: float) -> float:
        """Set the slow-request threshold; returns the applied value."""
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.slow_ms = float(slow_ms)
        return self.slow_ms

    # ------------------------------------------------------------------
    # Completion (the hot path lives in Span.end(); the root drain here)
    # ------------------------------------------------------------------
    def _complete_root(self, root: Span) -> None:
        slow: dict[str, Any] | None = None
        # Freeze the trace's bucket before publishing: a straggler span
        # ending after its root (a cut-short request) appends to the
        # original list, which nothing references once its spans are
        # gone — it is garbage-collected, never recorded.
        spans = root.bucket[:]
        duration_ms = round((root.duration or 0.0) * 1000.0, 3)
        # The request's cost recorder rides on whichever span the
        # workspace attached it to (usually ``workspace.handle``); the
        # snapshot is taken before the drain lock, like everything else
        # that can be.
        cost: dict[str, Any] | None = None
        for span in spans:
            if span.cost is not None:
                cost = span.cost.snapshot()
                break
        entry = {
            "trace_id": root.trace_id,
            "name": root.name,
            "start_unix": root.start_wall,
            "duration_ms": duration_ms,
            "dataset": root.attributes.get("dataset"),
            "n_spans": len(spans),
            "_root_span": root,
            "_spans": spans,
        }
        if cost is not None:
            entry["cost"] = cost
        entry_bytes = trace_entry_bytes(entry) if self.account_memory else 0
        entry["_bytes"] = entry_bytes
        with self._drain_lock:
            # The tree is NOT assembled here: the ring keeps the raw
            # spans and builds node dicts lazily on the first
            # ``trace()`` read.  Assembly costs more than everything
            # else on this path combined, and most traces are evicted
            # unread — paying it per-request would dominate the cached
            # hot path's tracing overhead.
            if len(self._ring) == self._ring.maxlen:
                # The deque is about to evict its oldest entry silently;
                # count it and return its bytes before the append.
                self._ring_evictions += 1
                self._ring_bytes -= self._ring[0].get("_bytes", 0)
            self._ring.append(entry)
            self._ring_bytes += entry_bytes
            self._traces_recorded += 1
            self._spans_recorded += len(spans)
            for span in spans:
                histogram = self._histograms.get(span.name)
                if histogram is None:
                    histogram = LatencyHistogram(SPAN_BUCKETS)
                    self._histograms[span.name] = histogram
                histogram.observe(span.duration or 0.0)
            if duration_ms >= self.slow_ms:
                slow = {
                    "trace_id": root.trace_id,
                    "name": root.name,
                    "duration_ms": duration_ms,
                    "threshold_ms": self.slow_ms,
                }
                dataset = root.attributes.get("dataset")
                if dataset is not None:
                    slow["dataset"] = dataset
        if slow is not None:
            # Emitted after the drain lock is released: event sinks run
            # arbitrary logging handlers and must not nest under it.
            _emit_event("slow_request", **slow)

    @staticmethod
    def _assemble(root: Span, spans: list[Span]) -> dict[str, Any]:
        """Build the nested node tree for one completed trace (lazy)."""
        nodes: dict[int, dict[str, Any]] = {}
        for span in spans:
            nodes[span.span_id] = {
                "span_id": format(span.span_id, "x"),
                "name": span.name,
                "start_ms": round((span.start_pc - root.start_pc) * 1000.0, 3),
                "duration_ms": round((span.duration or 0.0) * 1000.0, 3),
                "attributes": dict(span.attributes),
                "children": [],
            }
        root_node = nodes[root.span_id]
        for span in sorted(spans, key=lambda s: s.start_pc):
            if span.span_id == root.span_id:
                continue
            parent = nodes.get(span.parent_id)
            if parent is None:
                parent = root_node  # parent lost: keep the span visible
            parent["children"].append(nodes[span.span_id])
        return root_node

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def traces(self, dataset: str | None = None,
               min_duration_ms: float | None = None,
               limit: int | None = None,
               since_ms: float | None = None) -> list[dict[str, Any]]:
        """Summaries of recent completed traces, newest first.

        ``since_ms`` is a Unix-epoch-millisecond cursor: only traces
        whose root started strictly after it are returned, so pollers
        can pass the newest ``start_unix`` they have already seen.
        """
        with self._drain_lock:
            recent = list(self._ring)
        recent.reverse()
        out = []
        for trace in recent:
            if dataset is not None and trace["dataset"] != dataset:
                continue
            if (min_duration_ms is not None
                    and trace["duration_ms"] < min_duration_ms):
                continue
            if (since_ms is not None
                    and trace["start_unix"] * 1000.0 <= since_ms):
                continue
            out.append({key: trace[key] for key in
                        ("trace_id", "name", "start_unix", "duration_ms",
                         "dataset", "n_spans")})
            if limit is not None and len(out) >= limit:
                break
        return out

    def trace(self, trace_id: str) -> dict[str, Any] | None:
        """The full span tree of one completed trace (None if evicted)."""
        with self._drain_lock:
            for record in self._ring:
                if record["trace_id"] == trace_id:
                    if "root" not in record:
                        record["root"] = self._assemble(
                            record.pop("_root_span"), record.pop("_spans"))
                    return record
        return None

    def histograms(self) -> dict[str, dict[str, Any]]:
        """Per-span-name duration histogram snapshots."""
        with self._drain_lock:
            return {name: hist.snapshot()
                    for name, hist in sorted(self._histograms.items())}

    def stats(self) -> dict[str, Any]:
        with self._drain_lock:
            return {
                "enabled": self.enabled,
                "ring_capacity": self.ring_capacity,
                "slow_ms": self.slow_ms,
                "traces_held": len(self._ring),
                "traces_recorded": self._traces_recorded,
                "spans_recorded": self._spans_recorded,
                "ring_evictions": self._ring_evictions,
                "ring_bytes": self._ring_bytes,
            }


def trace_entry_bytes(entry: dict[str, Any]) -> int:
    """Estimate one published trace entry's resident bytes.

    Computed once, at publish time, and stored on the entry so the
    ring's byte counter stays incremental (publish adds, evict
    subtracts).  Counts the per-trace allocations — the entry dict, the
    span objects, their attribute dicts and values — and deliberately
    skips shared interned strings (span names are module-level
    literals).  Tests recompute this same estimate over the live ring
    as the oracle for the incremental counter.
    """
    total = sys.getsizeof(entry)
    for key, value in entry.items():
        if key in ("_root_span", "_spans", "_bytes"):
            continue
        total += sys.getsizeof(key)
        if isinstance(value, dict):
            total += sys.getsizeof(value)
            for inner_key, inner_value in value.items():
                total += sys.getsizeof(inner_key) + sys.getsizeof(inner_value)
        elif value is not None:
            total += sys.getsizeof(value)
    spans = entry.get("_spans", ())
    total += sys.getsizeof(spans)
    for span in spans:
        total += sys.getsizeof(span)
        total += sys.getsizeof(span.attributes)
        for key, value in span.attributes.items():
            total += sys.getsizeof(key)
            if value is not None:
                total += sys.getsizeof(value)
    return total


# ---------------------------------------------------------------------------
# Context propagation helpers
# ---------------------------------------------------------------------------
def obs_span(name: str, **attributes: Any):
    """A child of this thread's ambient span, or a no-op outside any.

    The instrumentation entry point for layers that hold no tracer
    reference (the pipeline's stages, the journal): tracing reaches them
    only when a traced caller is already on the stack.
    """
    parent = current_span()
    if parent is None or parent.tracer is None:
        return NOOP_SPAN
    return parent.tracer.span(name, parent=parent, **attributes)


def bind(span: "Span | _NoopSpan | None", fn: Callable) -> Callable:
    """Wrap ``fn`` so it runs with ``span`` as the ambient span.

    Used at thread-handoff points (``run_in_executor``): the event loop
    holds the span explicitly, the worker thread re-establishes it as
    ambient so everything beneath parents correctly.
    """
    if span is None or span.trace_id is None:
        return fn

    def bound(*args: Any, **kwargs: Any):
        _push_ambient(span)
        try:
            return fn(*args, **kwargs)
        finally:
            _pop_ambient(span)

    return bound


__all__ = [
    "NOOP_SPAN",
    "SPAN_BUCKETS",
    "Span",
    "Tracer",
    "bind",
    "current_span",
    "obs_span",
    "trace_entry_bytes",
]
