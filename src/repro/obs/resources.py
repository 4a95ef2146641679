"""Per-request resource accounting: cost recorders and rolling windows.

Every request the :class:`~repro.service.Workspace` handles accumulates
a :class:`CostRecorder` — CPU seconds (``time.thread_time`` of the
thread that handles it), rows scanned, candidates enumerated and
pruned, sketch probes, result-cache hits and misses, and bytes
journaled.  The recorder rides the same ambient
(thread-local) channel as the current span: layers with no recorder
reference (column scans, sketch probes, the journal) call the
module-level ``record_*`` helpers, which are a thread-local read and a
``None`` check when no request is being accounted.

Completed recorders land in the workspace's :class:`CostAggregator`:
rolling per-dataset and per-insight-class windows (incrementally
maintained sums over the last ``window`` requests touching that key),
lifetime monotone totals (Prometheus counters must never decrease), a
per-request CPU histogram, and the ring of recent requests behind
``/v1/debug``'s top-K most expensive listing.

A request that touches several datasets or classes (a batch, a
multi-class query) is recorded into **each** touched key's window, so
per-key sums overlap across keys; the global totals count each request
once.

CPU accounting is nesting-safe: a thread with an open CPU window (the
handler thread inside ``Workspace.handle``) contributes nothing extra
when an inner window opens on the same thread, while windows opened on
other threads sum their CPU into the same recorder.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.obs import lockhook
from repro.obs.histogram import LatencyHistogram

__all__ = [
    "CostRecorder",
    "CostAggregator",
    "attach_recorder",
    "current_recorder",
    "record_cache_probe",
    "record_candidates",
    "record_journal_bytes",
    "record_rows",
    "record_sketch_probe",
]

_ambient = threading.local()


def current_recorder() -> "CostRecorder | None":
    """The recorder attached to the current thread, if any."""
    return getattr(_ambient, "recorder", None)


@contextmanager
def attach_recorder(recorder: "CostRecorder | None") -> Iterator["CostRecorder | None"]:
    """Make ``recorder`` ambient for the body (no-op when ``None``)."""
    if recorder is None:
        yield None
        return
    previous = getattr(_ambient, "recorder", None)
    _ambient.recorder = recorder
    try:
        yield recorder
    finally:
        _ambient.recorder = previous


# ---------------------------------------------------------------------------
# Hot-path helpers: one thread-local read when no request is accounted.
# ---------------------------------------------------------------------------
def record_rows(n: int) -> None:
    """Bill ``n`` scanned rows to the current request, if one is accounted."""
    recorder = getattr(_ambient, "recorder", None)
    if recorder is not None and n:
        recorder.add("rows_scanned", n)


def record_sketch_probe(n: int = 1) -> None:
    """Bill ``n`` sketch probes to the current request."""
    recorder = getattr(_ambient, "recorder", None)
    if recorder is not None:
        recorder.add("sketch_probes", n)


def record_candidates(enumerated: int, pruned: int) -> None:
    """Bill an enumeration stage's candidate counts to the current request."""
    recorder = getattr(_ambient, "recorder", None)
    if recorder is not None:
        recorder.add("candidates_enumerated", enumerated)
        if pruned:
            recorder.add("candidates_pruned", pruned)


def record_journal_bytes(n: int) -> None:
    """Bill ``n`` journaled bytes to the current request."""
    recorder = getattr(_ambient, "recorder", None)
    if recorder is not None and n:
        recorder.add("bytes_journaled", n)


def record_cache_probe(hit: bool) -> None:
    """Record the result-cache probe outcome for the current request."""
    recorder = getattr(_ambient, "recorder", None)
    if recorder is not None:
        recorder.add("cache_hits" if hit else "cache_misses", 1)


class CostRecorder:
    """One request's accumulated resource costs (thread-safe)."""

    #: The integer counters, in snapshot order.
    COUNTERS = (
        "rows_scanned",
        "candidates_enumerated",
        "candidates_pruned",
        "sketch_probes",
        "cache_hits",
        "cache_misses",
        "bytes_journaled",
    )

    def __init__(self) -> None:
        self._lock = lockhook.lock("obs.cost")
        self._open_threads: set[int] = set()
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0
        self.rows_scanned = 0
        self.candidates_enumerated = 0
        self.candidates_pruned = 0
        self.sketch_probes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_journaled = 0
        self._started = time.perf_counter()

    def add(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    @contextmanager
    def cpu_window(self) -> Iterator[None]:
        """Accumulate this thread's CPU time over the body.

        Nesting-safe: if this thread already has a window open, the
        inner window is a no-op — the outer window's delta already
        covers the inner body and must not be billed twice.
        """
        ident = threading.get_ident()
        with self._lock:
            nested = ident in self._open_threads
            if not nested:
                self._open_threads.add(ident)
        if nested:
            yield
            return
        start = time.thread_time()
        try:
            yield
        finally:
            delta = time.thread_time() - start
            with self._lock:
                self._open_threads.discard(ident)
                self.cpu_seconds += delta

    def finish(self) -> "CostRecorder":
        """Stamp the wall-clock duration; returns ``self`` for chaining."""
        self.wall_seconds = time.perf_counter() - self._started
        return self

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {
                "cpu_seconds": self.cpu_seconds,
                "wall_seconds": self.wall_seconds,
            }
            for name in self.COUNTERS:
                out[name] = getattr(self, name)
        return out


class _Window:
    """Incrementally maintained sums over the last ``capacity`` snapshots."""

    __slots__ = ("snapshots", "sums", "count")

    def __init__(self, capacity: int):
        self.snapshots: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.sums: dict[str, float] = {}
        self.count = 0

    def add(self, snapshot: dict[str, Any]) -> None:
        if len(self.snapshots) == self.snapshots.maxlen:
            oldest = self.snapshots[0]
            for key, value in oldest.items():
                if isinstance(value, (int, float)):
                    self.sums[key] = self.sums.get(key, 0) - value
        self.snapshots.append(snapshot)
        self.count += 1
        for key, value in snapshot.items():
            if isinstance(value, (int, float)):
                self.sums[key] = self.sums.get(key, 0) + value

    def summary(self) -> dict[str, Any]:
        return {
            "requests": len(self.snapshots),
            "requests_total": self.count,
            **{key: self.sums.get(key, 0) for key in ("cpu_seconds", "wall_seconds")},
            **{key: int(self.sums.get(key, 0)) for key in CostRecorder.COUNTERS},
        }


class CostAggregator:
    """Rolling per-key cost windows plus lifetime totals and top-K.

    Owned by the workspace; one ``record`` call per completed request.
    ``window`` bounds both the per-key rolling windows and the recent
    ring the top-K listing sorts.
    """

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = lockhook.lock("obs.cost_window")
        self._window = window
        self._datasets: dict[str, _Window] = {}
        self._classes: dict[str, _Window] = {}
        self._recent: deque[dict[str, Any]] = deque(maxlen=window)
        self._totals: dict[str, float] = {}
        self._requests_total = 0
        self._cpu_histogram = LatencyHistogram()

    def record(
        self,
        snapshot: dict[str, Any],
        datasets: Iterable[str],
        classes: Iterable[str] = (),
        trace_id: str | None = None,
    ) -> None:
        datasets = sorted(set(datasets))
        classes = sorted(set(classes))
        entry = dict(snapshot)
        entry["datasets"] = datasets
        entry["insight_classes"] = classes
        if trace_id is not None:
            entry["trace_id"] = trace_id
        with self._lock:
            self._requests_total += 1
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    self._totals[key] = self._totals.get(key, 0) + value
            self._cpu_histogram.observe(float(snapshot.get("cpu_seconds", 0.0)))
            for name in datasets:
                window = self._datasets.get(name)
                if window is None:
                    window = self._datasets[name] = _Window(self._window)
                window.add(snapshot)
            for name in classes:
                window = self._classes.get(name)
                if window is None:
                    window = self._classes[name] = _Window(self._window)
                window.add(snapshot)
            self._recent.append(entry)

    def forget_dataset(self, name: str) -> None:
        """Drop a closed dataset's rolling window (totals stay monotone)."""
        with self._lock:
            self._datasets.pop(name, None)

    def top_requests(self, k: int) -> list[dict[str, Any]]:
        """The ``k`` most CPU-expensive requests in the recent window."""
        with self._lock:
            recent = list(self._recent)
        recent.sort(key=lambda entry: entry.get("cpu_seconds", 0.0), reverse=True)
        return recent[: max(0, k)]

    def snapshot(self, top_k: int = 0) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {
                "window": self._window,
                "requests_total": self._requests_total,
                "totals": {
                    key: self._totals.get(key, 0)
                    for key in ("cpu_seconds", "wall_seconds", *CostRecorder.COUNTERS)
                },
                "datasets": {
                    name: window.summary()
                    for name, window in sorted(self._datasets.items())
                },
                "classes": {
                    name: window.summary()
                    for name, window in sorted(self._classes.items())
                },
                "cpu_seconds_histogram": self._cpu_histogram.snapshot(),
            }
        if top_k:
            out["top_requests"] = self.top_requests(top_k)
        return out
