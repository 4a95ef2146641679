"""The pluggable execution layer: serial and thread-pool executors.

Every stage of the system that fans out over independent work items —
the query pipeline's score stage, per-column sketch preprocessing, and
the workspace's request batching — runs through an :class:`Executor`
rather than a bare loop or an ad-hoc thread pool.  Two implementations
exist:

* :class:`SerialExecutor` runs everything inline on the calling thread.
  It is the default (``max_workers=1``) and keeps the historical
  single-threaded execution path (one deliberate delta when this layer
  was introduced: quantile-sketch sampling draws from per-column RNG
  streams rather than one sequential stream — see
  :meth:`repro.sketch.store.SketchStore._build_numeric_column`);
* :class:`ParallelExecutor` fans work out over a shared
  :class:`concurrent.futures.ThreadPoolExecutor`.  Threads (not
  processes) are the right grain here: the hot loops are numpy/scipy
  calls that release the GIL, and every work item reads shared,
  immutable table/sketch state that would be expensive to pickle.

Determinism is a hard requirement, not an aspiration: ``Executor.map``
always returns results **in submission order**, and callers only submit
work whose items are evaluated independently of each other (see
:meth:`repro.core.insight.InsightClass.scores_elementwise`).  Under that
contract a parallel run is byte-identical to a serial run — the
concurrency tests assert exactly this across every bundled dataset.

Configuration rides on :class:`ExecutorConfig`, which
:class:`repro.core.engine.EngineConfig` embeds.  The default worker
count honors the ``REPRO_MAX_WORKERS`` environment variable so CI can
run the whole test suite under parallel execution without code changes.
"""

from __future__ import annotations

import abc
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs.tracer import carry_current

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted for the default worker count.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_max_workers() -> int:
    """The default worker count: ``REPRO_MAX_WORKERS`` if set, else 1.

    Defaulting to 1 (serial) keeps library behavior identical to the
    pre-executor code path unless a caller — or CI, via the environment —
    explicitly opts into parallelism.
    """
    raw = os.environ.get(MAX_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


@dataclass(frozen=True)
class ExecutorConfig:
    """Tuning knobs for the execution layer.

    Parameters
    ----------
    max_workers:
        Worker threads for fan-out stages.  1 selects the serial
        executor (exact historical behavior); defaults to the
        ``REPRO_MAX_WORKERS`` environment variable when set.
    min_chunk_size:
        Smallest number of candidates worth handing to a worker in the
        sharded score stage.  Prevents over-sharding cheap workloads
        where task overhead would dominate.  The default is small
        because sharded candidates are scored one metric evaluation at
        a time — tens of microseconds each at minimum, against a
        sub-microsecond per-chunk dispatch cost.
    thread_name_prefix:
        Prefix for worker thread names (visible in profilers and
        stack dumps).
    """

    max_workers: int = field(default_factory=default_max_workers)
    min_chunk_size: int = 4
    thread_name_prefix: str = "repro-exec"

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.min_chunk_size < 1:
            raise ValueError(
                f"min_chunk_size must be >= 1, got {self.min_chunk_size}"
            )


class Executor(abc.ABC):
    """Order-preserving map over independent work items."""

    #: Degree of parallelism callers may shard for.
    max_workers: int = 1
    #: The configuration this executor was built from.
    config: ExecutorConfig

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in item order.

        The first exception raised by ``fn`` propagates to the caller.
        ``fn`` must not depend on evaluation order or on sharing state
        with other items — that contract is what makes serial and
        parallel execution indistinguishable.
        """

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Schedule one call and return its :class:`~concurrent.futures.Future`.

        The fire-and-forget complement to :meth:`map`, used for work
        that must not block the caller — the workspace's background
        sketch rebuilds ride on it.  The base implementation (and
        :class:`SerialExecutor`) runs the call inline, so the future is
        already resolved on return; :class:`ParallelExecutor` hands the
        call to its pool.
        """
        future: Future[R] = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - captured in the future
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Release worker resources (idempotent; a closed serial executor
        keeps working, a closed parallel executor refuses new work)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Runs every work item inline on the calling thread."""

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = config or ExecutorConfig(max_workers=1)
        self.max_workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fans work out over a lazily created, reusable thread pool.

    The pool is created on first use (so merely configuring
    ``max_workers > 1`` costs nothing until work actually fans out) and
    shared across calls, including calls from multiple threads — the
    serving layer's ``handle_many`` hits one engine-level executor from
    many request threads concurrently, which
    :class:`~concurrent.futures.ThreadPoolExecutor` supports natively.
    """

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = config or ExecutorConfig(max_workers=2)
        if self.config.max_workers < 2:
            raise ValueError(
                "ParallelExecutor needs max_workers >= 2; "
                "use SerialExecutor (or create_executor) for serial runs"
            )
        self.max_workers = self.config.max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self.config.thread_name_prefix,
                )
            return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            # Not worth a thread hop; also keeps single-item maps usable
            # even before the pool exists.  Still honor close().
            if self._closed:
                raise RuntimeError("executor is closed")
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        # ThreadPoolExecutor.map preserves submission order and re-raises
        # the first worker exception on iteration.  carry_current hands
        # the submitting thread's ambient trace span to the workers, so
        # spans opened inside them re-parent to the request that sharded
        # this work (a no-op wrapper when no span is active).  submit()
        # is deliberately not wrapped: background work (rebuilds) roots
        # its own traces.
        return list(pool.map(carry_current(fn), items))

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        return self._ensure_pool().submit(fn, *args)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"ParallelExecutor(max_workers={self.max_workers}, {state})"


def create_executor(config: ExecutorConfig | None = None) -> Executor:
    """Build the executor selected by ``config`` (serial for 1 worker)."""
    config = config or ExecutorConfig()
    if config.max_workers <= 1:
        return SerialExecutor(config)
    return ParallelExecutor(config)


def shard(
    items: Sequence[T], n_shards: int, min_chunk_size: int = 1
) -> list[Sequence[T]]:
    """Split ``items`` into at most ``n_shards`` contiguous chunks.

    The split is a pure function of ``(len(items), n_shards,
    min_chunk_size)`` — never of timing or worker identity — and
    concatenating the chunks reproduces ``items`` exactly.  Chunk sizes
    differ by at most one, and no chunk is smaller than
    ``min_chunk_size`` unless the input itself is.
    """
    n_items = len(items)
    if n_items == 0:
        return []
    if min_chunk_size > 1:
        n_shards = min(n_shards, max(1, n_items // min_chunk_size))
    n_shards = max(1, min(n_shards, n_items))
    if n_shards == 1:
        return [items]
    base, extra = divmod(n_items, n_shards)
    chunks: list[Sequence[T]] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


__all__ = [
    "Executor",
    "ExecutorConfig",
    "MAX_WORKERS_ENV",
    "ParallelExecutor",
    "SerialExecutor",
    "create_executor",
    "default_max_workers",
    "shard",
]
