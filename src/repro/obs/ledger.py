"""The memory ledger: incremental byte accounting for long-lived state.

Walking a live workspace with ``sys.getsizeof`` on every ``/v1/debug``
read would stall the serving path behind O(heap) traversals, so the
ledger inverts the flow: each owner of long-lived state sizes it **at
its mutation points** — the workspace on engine swap / append /
rebuild, the result cache on insert and evict, the tracer on ring
publish and evict, the journal on segment append and rotation — and the
read side only merges a handful of integer counters.

Two kinds of accounting meet here:

* components the :class:`~repro.service.Workspace` sizes directly
  (per-dataset ``table`` and ``sketches`` bytes) live in a
  :class:`MemoryLedger` instance via :meth:`MemoryLedger.set`;
* components that already own a lock and a counter (the result cache,
  the trace ring, the durable journal) keep their own incremental
  totals and are merged into the ledger snapshot at read time;
* each live snapshot's insight index sizes what it memoises as it
  fills (:func:`domain_bytes`, :func:`scored_candidate_bytes`) and is
  summed at read time as ``insight_index``.

:func:`deep_sizeof` is the test oracle: a recursive ``getsizeof`` walk
(numpy-aware, cycle-safe) that the incremental counters are checked
against after append/rebuild/eviction churn.  It is deliberately not
used on any serving path.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from repro.obs import lockhook

__all__ = [
    "MemoryLedger",
    "deep_sizeof",
    "domain_bytes",
    "scored_candidate_bytes",
    "table_bytes",
]


class MemoryLedger:
    """Thread-safe ``(component, dataset) -> bytes`` counters."""

    def __init__(self) -> None:
        self._lock = lockhook.lock("obs.ledger")
        self._entries: dict[tuple[str, str | None], int] = {}

    def set(self, component: str, n_bytes: int, dataset: str | None = None) -> None:
        """Record the absolute size of one component (mutation-point call)."""
        with self._lock:
            self._entries[(component, dataset)] = int(n_bytes)

    def add(self, component: str, delta: int, dataset: str | None = None) -> None:
        """Adjust one component's size by ``delta`` bytes."""
        key = (component, dataset)
        with self._lock:
            self._entries[key] = self._entries.get(key, 0) + int(delta)

    def get(self, component: str, dataset: str | None = None) -> int:
        with self._lock:
            return self._entries.get((component, dataset), 0)

    def forget_dataset(self, dataset: str) -> None:
        """Drop every component row for a closed/replaced dataset."""
        with self._lock:
            for key in [key for key in self._entries if key[1] == dataset]:
                del self._entries[key]

    def snapshot(self, extra: dict[str, int] | None = None) -> dict[str, Any]:
        """Aggregate view: per-component totals, per-dataset breakdown.

        ``extra`` merges externally maintained component counters (the
        result cache, the trace ring, the journal) into the same
        document so ``/v1/debug`` reports one complete ledger.
        """
        with self._lock:
            entries = dict(self._entries)
        components: dict[str, int] = {}
        datasets: dict[str, dict[str, int]] = {}
        for (component, dataset), n_bytes in entries.items():
            components[component] = components.get(component, 0) + n_bytes
            if dataset is not None:
                datasets.setdefault(dataset, {})[component] = n_bytes
        for component, n_bytes in (extra or {}).items():
            components[component] = components.get(component, 0) + int(n_bytes)
        return {
            "components": dict(sorted(components.items())),
            "datasets": {
                name: dict(sorted(parts.items()))
                for name, parts in sorted(datasets.items())
            },
            "total_bytes": sum(components.values()),
        }


def table_bytes(table) -> int:
    """Size a :class:`~repro.data.table.DataTable` without a row walk.

    O(columns): numpy *base* allocations (deduplicated — sibling
    columns are often strided views into one shared matrix, and a view
    pins its whole base buffer regardless of its logical ``nbytes``)
    plus category label strings.  The array payloads dominate any real
    table, which is what keeps the incremental ledger within tolerance
    of the recursive :func:`deep_sizeof` oracle, whose array accounting
    this mirrors exactly.
    """
    total = sys.getsizeof(table)
    seen: set[int] = set()

    def count_array(array) -> None:
        nonlocal total
        if array is None:
            return
        base = array.base if array.base is not None else array
        if id(base) in seen:
            return
        seen.add(id(base))
        total += int(base.nbytes)

    for column in table.columns():
        total += sys.getsizeof(column)
        count_array(column.mask)
        count_array(getattr(column, "values", None))
        codes = getattr(column, "codes", None)
        count_array(codes)
        if codes is not None:
            for label in column.categories:
                total += sys.getsizeof(label)
    return total


def domain_bytes(domain: tuple) -> int:
    """Size a memoised candidate domain: the tuple and its attribute
    tuples.  The column names inside are the table schema's strings."""
    return sys.getsizeof(domain) + sum(map(sys.getsizeof, domain))


def scored_candidate_bytes(candidate: Any) -> int:
    """Size a memoised scored candidate without a recursive walk: the
    object, its ``__dict__``, its ``details`` dict and the values in it.
    Its attribute tuple is its domain's, and the detail keys are literals
    every candidate of a class shares."""
    details = candidate.details
    return (sys.getsizeof(candidate) + sys.getsizeof(vars(candidate))
            + sys.getsizeof(details)
            + sum(map(sys.getsizeof, details.values())))


def deep_sizeof(obj: Any, _seen: set[int] | None = None) -> int:
    """Recursive ``getsizeof`` walk: the ledger's test oracle.

    Numpy-aware (buffer ``nbytes``, counted once per base allocation),
    cycle-safe, and skips machinery that is not data (modules, types,
    functions, locks).  Slow by design — tests only.
    """
    seen = _seen if _seen is not None else set()
    if isinstance(obj, np.ndarray):
        # ``getsizeof`` of a data-owning array already includes its
        # buffer; a view's excludes it.  Count header + buffer exactly
        # once per base allocation, whichever alias is seen first.
        if obj.base is None:
            header = sys.getsizeof(obj) - int(obj.nbytes)
            base = obj
        else:
            header = sys.getsizeof(obj)
            base = obj.base
        total = header
        if id(base) not in seen:
            seen.add(id(base))
            total += int(base.nbytes)
        return total
    marker = id(obj)
    if marker in seen:
        return 0
    seen.add(marker)
    if isinstance(obj, (type, type(sys))) or callable(obj):
        return 0
    if hasattr(obj, "acquire") and hasattr(obj, "release"):
        # A lock by what it does, not by its type: while a lock listener
        # (REPRO_DEBUG_LOCKS, the lock-wait watchdog) is installed the
        # lock factories hand out proxies, and the listeners behind them
        # are not data either.
        return 0
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += deep_sizeof(key, seen)
            total += deep_sizeof(value, seen)
        return total
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += deep_sizeof(item, seen)
        return total
    if isinstance(obj, (str, bytes, bytearray, int, float, complex, bool)) or obj is None:
        return total
    if hasattr(obj, "__dict__"):
        total += deep_sizeof(vars(obj), seen)
    for slots_cls in type(obj).__mro__:
        for slot in getattr(slots_cls, "__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                value = getattr(obj, slot)
            except AttributeError:
                continue
            total += deep_sizeof(value, seen)
    return total
