"""Frequent-items sketches: Misra–Gries and Space-Saving.

The paper integrates a "frequent items sketch" (section 3) to serve the
Heterogeneous-Frequencies insight: the metric ``RelFreq(k, c)`` needs the
counts of the k most frequent values of a categorical column, which both of
these classic sketches approximate with bounded error using a fixed number
of counters.

Guarantees (for a sketch with ``capacity`` counters over ``n`` items):

* Misra–Gries: every estimated count ĉ(x) satisfies
  ``c(x) - n/capacity <= ĉ(x) <= c(x)`` (underestimates).
* Space-Saving: ``c(x) <= ĉ(x) <= c(x) + n/capacity`` (overestimates) and
  every item with true frequency above ``n/capacity`` is present.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.errors import SketchError
from repro.sketch.base import Sketch


class MisraGriesSketch(Sketch):
    """Misra–Gries heavy-hitters sketch (deterministic, underestimating)."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise SketchError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._counters: dict[Hashable, int] = {}
        self._count = 0

    @property
    def count(self) -> int:
        """Total number of items absorbed."""
        return self._count

    def update(self, value, weight: int = 1) -> None:
        if value is None:
            return
        self._count += weight
        counters = self._counters
        if value in counters:
            counters[value] += weight
        elif len(counters) < self.capacity:
            counters[value] = weight
        else:
            # ``weight`` decrement rounds at once: every counter and the
            # incoming weight lose the smaller of the weight and the
            # smallest counter; counters that reach zero are dropped, and
            # whatever weight is left takes one of the freed slots.
            step = min(weight, min(counters.values()))
            self._counters = {
                key: count - step for key, count in counters.items() if count > step
            }
            if weight > step:
                self._counters[value] = weight - step

    def merge(self, other: "Sketch") -> None:
        self._require_same_type(other)
        assert isinstance(other, MisraGriesSketch)
        self._require(
            self.capacity == other.capacity,
            "cannot merge Misra-Gries sketches with different capacities",
        )
        combined = dict(self._counters)
        for key, count in other._counters.items():
            combined[key] = combined.get(key, 0) + count
        if len(combined) > self.capacity:
            # Standard mergeable-summaries reduction: subtract the
            # (capacity+1)-th largest count from everything and drop
            # non-positive counters.
            threshold = sorted(combined.values(), reverse=True)[self.capacity]
            combined = {
                key: count - threshold
                for key, count in combined.items()
                if count - threshold > 0
            }
        self._counters = combined
        self._count += other._count

    def copy(self) -> "MisraGriesSketch":
        return self._clone(_counters=dict(self._counters))

    # -- queries -------------------------------------------------------------
    def estimate(self, value) -> int:
        """Estimated count of ``value`` (never above the true count)."""
        return int(self._counters.get(value, 0))

    def error_bound(self) -> float:
        """Maximum undercount: n / capacity."""
        return self._count / self.capacity if self.capacity else float("inf")

    def heavy_hitters(self, threshold: float = 0.01) -> list[tuple[Hashable, int]]:
        """Items whose estimated relative frequency is at least ``threshold``."""
        if self._count == 0:
            return []
        floor = threshold * self._count
        items = [(k, c) for k, c in self._counters.items() if c >= floor]
        items.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return items

    def top_k(self, k: int) -> list[tuple[Hashable, int]]:
        """The k items with the largest estimated counts."""
        items = sorted(self._counters.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return items[:k]

    def relative_frequency_topk(self, k: int) -> float:
        """Approximate ``RelFreq(k, c)`` from the sketch counters."""
        if self._count == 0:
            return 0.0
        return float(sum(count for _, count in self.top_k(k)) / self._count)

    def memory_bytes(self) -> int:
        return len(self._counters) * 64  # key pointer + count, amortised


class SpaceSavingSketch(Sketch):
    """Space-Saving heavy-hitters sketch (overestimating, keeps top items)."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise SketchError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def update(self, value, weight: int = 1) -> None:
        if value is None:
            return
        self._count += weight
        if value in self._counts:
            self._counts[value] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[value] = weight
            self._errors[value] = 0
            return
        # Replace the current minimum item.
        victim = min(self._counts, key=lambda key: self._counts[key])
        victim_count = self._counts.pop(victim)
        self._errors.pop(victim, None)
        self._counts[value] = victim_count + weight
        self._errors[value] = victim_count

    def merge(self, other: "Sketch") -> None:
        self._require_same_type(other)
        assert isinstance(other, SpaceSavingSketch)
        self._require(
            self.capacity == other.capacity,
            "cannot merge Space-Saving sketches with different capacities",
        )
        # An item only one side tracks may still have occurred on the
        # other: a full summary has evicted items, each with a true count
        # of at most its minimum counter.  Charging that minimum — to the
        # count and to its error — keeps "tracked items never undercount"
        # true across a merge (the mergeable-summaries rule).
        self_floor, other_floor = self._floor(), other._floor()
        combined_counts = {}
        combined_errors = {}
        for key, count in self._counts.items():
            combined_counts[key] = count + other._counts.get(key, other_floor)
            combined_errors[key] = (self._errors.get(key, 0)
                                    + other._errors.get(key, other_floor))
        for key, count in other._counts.items():
            if key not in self._counts:
                combined_counts[key] = self_floor + count
                combined_errors[key] = self_floor + other._errors.get(key, 0)
        if len(combined_counts) > self.capacity:
            keep = sorted(combined_counts, key=lambda k: -combined_counts[k])[: self.capacity]
            combined_counts = {k: combined_counts[k] for k in keep}
            combined_errors = {k: combined_errors.get(k, 0) for k in keep}
        self._counts = combined_counts
        self._errors = combined_errors
        self._count += other._count

    def _floor(self) -> int:
        """The most an untracked item can have occurred: nothing until
        the summary is full, its minimum counter once it evicts."""
        if len(self._counts) < self.capacity:
            return 0
        return min(self._counts.values())

    def copy(self) -> "SpaceSavingSketch":
        return self._clone(_counts=dict(self._counts), _errors=dict(self._errors))

    # -- queries ------------------------------------------------------------------
    def estimate(self, value) -> int:
        """Estimated count (never below the true count for tracked items)."""
        return int(self._counts.get(value, 0))

    def guaranteed_count(self, value) -> int:
        """Lower bound on the true count of a tracked item."""
        return int(self._counts.get(value, 0) - self._errors.get(value, 0))

    def top_k(self, k: int) -> list[tuple[Hashable, int]]:
        items = sorted(self._counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return items[:k]

    def relative_frequency_topk(self, k: int) -> float:
        if self._count == 0:
            return 0.0
        return float(
            min(1.0, sum(count for _, count in self.top_k(k)) / self._count)
        )

    def heavy_hitters(self, threshold: float = 0.01) -> list[tuple[Hashable, int]]:
        if self._count == 0:
            return []
        floor = threshold * self._count
        items = [(k, c) for k, c in self._counts.items() if c >= floor]
        items.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return items

    def memory_bytes(self) -> int:
        return len(self._counts) * 80


def exact_counts(values: Iterable) -> dict[Hashable, int]:
    """Exact counting helper used by tests and benchmarks as ground truth."""
    counts: dict[Hashable, int] = {}
    for value in values:
        if value is None:
            continue
        counts[value] = counts.get(value, 0) + 1
    return counts
