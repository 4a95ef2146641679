"""Entropy sketch.

One of the sketch types named in section 3.  The entropy of a categorical
column measures how evenly its values are distributed; Foresight uses it as
an auxiliary signal for the Heterogeneous-Frequencies insight (low entropy
relative to the number of distinct values means a few heavy hitters
dominate).

The estimator splits the distribution into a *head* tracked exactly by a
Space-Saving sketch and a *tail* whose total mass is known (total count
minus head count); the tail's contribution to the entropy is bounded by
assuming it is spread uniformly over the remaining distinct values, which a
small distinct-count estimate from the same sketch provides.  This mirrors
the standard "heavy hitters + uniform tail" entropy estimation recipe and is
mergeable because its two components are.
"""

from __future__ import annotations

import math

from repro.errors import SketchError
from repro.sketch.base import Sketch
from repro.sketch.countmin import _stable_hash
from repro.sketch.frequent import SpaceSavingSketch


class EntropySketch(Sketch):
    """Mergeable estimator of the Shannon entropy of a categorical stream."""

    def __init__(self, capacity: int = 256, seed: int = 0):
        if capacity < 2:
            raise SketchError("capacity must be >= 2")
        self.capacity = int(capacity)
        self.seed = int(seed)
        self._head = SpaceSavingSketch(capacity=capacity)
        self._count = 0
        self._distinct_tracker: set[int] = set()
        self._distinct_bits = 12  # track distinct values modulo 2^12 buckets

    @property
    def count(self) -> int:
        return self._count

    def update(self, value, weight: int = 1) -> None:
        if value is None:
            return
        self._count += weight
        self._head.update(value, weight)
        # Not hash(): str hashes are salted per process; replicas must agree.
        bucket = _stable_hash(value, self.seed) & ((1 << self._distinct_bits) - 1)
        self._distinct_tracker.add(bucket)

    def merge(self, other: "Sketch") -> None:
        self._require_same_type(other)
        assert isinstance(other, EntropySketch)
        self._require(
            self.capacity == other.capacity and self.seed == other.seed,
            "cannot merge entropy sketches with different parameters",
        )
        self._head.merge(other._head)
        self._count += other._count
        self._distinct_tracker |= other._distinct_tracker

    def copy(self) -> "EntropySketch":
        return self._clone(_head=self._head.copy(),
                           _distinct_tracker=set(self._distinct_tracker))

    # -- estimates ----------------------------------------------------------------
    def distinct_estimate(self) -> int:
        """Rough distinct-count estimate (linear counting over hash buckets)."""
        buckets = 1 << self._distinct_bits
        occupied = len(self._distinct_tracker)
        if occupied >= buckets:
            return occupied
        if occupied == 0:
            return 0
        return max(occupied, int(round(-buckets * math.log(1.0 - occupied / buckets))))

    def estimate_entropy(self, base: float = 2.0) -> float:
        """Estimate the Shannon entropy of the absorbed stream."""
        if self._count == 0:
            return 0.0
        head_items = self._head.top_k(self.capacity)
        head_total = sum(count for _, count in head_items)
        head_total = min(head_total, self._count)
        entropy = 0.0
        for _, count in head_items:
            p = min(count, self._count) / self._count
            if p > 0:
                entropy -= p * math.log(p, base)
        tail_mass = max(self._count - head_total, 0)
        if tail_mass > 0:
            tail_distinct = max(self.distinct_estimate() - len(head_items), 1)
            tail_p = tail_mass / self._count / tail_distinct
            if tail_p > 0:
                entropy -= tail_distinct * tail_p * math.log(tail_p, base)
        return max(entropy, 0.0)

    def estimate_normalized_entropy(self) -> float:
        """Entropy / log2(distinct estimate), clipped to [0, 1]."""
        distinct = self.distinct_estimate()
        if distinct <= 1:
            return 1.0 if self._count else 0.0
        return float(min(1.0, self.estimate_entropy() / math.log2(distinct)))

    def memory_bytes(self) -> int:
        return self._head.memory_bytes() + len(self._distinct_tracker) * 8
