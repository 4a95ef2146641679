"""Reservoir sampling.

The paper's preprocessing step computes "sketches, samples, and indexes";
the sample is a uniform reservoir sample of the rows, used to render
scatter plots and histograms at interactive speed without touching the full
table, and to estimate metrics that have no dedicated sketch.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import SketchError
from repro.sketch.base import Sketch


class ReservoirSample(Sketch):
    """Uniform fixed-size sample of a stream (Vitter's algorithm R)."""

    def __init__(self, capacity: int = 1000, seed: int = 0):
        if capacity < 1:
            raise SketchError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._items: list[object] = []
        self._count = 0

    @property
    def count(self) -> int:
        """Number of items seen (not the sample size)."""
        return self._count

    @property
    def sample(self) -> list[object]:
        """The current sample (at most ``capacity`` items)."""
        return list(self._items)

    def update(self, value) -> None:
        self._count += 1
        if len(self._items) < self.capacity:
            self._items.append(value)
            return
        j = int(self._rng.integers(0, self._count))
        if j < self.capacity:
            self._items[j] = value

    def update_many(self, values: Iterable) -> None:
        for value in values:
            self.update(value)

    def merge(self, other: "Sketch") -> None:
        """Merge another reservoir with correct per-stream weighting.

        The standard mergeable-summaries reservoir merge: each output
        slot draws from this side's (shuffled) sample with probability
        ``n_self / (n_self + n_other)`` and from the other side's
        otherwise, falling through when a side's sample is exhausted.
        Every element of the union then lands in the merged sample with
        probability ``capacity / (n_self + n_other)``, i.e. the merged
        reservoir is a uniform sample of the union — a plain pooled
        subsample would over-represent the smaller stream, whose
        reservoir holds a denser sample of its rows.
        """
        self._require_same_type(other)
        assert isinstance(other, ReservoirSample)
        self._require(
            self.capacity == other.capacity,
            "cannot merge reservoir samples with different capacities",
        )
        total = self._count + other._count
        if total == 0:
            return
        mine, theirs = list(self._items), list(other._items)
        order_mine = self._rng.permutation(len(mine))
        order_theirs = self._rng.permutation(len(theirs))
        probability_mine = self._count / total
        take = min(self.capacity, len(mine) + len(theirs))
        merged: list[object] = []
        i, j = 0, 0
        while len(merged) < take:
            from_mine = i < len(mine) and (
                j >= len(theirs) or self._rng.random() < probability_mine
            )
            if from_mine:
                merged.append(mine[order_mine[i]])
                i += 1
            else:
                merged.append(theirs[order_theirs[j]])
                j += 1
        self._items = merged
        self._count = total

    def sample_array(self) -> np.ndarray:
        """The sample as a float array (for numeric streams)."""
        return np.asarray(self._items, dtype=np.float64)

    def memory_bytes(self) -> int:
        return len(self._items) * 16


def reservoir_row_indices(n_rows: int, capacity: int, seed: int = 0) -> np.ndarray:
    """Uniformly sample up to ``capacity`` row indices from ``range(n_rows)``.

    Convenience used by the sketch store to materialise a row sample of a
    table without streaming row objects through a reservoir.
    """
    if capacity < 1:
        raise SketchError("capacity must be >= 1")
    rng = np.random.default_rng(seed)
    if n_rows <= capacity:
        return np.arange(n_rows)
    return np.sort(rng.choice(n_rows, size=capacity, replace=False))


def advance_row_indices(
    indices: np.ndarray,
    n_seen: int,
    n_new: int,
    capacity: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance a uniform row-index sample past ``n_new`` appended rows.

    ``indices`` is a uniform sample (without replacement) of
    ``range(n_seen)``; the returned array is a uniform sample of
    ``range(n_seen + n_new)`` obtained by running Vitter's algorithm R
    over the new row indices — each appended row ``i`` enters the sample
    with probability ``capacity / (i + 1)``, which is exactly the
    weighting that keeps the maintained sample uniform over the grown
    dataset.  The input array is not mutated; when no appended row enters
    the sample it is returned *itself*, so a caller can tell by identity
    that whatever it derived from the sampled rows still stands.
    """
    if capacity < 1:
        raise SketchError("capacity must be >= 1")
    # Rows that arrive while the sample is short of capacity all enter it.
    filling = min(n_new, max(capacity - len(indices), 0))
    sample = np.concatenate([
        np.asarray(indices, dtype=np.int64),
        np.arange(n_seen, n_seen + filling, dtype=np.int64),
    ])
    untouched = filling == 0
    for global_index in range(n_seen + filling, n_seen + n_new):
        j = int(rng.integers(0, global_index + 1))
        if j < capacity:
            sample[j] = global_index
            untouched = False
    return indices if untouched else np.sort(sample)


def sample_pairs(
    x: Sequence[float], y: Sequence[float], capacity: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample aligned (x, y) pairs — used to draw scatter plots cheaply."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    indices = reservoir_row_indices(x.size, capacity, seed=seed)
    return x[indices], y[indices]
