"""Greenwald–Khanna quantile sketch.

One of the sketch types the paper integrates ("quantile sketch", section 3).
The Greenwald–Khanna (GK) summary maintains a small set of tuples
(value, g, Δ) such that any rank query can be answered within ε·n of the
true rank using O((1/ε)·log(ε·n)) space.  Foresight uses it to derive
approximate medians, IQRs and box-plot statistics for the Outlier insight
and histogram-oriented visualizations without re-reading the data.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EmptyColumnError, SketchError
from repro.sketch.base import Sketch


#: What a value past a summary's last tuple sorts before: nothing.
_NO_SPAN = np.zeros(1, dtype=np.int64)


class QuantileSketch(Sketch):
    """ε-approximate quantile summary (Greenwald–Khanna 2001).

    The tuples are three parallel arrays ordered by value: ``value`` (f64),
    ``g`` (i64, minimum rank minus the previous tuple's) and ``delta``
    (i64, rank uncertainty).  Operations replace the arrays, never write
    into them.
    """

    def __init__(self, epsilon: float = 0.01):
        if not 0.0 < epsilon < 0.5:
            raise SketchError("epsilon must be in (0, 0.5)")
        self.epsilon = float(epsilon)
        self._set_summary(np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64))
        self._count = 0
        self._since_compress = 0

    def _set_summary(self, value, g, delta) -> None:
        self._value = np.asarray(value, dtype=np.float64)
        self._g = np.asarray(g, dtype=np.int64)
        self._delta = np.asarray(delta, dtype=np.int64)

    @classmethod
    def of_sorted_rows(cls, ordered: np.ndarray,
                       epsilon: float = 0.01) -> list["QuantileSketch"]:
        """The summary of each row of ``ordered``: a ``(d, n)`` float64
        block, NaN-free, ``n >= 1``, sorted along axis 1.

        For a sorted batch the compressed summary can be built directly by
        keeping every floor(2*epsilon*n)-th value with g = gap to the
        previous kept value and delta = 0.  Every tuple then satisfies the
        GK invariant g + delta <= 2*epsilon*n, so the epsilon*n rank-error
        bound is unchanged.  Rows of one block have one ``n``, hence one
        selection; their sketches share the ``g`` and ``delta`` arrays,
        which — like every summary array — are replaced, never written.
        """
        n = int(ordered.shape[1])
        step = max(int(2.0 * epsilon * n), 1)
        keep = np.arange(0, n, step)
        if keep[-1] != n - 1:
            keep = np.append(keep, n - 1)
        empty = cls(epsilon)
        g, delta = np.diff(keep, prepend=-1), np.zeros(keep.size, dtype=np.int64)
        return [
            empty._clone(_value=value, _g=g, _delta=delta, _count=n)
            for value in np.take(ordered, keep, axis=1)
        ]

    # -- construction -------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def update(self, value) -> None:
        value = float(value)
        if math.isnan(value):
            return
        self._insert(value)
        self._count += 1
        self._since_compress += 1
        if self._since_compress >= max(1, int(1.0 / (2.0 * self.epsilon))):
            self._compress()
            self._since_compress = 0

    def update_array(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return
        if self._count == 0:
            # Batch fast path: the summary of the sorted batch, adopted.
            (summary,) = self.of_sorted_rows(
                np.sort(values)[np.newaxis, :], self.epsilon
            )
            self.__dict__.update(vars(summary))
            return
        for value in values.tolist():
            self.update(value)

    def _insert(self, value: float) -> None:
        size = self._value.size
        # The first stored value greater than the inserted one.
        at = int(np.searchsorted(self._value, value, side="right"))
        if at == 0 or at == size:
            delta = 0  # a new minimum or maximum has an exactly known rank
        else:
            delta = max(int(math.floor(2.0 * self.epsilon * self._count)) - 1, 0)
        self._set_summary(
            np.insert(self._value, at, value),
            np.insert(self._g, at, 1),
            np.insert(self._delta, at, delta),
        )

    def _compress(self) -> None:
        size = self._value.size
        if size < 3:
            return
        threshold = 2.0 * self.epsilon * self._count
        at = self._compress_candidates(threshold)
        if at.size == 0:
            return
        # Greedy left-to-right banding of the interior tuples: a tuple
        # absorbs the band before it while the band's rank span stays
        # within the threshold.  Each band is kept as its last tuple with
        # the band's summed g; the two extremes are never merged.  ``g``
        # holds, at a band's current last tuple, the band's sum so far.
        g, delta = self._g.tolist(), self._delta.tolist()
        absorbed = []
        for index in at.tolist():
            total = g[index - 1] + g[index]
            if total + delta[index] <= threshold:
                g[index] = total
                absorbed.append(index - 1)
        if not absorbed:
            return
        keep = np.ones(size, dtype=bool)
        keep[absorbed] = False
        self._value = self._value[keep]
        self._g = np.array(g, dtype=np.int64)[keep]
        self._delta = self._delta[keep]

    def _compress_candidates(self, threshold: float) -> np.ndarray:
        """The interior tuples that could join the band before them.

        A band's g is at least its last tuple's, so tuple ``i`` absorbs
        nothing unless ``g[i-1] + g[i] + delta[i] <= threshold``: one
        vectorised test, and the sequential walk of :meth:`_compress`
        visits only the tuples that pass — on a summary compressed a
        merge ago, a handful.
        """
        g, delta = self._g, self._delta
        span = g[2:-1] + delta[2:-1]
        span += g[1:-2]
        return (span <= threshold).nonzero()[0] + 2

    # -- merging ---------------------------------------------------------------------
    def merge(self, other: "Sketch") -> None:
        self._require_same_type(other)
        assert isinstance(other, QuantileSketch)
        self._require(
            math.isclose(self.epsilon, other.epsilon),
            "cannot merge quantile sketches with different epsilon",
        )
        # Standard GK merge: interleave tuples by value (ties keep this
        # sketch's tuples first).  A tuple's rank in the union is uncertain
        # by its own delta plus the rows the other summary may hold below it
        # but counts under its next tuple, g + delta - 1.  Widening delta
        # by that keeps g + delta <= 2*epsilon*n over any chain of merges.
        value = np.concatenate((self._value, other._value))
        order = value.argsort(kind="stable")
        delta = np.concatenate((
            self._delta + other._span_above(self._value, "left"),
            other._delta + self._span_above(other._value, "right"),
        ))
        self._g = np.concatenate((self._g, other._g))[order]
        self._value, self._delta = value[order], delta[order]
        self._count += other._count
        self._compress()

    def _span_above(self, values: np.ndarray, side: str) -> np.ndarray:
        """``g + delta - 1`` of the tuple each value sorts before (0 past the end)."""
        span = np.concatenate((self._g + self._delta - 1, _NO_SPAN))
        return span[self._value.searchsorted(values, side)]

    def copy(self) -> "QuantileSketch":
        return self._clone(_value=self._value.copy(), _g=self._g.copy(),
                           _delta=self._delta.copy())

    # -- queries -----------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Approximate q-th quantile (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            raise EmptyColumnError("quantile sketch is empty")
        target = q * (self._count - 1) + 1
        margin = self.epsilon * self._count
        min_rank = np.cumsum(self._g)
        within = (min_rank + self._delta >= target - margin) & (
            min_rank <= target + margin
        )
        # The first tuple whose rank interval meets the target's (argmax of
        # an all-False mask is 0, hence the any() guard).
        return float(self._value[within.argmax() if within.any() else -1])

    def median(self) -> float:
        return self.quantile(0.5)

    def iqr(self) -> float:
        return self.quantile(0.75) - self.quantile(0.25)

    def rank(self, value: float) -> int:
        """Approximate number of inserted values <= ``value``."""
        if value != value:  # NaN compares below nothing
            return 0
        upto = np.searchsorted(self._value, value, side="right")
        return int(self._g[:upto].sum())

    def cdf(self, value: float) -> float:
        """Approximate empirical CDF at ``value``."""
        if self._count == 0:
            raise EmptyColumnError("quantile sketch is empty")
        return self.rank(value) / self._count

    def five_number_summary(self) -> dict[str, float]:
        """Approximate min, Q1, median, Q3, max (box-plot statistics)."""
        return {
            "min": self.quantile(0.0),
            "q1": self.quantile(0.25),
            "median": self.quantile(0.5),
            "q3": self.quantile(0.75),
            "max": self.quantile(1.0),
        }

    # -- accounting --------------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return int(self._value.size)

    def memory_bytes(self) -> int:
        # value (8 bytes) + two ints (8 bytes each, conservatively).
        return self.n_tuples * 24
