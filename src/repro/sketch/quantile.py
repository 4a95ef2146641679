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
        banded = _band(self._g, self._delta, np.array([0, self._value.size]),
                       [2.0 * self.epsilon * self._count])
        if banded is not None:
            keep, g = banded
            self._set_summary(self._value[keep], g, self._delta[keep])

    # -- merging ---------------------------------------------------------------------
    def merge(self, other: "Sketch") -> None:
        (merged,) = self.merge_rows([self], [other])
        self._set_summary(merged._value, merged._g, merged._delta)
        self._count = merged._count

    def merged(self, other: "Sketch") -> "QuantileSketch":
        (merged,) = self.merge_rows([self], [other])
        return merged

    @classmethod
    def merge_rows(cls, lefts: "list[QuantileSketch]",
                   rights: "list[QuantileSketch]") -> "list[QuantileSketch]":
        """``lefts[i]`` merged with ``rights[i]``, for every ``i`` in one pass.

        The standard GK merge, per pair: interleave the tuples by value
        (ties keep the left tuples first).  A tuple's rank in the union is
        uncertain by its own delta plus the rows the other summary may
        hold below it but counts under its next tuple, ``g + delta - 1``;
        widening delta by that keeps ``g + delta <= 2*epsilon*n`` over any
        chain of merges.  Then the greedy compress against the pair's own
        ``2*epsilon*n``.  Every pair's tuples live in one buffer keyed by
        ``pair + 1j*value``, so one ``searchsorted`` per side finds each
        tuple's place and its next tuple on the other side for all pairs
        at once; only the banding walk is a Python loop.  The results are
        new sketches (neither input is touched) holding views of one
        merged buffer — safe, since summary arrays are never written.
        """
        for left, right in zip(lefts, rights, strict=True):
            left._require_same_type(right)
            assert isinstance(right, QuantileSketch)
            cls._require(
                math.isclose(left.epsilon, right.epsilon),
                "cannot merge quantile sketches with different epsilon",
            )
        left_value, left_g, left_delta, left_key, left_rows = _stacked(lefts)
        right_value, right_g, right_delta, right_key, right_rows = _stacked(rights)
        left_size = np.bincount(left_rows, minlength=len(lefts))
        right_size = np.bincount(right_rows, minlength=len(rights))
        # Each tuple's next tuple on the other side, as an index into it;
        # both sides being sorted, the index also counts the other side's
        # tuples that come before this one in the interleave.
        next_right = right_key.searchsorted(left_key, "left")
        next_left = left_key.searchsorted(right_key, "right")
        at_left = np.arange(left_value.size) + next_right
        at_right = np.arange(right_value.size) + next_left
        size = left_value.size + right_value.size
        value = np.empty(size)
        g = np.empty(size, dtype=np.int64)
        delta = np.empty(size, dtype=np.int64)
        value[at_left], value[at_right] = left_value, right_value
        g[at_left], g[at_right] = left_g, right_g
        delta[at_left] = left_delta + _span_above(
            right_g, right_delta, next_right, np.cumsum(right_size)[left_rows])
        delta[at_right] = right_delta + _span_above(
            left_g, left_delta, next_left, np.cumsum(left_size)[right_rows])
        counts = [left._count + right._count for left, right in zip(lefts, rights)]
        bounds = np.concatenate(([0], np.cumsum(left_size + right_size)))
        banded = _band(g, delta, bounds, [
            2.0 * left.epsilon * count for left, count in zip(lefts, counts)
        ])
        if banded is not None:
            keep, g = banded
            value, delta = value[keep], delta[keep]
            bounds = np.concatenate(([0], np.cumsum(keep)))[bounds]
        return [
            left._clone(_value=value[lo:hi], _g=g[lo:hi], _delta=delta[lo:hi],
                        _count=count)
            for left, count, lo, hi in zip(
                lefts, counts, bounds[:-1].tolist(), bounds[1:].tolist())
        ]

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


def _stacked(sketches: "list[QuantileSketch]"):
    """The summaries' tuples end to end: ``(value, g, delta, key, row)``,
    where ``key = row + 1j*value`` orders them by summary, then value."""
    if not sketches:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0), empty, empty, np.empty(0, dtype=complex), empty
    value = np.concatenate([sketch._value for sketch in sketches])
    rows = np.repeat(np.arange(len(sketches)),
                     [sketch._value.size for sketch in sketches])
    key = np.empty(value.size, dtype=complex)
    key.real, key.imag = rows, value
    return (value, np.concatenate([sketch._g for sketch in sketches]),
            np.concatenate([sketch._delta for sketch in sketches]), key, rows)


def _span_above(g: np.ndarray, delta: np.ndarray, at: np.ndarray,
                end: np.ndarray) -> np.ndarray:
    """``g + delta - 1`` of the tuples at ``at``; 0 where ``at`` is its
    summary's ``end`` (a value past a summary's last tuple sorts before
    nothing)."""
    span = np.concatenate((g + delta - 1, _NO_SPAN))
    return span[np.where(at == end, g.size, at)]


def _band(g: np.ndarray, delta: np.ndarray, bounds: np.ndarray,
          thresholds: list[float]) -> tuple[np.ndarray, np.ndarray] | None:
    """The GK compress of the summaries whose tuples fill
    ``bounds[i]:bounds[i + 1]``: the kept-tuple mask and the kept
    tuples' new ``g``, or None when no tuple merges.

    Greedy left-to-right banding of each summary's interior tuples: a
    tuple absorbs the band before it while the band's rank span stays
    within its summary's threshold.  Each band is kept as its last tuple
    with the band's summed g; the two extremes are never merged.
    """
    candidates, limits = _candidates(g, delta, bounds, thresholds)
    # The tuples that absorbed the one before them, with their band's g;
    # ``last`` / ``running`` are the latest such tuple and its band's g.
    grown, totals = [], []
    last, running = -2, 0
    for index, limit, own, before, uncertainty in zip(
            candidates.tolist(), limits.tolist(), g[candidates].tolist(),
            g[candidates - 1].tolist(), delta[candidates].tolist()):
        total = (running if index - 1 == last else before) + own
        if total + uncertainty <= limit:
            last, running = index, total
            grown.append(index)
            totals.append(total)
    if not grown:
        return None
    g = g.copy()
    g[grown] = totals
    keep = np.ones(g.size, dtype=bool)
    keep[np.array(grown) - 1] = False
    return keep, g[keep]


def _candidates(g: np.ndarray, delta: np.ndarray, bounds: np.ndarray,
                thresholds: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The interior tuples that could join the band before them, and
    their summaries' thresholds.

    A band's g is at least its last tuple's, so tuple ``i`` absorbs
    nothing unless ``g[i-1] + g[i] + delta[i] <= threshold``: one
    vectorised test, and the sequential walk of :func:`_band` visits only
    the tuples that pass — on a summary compressed a merge ago, a
    handful.
    """
    sizes = np.diff(bounds)
    local = np.arange(g.size) - np.repeat(bounds[:-1], sizes)
    threshold = np.repeat(np.asarray(thresholds, dtype=np.float64), sizes)
    span = g + delta
    span[1:] += g[:-1]
    at = ((local >= 2) & (local <= np.repeat(sizes, sizes) - 2)
          & (span <= threshold)).nonzero()[0]
    return at, threshold[at]
