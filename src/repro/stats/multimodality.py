"""Multimodality measures.

The paper lists multimodality among its additional insight classes.  The
ranking metric used here is a combination of:

* the number of modes found by kernel-density / histogram peak counting,
* the prominence of the secondary mode relative to the primary mode.

A strictly unimodal column scores 0; a clean, well-separated bimodal column
scores close to 1.

:func:`multimodality_rows` is the whole-class kernel: one pass finds the
modes and Sarle's bimodality coefficient of every row of a raw ``(k, n)``
block, and :func:`find_modes` / :func:`bimodality_coefficient` are that
kernel on a one-row block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.moments import _clean

#: Fewest values a column needs for a mode count.
MIN_VALUES = 5

#: Most bins the automatic rule picks
#: (:func:`repro.stats.histogram.auto_bin_count`).
MAX_BINS = 100

#: Elements per gathered block a caller hands :func:`multimodality_rows`
#: (bounds the kernel's temporaries when an exact-mode table has millions
#: of rows).
ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class ModeInfo:
    """A detected mode: its location and its (smoothed) density height."""

    location: float
    height: float


@dataclass(frozen=True)
class Modality:
    """One column's modes, tallest first, and its bimodality coefficient."""

    modes: list[ModeInfo]
    bimodality_coefficient: float

    @property
    def strength(self) -> float:
        return mode_strength(self.modes)


def _quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """Row-wise ``np.quantile(row, q)`` (linear method) of sorted rows,
    with numpy's interpolation arithmetic."""
    virtual = (ordered.shape[1] - 1) * q
    below = int(np.floor(virtual))
    gamma = virtual - below
    a, b = ordered[:, below], ordered[:, below + 1]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _bin_counts(ordered: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Each row's automatic bin count: Freedman–Diaconis, then Scott (on
    the rows' standard deviations ``sigma``), then Sturges, capped at
    :data:`MAX_BINS` (:func:`repro.stats.histogram.auto_bin_count` row by
    row)."""
    k, n = ordered.shape
    scale = n ** (-1.0 / 3.0)
    width = 2.0 * (_quantile(ordered, 0.75) - _quantile(ordered, 0.25)) * scale
    scott = width <= 0.0
    width[scott] = 3.49 * sigma[scott] * scale
    counts = np.full(k, min(int(np.ceil(np.log2(n))) + 1, MAX_BINS))
    wide = width > 0.0
    span = ordered[wide, -1] - ordered[wide, 0]
    counts[wide] = np.clip(np.ceil(span / width[wide]), 1, MAX_BINS)
    return counts


def _edges(low: np.ndarray, high: np.ndarray, bins: np.ndarray,
           edge_start: np.ndarray) -> np.ndarray:
    """Every row's ``np.histogram`` bin edges, concatenated: ``np.linspace(
    low, high, bins + 1)`` with linspace's arithmetic, including its branch
    for a step that underflows to zero."""
    row = np.repeat(np.arange(bins.size), bins + 1)
    k = (np.arange(row.size) - edge_start[row]).astype(np.float64)
    delta = high - low
    step = delta / bins
    edges = k * step[row] + low[row]
    tiny = (step == 0.0)[row]
    if tiny.any():
        edges[tiny] = k[tiny] / bins[row[tiny]] * delta[row[tiny]] + low[row[tiny]]
    edges[edge_start + bins] = high
    collapsed = edges[1:] <= edges[:-1]
    collapsed[edge_start[1:] - 1] = False
    if collapsed.any():
        worst = row[np.flatnonzero(collapsed)[0]]
        raise ValueError(
            f"Too many bins for data range. Cannot create {bins[worst]} "
            "finite-sized bins.")
    return edges


def _histogram_modes(ordered: np.ndarray, sigma: np.ndarray, bins: int | None,
                     min_relative_height: float) -> list[list[ModeInfo]]:
    """The modes of every non-constant sorted row: one flat ``bincount``
    over per-row uniform bins, 1-2-1 smoothing twice, peak tests against
    each bin's neighbours in its own row."""
    k = ordered.shape[0]
    low, high = ordered[:, 0], ordered[:, -1]
    finite = np.isfinite(low) & np.isfinite(high)
    if not finite.all():
        worst = np.flatnonzero(~finite)[0]
        raise ValueError(f"autodetected range of [{low[worst]}, {high[worst]}] "
                         "is not finite")
    n_bins = _bin_counts(ordered, sigma) if bins is None else np.full(k, bins)
    edge_start = np.concatenate(([0], np.cumsum(n_bins + 1)[:-1]))
    edges = _edges(low, high, n_bins, edge_start)

    # np.histogram's uniform-bin index rule: scale into [0, bins], put the
    # maximum in the last bin, then correct by one against the edges.
    per_bin = n_bins.astype(np.float64)[:, None]
    scaled = ordered - low[:, None]
    scaled /= (high - low)[:, None]
    scaled *= per_bin
    index = np.minimum(scaled.astype(np.intp), n_bins[:, None] - 1)
    del scaled
    index -= ordered < edges[index + edge_start[:, None]]
    index += ((ordered >= edges[index + edge_start[:, None] + 1])
              & (index != n_bins[:, None] - 1))
    bin_start = edge_start - np.arange(k)
    index += bin_start[:, None]
    counts = np.bincount(index.ravel(), minlength=int(n_bins.sum()))
    del index

    # Twice 1-2-1 smoothing with edge padding, as integers: the kernel's
    # weights are dyadic, so sixteen times the float result is exactly
    # this, whatever order the float sums ran in.
    first, last = bin_start, bin_start + n_bins - 1
    left = np.arange(-1, counts.size - 1)
    left[first] = first
    right = np.arange(1, counts.size + 1)
    right[last] = last
    once = counts[left] + 2 * counts + counts[right]
    twice = once[left] + 2 * once + once[right]

    # A peak rises above its left neighbour and is not below its right
    # one (the row's ends see -inf outside).  Every row has one: the first
    # bin reaching the row's (positive) maximum.
    before = twice[left]
    before[first] = -1
    after = twice[right]
    after[last] = -1
    peaks = np.flatnonzero((twice > before) & (twice >= after) & (twice > 0))
    row = np.searchsorted(bin_start, peaks, side="right") - 1
    height = twice[peaks] / 16.0
    tallest = np.zeros(k)
    np.maximum.at(tallest, row, height)
    keep = height >= min_relative_height * tallest[row]
    peaks, row, height = peaks[keep], row[keep], height[keep]
    order = np.lexsort((peaks, -height, row))
    at = peaks[order] + row[order]
    location = 0.5 * (edges[at] + edges[at + 1])
    bounds = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=k))))
    location, height = location.tolist(), height[order].tolist()
    return [
        [ModeInfo(location=location[i], height=height[i])
         for i in range(bounds[r], bounds[r + 1])]
        for r in range(k)
    ]


def _bimodality(block: np.ndarray, sigma: np.ndarray) -> list[float]:
    """Sarle's coefficient of every row, from its moments about the mean:
    the row means of c²·c and c²·c²; 0 where σ or the denominator is 0."""
    n = block.shape[1]
    centered = block - block.mean(axis=1, keepdims=True)
    squared = centered * centered
    centered *= squared
    squared *= squared
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = centered.mean(axis=1) / sigma**3
        kurt = squared.mean(axis=1) / sigma**4
        denominator = kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
        coefficient = (skew * skew + 1.0) / denominator
    defined = (sigma != 0.0) & (denominator != 0.0)
    return np.where(defined, coefficient, 0.0).tolist()


def multimodality_rows(
    block: np.ndarray, bins: int | None = None, min_relative_height: float = 0.1
) -> list[Modality | None]:
    """The modes and bimodality coefficient of every row of a raw ``(k, n)``
    block of values (no NaN).

    One row-wise sort gives each row's minimum, maximum and Freedman–
    Diaconis quartiles; ``np.std`` along the rows gives Scott's fallback
    width.  One flat ``bincount`` over per-row uniform bins reproduces
    ``np.histogram``'s edge arithmetic; the counts are smoothed 1-2-1
    twice and a mode is a local maximum at least ``min_relative_height``
    times the row's tallest, tallest first.  A constant row has one mode,
    at its value, of height 1.  Every reduction runs along the row, so a
    row's result does not depend on the rows beside it.  With fewer than
    :data:`MIN_VALUES` columns every row is None.
    """
    k, n = block.shape
    if n < MIN_VALUES:
        return [None] * k
    sigma = block.std(axis=1)
    modes: list[list[ModeInfo]] = [
        [ModeInfo(location=value, height=1.0)] for value in block[:, 0].tolist()]
    ordered = np.sort(block, axis=1)
    varied = ordered[:, 0] != ordered[:, -1]
    if varied.any():
        if not varied.all():
            ordered = ordered[varied]
        for r, found in zip(np.flatnonzero(varied).tolist(), _histogram_modes(
                ordered, sigma[varied], bins, min_relative_height)):
            modes[r] = found
    del ordered
    return [Modality(modes=found, bimodality_coefficient=coefficient)
            for found, coefficient in zip(modes, _bimodality(block, sigma))]


def _one_row(values: np.ndarray, bins: int | None = None,
             min_relative_height: float = 0.1) -> Modality:
    x = _clean(values, MIN_VALUES)
    (result,) = multimodality_rows(x[np.newaxis, :], bins, min_relative_height)
    return result


def find_modes(
    values: np.ndarray, bins: int | None = None, min_relative_height: float = 0.1
) -> list[ModeInfo]:
    """Locate modes as local maxima of a smoothed histogram.

    A local maximum counts as a mode only if its height is at least
    ``min_relative_height`` times the height of the tallest mode, which
    filters sampling noise.  :func:`multimodality_rows` on a one-row block.
    """
    return _one_row(values, bins, min_relative_height).modes


def mode_count(values: np.ndarray, bins: int | None = None) -> int:
    """Number of detected modes."""
    return len(find_modes(values, bins=bins))


def bimodality_coefficient(values: np.ndarray) -> float:
    """Sarle's bimodality coefficient in (0, 1]; > 0.555 suggests bimodality."""
    return _one_row(values).bimodality_coefficient


def mode_strength(modes: list[ModeInfo]) -> float:
    """The Multimodality insight ranking metric of :func:`find_modes`'
    answer, in [0, 1].

    0 for unimodal columns.  For multimodal columns the score is the
    relative prominence of the second-highest mode (its height divided by
    the primary mode's height), scaled by how many extra modes exist, so
    clean bimodal mixtures with comparable masses score near 1.
    """
    if len(modes) < 2:
        return 0.0
    primary, secondary = modes[0], modes[1]
    prominence = secondary.height / primary.height if primary.height > 0 else 0.0
    extra_modes_bonus = min(len(modes) - 1, 3) / 3.0
    return float(min(1.0, 0.7 * prominence + 0.3 * extra_modes_bonus))


def multimodality_strength(values: np.ndarray, bins: int | None = None) -> float:
    """:func:`mode_strength` of the column's modes."""
    return mode_strength(find_modes(values, bins=bins))
