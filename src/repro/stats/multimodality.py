"""Multimodality measures.

The paper lists multimodality among its additional insight classes.  The
ranking metric used here is a combination of:

* the number of modes found by kernel-density / histogram peak counting,
* the prominence of the secondary mode relative to the primary mode.

A strictly unimodal column scores 0; a clean, well-separated bimodal column
scores close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.histogram import histogram_counts
from repro.stats.moments import _clean


@dataclass(frozen=True)
class ModeInfo:
    """A detected mode: its location and its (smoothed) density height."""

    location: float
    height: float


def _smooth(counts: np.ndarray, passes: int = 2) -> np.ndarray:
    """Simple 1-2-1 smoothing of histogram counts to suppress noise peaks."""
    smoothed = counts.astype(np.float64)
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0
    for _ in range(passes):
        padded = np.pad(smoothed, 1, mode="edge")
        smoothed = np.convolve(padded, kernel, mode="valid")
    return smoothed


def find_modes(
    values: np.ndarray, bins: int | None = None, min_relative_height: float = 0.1
) -> list[ModeInfo]:
    """Locate modes as local maxima of a smoothed histogram.

    A local maximum counts as a mode only if its height is at least
    ``min_relative_height`` times the height of the tallest mode, which
    filters sampling noise.
    """
    x = _clean(values, 5)
    if np.unique(x).size == 1:
        return [ModeInfo(location=float(x[0]), height=1.0)]
    counts, edges = histogram_counts(x, bins=bins)
    smoothed = _smooth(counts)
    centers = 0.5 * (edges[:-1] + edges[1:])
    left = np.concatenate(([-np.inf], smoothed[:-1]))
    right = np.concatenate((smoothed[1:], [-np.inf]))
    found = np.flatnonzero((smoothed > left) & (smoothed >= right) & (smoothed > 0))
    if found.size == 0:
        # Completely flat histogram: report the global maximum bin.
        found = np.array([int(np.argmax(smoothed))])
    peaks = [ModeInfo(location=float(centers[i]), height=float(smoothed[i]))
             for i in found]
    tallest = max(peak.height for peak in peaks)
    peaks = [p for p in peaks if p.height >= min_relative_height * tallest]
    peaks.sort(key=lambda p: -p.height)
    return peaks


def mode_count(values: np.ndarray, bins: int | None = None) -> int:
    """Number of detected modes."""
    return len(find_modes(values, bins=bins))


def bimodality_coefficient(values: np.ndarray) -> float:
    """Sarle's bimodality coefficient in (0, 1]; > 0.555 suggests bimodality."""
    x = _clean(values, 5)
    n = x.size
    sigma = np.std(x)
    if sigma == 0.0:
        return 0.0
    centered = x - np.mean(x)
    skew = float(np.mean(centered**3) / sigma**3)
    kurt = float(np.mean(centered**4) / sigma**4)
    denominator = kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)) if n > 3 else kurt
    if denominator == 0.0:
        return 0.0
    return float((skew**2 + 1.0) / denominator)


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
