"""Histogram binning rules.

Histograms are the preferred visualization for the dispersion, skew and
heavy-tails insights (paper section 2.2).  This module provides the binning
rules used to build their specs: Sturges, Scott, Freedman–Diaconis and an
automatic rule that picks a sensible default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.moments import _clean


def sturges_bins(values: np.ndarray) -> int:
    """Sturges' rule: ceil(log2 n) + 1."""
    x = _clean(values)
    return int(np.ceil(np.log2(max(x.size, 1)))) + 1


def scott_bin_width(values: np.ndarray) -> float:
    """Scott's rule bin width 3.49 σ n^(-1/3); 0 for constant columns."""
    x = _clean(values)
    sigma = float(np.std(x))
    if sigma == 0.0:
        return 0.0
    return 3.49 * sigma * x.size ** (-1.0 / 3.0)


def freedman_diaconis_bin_width(values: np.ndarray) -> float:
    """Freedman–Diaconis rule bin width 2·IQR·n^(-1/3); 0 if IQR is 0."""
    x = _clean(values)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    iqr = float(q3 - q1)
    if iqr == 0.0:
        return 0.0
    return 2.0 * iqr * x.size ** (-1.0 / 3.0)


def auto_bin_count(values: np.ndarray, max_bins: int = 100) -> int:
    """Automatic bin count: Freedman–Diaconis, falling back to Sturges."""
    x = _clean(values)
    data_range = float(np.max(x) - np.min(x))
    if data_range == 0.0:
        return 1
    width = freedman_diaconis_bin_width(x)
    if width <= 0.0:
        width = scott_bin_width(x)
    if width <= 0.0:
        return min(sturges_bins(x), max_bins)
    return int(min(max(np.ceil(data_range / width), 1), max_bins))


@dataclass(frozen=True)
class HistogramBin:
    """One bin of a computed histogram."""

    left: float
    right: float
    count: int
    frequency: float

    @property
    def center(self) -> float:
        return 0.5 * (self.left + self.right)


def histogram_counts(
    values: np.ndarray, bins: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (counts, edges) using the automatic rule when ``bins`` is None."""
    x = _clean(values)
    if bins is None:
        bins = auto_bin_count(x)
    counts, edges = np.histogram(x, bins=bins)
    return counts, edges


def histogram(values: np.ndarray, bins: int | None = None) -> list[HistogramBin]:
    """Compute a histogram as a list of :class:`HistogramBin`."""
    counts, edges = histogram_counts(values, bins=bins)
    total = int(counts.sum())
    out = []
    for i in range(counts.size):
        count = int(counts[i])
        out.append(
            HistogramBin(
                left=float(edges[i]),
                right=float(edges[i + 1]),
                count=count,
                frequency=count / total if total else 0.0,
            )
        )
    return out
