"""Exact quantiles and order statistics.

These are the exact counterparts of :mod:`repro.sketch.quantile`; the
benchmark harness compares sketch estimates against these functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.moments import _clean


def quantile(values: np.ndarray, q: float) -> float:
    """The q-th quantile (0 <= q <= 1), linear interpolation."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    return float(np.quantile(_clean(values), q))


def quantiles(values: np.ndarray, qs: list[float]) -> list[float]:
    """Multiple quantiles at once."""
    x = _clean(values)
    return [float(np.quantile(x, q)) for q in qs]


def median(values: np.ndarray) -> float:
    """The median (0.5 quantile)."""
    return quantile(values, 0.5)


def iqr(values: np.ndarray) -> float:
    """Interquartile range Q3 - Q1."""
    x = _clean(values)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    return float(q3 - q1)


def rank_of(values: np.ndarray, value: float) -> int:
    """Number of values <= ``value`` (the rank the quantile sketch estimates)."""
    x = _clean(values)
    return int(np.sum(x <= value))


@dataclass
class FiveNumberSummary:
    """Tukey's five-number summary, the data behind a box-and-whisker plot."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def whiskers(self, k: float = 1.5) -> tuple[float, float]:
        """Whisker positions at Q1 - k*IQR and Q3 + k*IQR, clipped to data range."""
        low = max(self.minimum, self.q1 - k * self.iqr)
        high = min(self.maximum, self.q3 + k * self.iqr)
        return low, high

    def as_dict(self) -> dict[str, float]:
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
        }


def five_number_summary(values: np.ndarray) -> FiveNumberSummary:
    """Compute min, Q1, median, Q3, max."""
    x = _clean(values)
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    return FiveNumberSummary(
        minimum=float(np.min(x)),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(np.max(x)),
    )


def trimmed_mean(values: np.ndarray, proportion: float = 0.1) -> float:
    """Mean after trimming ``proportion`` of mass from each tail."""
    if not 0.0 <= proportion < 0.5:
        raise ValueError("proportion must be in [0, 0.5)")
    x = np.sort(_clean(values))
    cut = int(np.floor(proportion * x.size))
    trimmed = x[cut: x.size - cut] if cut else x
    return float(np.mean(trimmed))


def quantile_skewness(values: np.ndarray) -> float:
    """Bowley's quantile-based skewness in [-1, 1] (robust alternative to γ₁)."""
    x = _clean(values)
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    denom = q3 - q1
    if denom == 0.0:
        return 0.0
    return float((q3 + q1 - 2.0 * med) / denom)
