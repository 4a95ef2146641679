"""Outlier detection and the Outlier insight metric.

The paper (section 2.2, insight 4) measures the presence and significance of
extreme outliers by applying a *user-configurable* outlier-detection
algorithm and computing the **average standardized distance** of the
detected outliers from the mean (distance in standard deviations).  This
module provides three standard detectors (z-score, IQR fences, MAD) behind a
common interface, plus the metric itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.stats.moments import _clean


@dataclass(frozen=True)
class OutlierResult:
    """Result of running an outlier detector on a numeric column."""

    indices: np.ndarray
    values: np.ndarray
    n_total: int
    detector: str

    @property
    def count(self) -> int:
        return int(self.indices.size)

    @property
    def fraction(self) -> float:
        return self.count / self.n_total if self.n_total else 0.0


class OutlierDetector(Protocol):
    """A detector maps a clean value array to a boolean outlier mask."""

    def __call__(self, values: np.ndarray) -> np.ndarray: ...


def zscore_detector(threshold: float = 3.0) -> Callable[[np.ndarray], np.ndarray]:
    """Flag values more than ``threshold`` standard deviations from the mean."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    def detect(values: np.ndarray) -> np.ndarray:
        sigma = np.std(values)
        if sigma == 0.0:
            return np.zeros(values.shape, dtype=bool)
        return np.abs(values - np.mean(values)) > threshold * sigma

    detect.__name__ = f"zscore(threshold={threshold})"
    return detect


def iqr_detector(k: float = 1.5) -> Callable[[np.ndarray], np.ndarray]:
    """Tukey's fences: flag values beyond Q1 - k*IQR or Q3 + k*IQR."""
    if k <= 0:
        raise ValueError("k must be positive")

    def detect(values: np.ndarray) -> np.ndarray:
        q1, q3 = np.quantile(values, [0.25, 0.75])
        iqr = q3 - q1
        if iqr == 0.0:
            return np.zeros(values.shape, dtype=bool)
        return (values < q1 - k * iqr) | (values > q3 + k * iqr)

    detect.__name__ = f"iqr(k={k})"
    return detect


def mad_detector(threshold: float = 3.5) -> Callable[[np.ndarray], np.ndarray]:
    """Flag values whose modified z-score (based on the MAD) exceeds threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    def detect(values: np.ndarray) -> np.ndarray:
        median = np.median(values)
        mad = np.median(np.abs(values - median))
        if mad == 0.0:
            return np.zeros(values.shape, dtype=bool)
        modified_z = 0.6745 * (values - median) / mad
        return np.abs(modified_z) > threshold

    detect.__name__ = f"mad(threshold={threshold})"
    return detect


_NAMED_DETECTORS: dict[str, Callable[[], Callable[[np.ndarray], np.ndarray]]] = {
    "zscore": zscore_detector,
    "iqr": iqr_detector,
    "mad": mad_detector,
}


def get_detector(name: str, **kwargs) -> Callable[[np.ndarray], np.ndarray]:
    """Look up a detector by name (``zscore``, ``iqr`` or ``mad``)."""
    if name not in _NAMED_DETECTORS:
        raise ValueError(
            f"unknown outlier detector {name!r}; available: {sorted(_NAMED_DETECTORS)}"
        )
    return _NAMED_DETECTORS[name](**kwargs)


def detect_outliers(
    values: np.ndarray, detector: Callable[[np.ndarray], np.ndarray] | str = "iqr",
    **detector_kwargs,
) -> OutlierResult:
    """Run a detector and return the outlier indices and values."""
    x = _clean(values, 3)
    if isinstance(detector, str):
        detector = get_detector(detector, **detector_kwargs)
    mask = np.asarray(detector(x), dtype=bool)
    indices = np.flatnonzero(mask)
    return OutlierResult(
        indices=indices,
        values=x[indices].copy(),
        n_total=int(x.size),
        detector=getattr(detector, "__name__", detector.__class__.__name__),
    )


def average_standardized_distance(
    values: np.ndarray, detector: Callable[[np.ndarray], np.ndarray] | str = "iqr",
    **detector_kwargs,
) -> float:
    """The Outlier insight ranking metric.

    Average distance of detected outliers from the column mean, measured in
    standard deviations.  Columns with no detected outliers (or zero
    standard deviation) score 0.0.
    """
    x = _clean(values, 3)
    result = detect_outliers(x, detector, **detector_kwargs)
    if result.count == 0:
        return 0.0
    sigma = np.std(x)
    if sigma == 0.0:
        return 0.0
    distances = np.abs(result.values - np.mean(x)) / sigma
    return float(np.mean(distances))


def outlier_strength(
    values: np.ndarray, detector: Callable[[np.ndarray], np.ndarray] | str = "iqr",
    **detector_kwargs,
) -> tuple[float, OutlierResult]:
    """Metric and detection result together (used by the insight class)."""
    x = _clean(values, 3)
    result = detect_outliers(x, detector, **detector_kwargs)
    sigma = np.std(x)
    if result.count == 0 or sigma == 0.0:
        return 0.0, result
    distances = np.abs(result.values - np.mean(x)) / sigma
    return float(np.mean(distances)), result
