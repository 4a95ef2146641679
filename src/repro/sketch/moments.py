"""Moment sketch: single-pass running sums for dispersion / skew / kurtosis.

The paper notes (section 3) that "skewness and kurtosis can both be computed
for numeric columns in a single pass by maintaining and combining a few
running sums".  :class:`MomentSketch` is that object packaged as a
:class:`repro.sketch.base.Sketch`: it wraps the numerically stable
:class:`repro.stats.moments.RunningMoments` accumulator, adds mergeability
checks and memory accounting, and exposes the three insight metrics it
serves (variance, skewness, kurtosis) plus the mean / std used to
standardise other metrics.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.base import Sketch
from repro.stats.moments import MomentSummary, RunningMoments


class MomentSketch(Sketch):
    """Mergeable single-pass sketch of the first four moments of a column."""

    def __init__(self) -> None:
        self._moments = RunningMoments()

    @classmethod
    def from_moments(cls, moments: RunningMoments) -> "MomentSketch":
        """The sketch of the values ``moments`` has accumulated (adopted, not
        copied: e.g. one row of :func:`repro.stats.moments.block_moments`)."""
        sketch = object.__new__(cls)
        sketch._moments = moments
        return sketch

    # -- construction -----------------------------------------------------------
    def update(self, value) -> None:
        self._moments.update(float(value))

    def update_array(self, values: np.ndarray) -> None:
        self._moments.update_array(np.asarray(values, dtype=np.float64))

    def merge(self, other: "Sketch") -> None:
        self._require_same_type(other)
        assert isinstance(other, MomentSketch)
        self._moments.merge(other._moments)

    def merged(self, other: "Sketch") -> "MomentSketch":
        # The accumulators add into a new one: no copy to then overwrite.
        self._require_same_type(other)
        assert isinstance(other, MomentSketch)
        return self._clone(_moments=self._moments.merged(other._moments))

    def copy(self) -> "MomentSketch":
        # Merged with nothing: a new accumulator holding the same seven scalars.
        return self._clone(_moments=self._moments.merged(RunningMoments()))

    # -- estimates ---------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._moments.n

    def mean(self) -> float:
        return self._moments.mean

    def variance(self) -> float:
        """Dispersion insight metric σ²."""
        return self._moments.variance

    def std(self) -> float:
        return self._moments.std

    def skewness(self) -> float:
        """Skew insight metric γ₁."""
        return self._moments.skewness

    def kurtosis(self) -> float:
        """Heavy-Tails insight metric."""
        return self._moments.kurtosis

    def minimum(self) -> float:
        return self._moments.minimum

    def maximum(self) -> float:
        return self._moments.maximum

    def summary(self) -> MomentSummary:
        return self._moments.summary()

    def memory_bytes(self) -> int:
        # n, mean, M2, M3, M4, min, max — seven scalars.
        return 7 * 8
