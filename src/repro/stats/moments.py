"""Single-pass, mergeable moment statistics.

Section 3 of the paper notes that "skewness and kurtosis can both be
computed for numeric columns in a single pass by maintaining and combining
a few running sums".  :class:`RunningMoments` is exactly that object: it
maintains the count and the first four central moments using the numerically
stable pairwise-update formulas (Pébay 2008), supports ``merge`` so partial
results from data partitions compose, and exposes the paper's ranking
metrics:

* variance  σ²(b)            (Dispersion insight),
* skewness  γ₁(b)            (Skew insight),
* kurtosis  Kurt(b)          (Heavy-Tails insight).

Convenience functions compute the same statistics directly from arrays, with
NaN handling, matching the streaming results to floating-point accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import EmptyColumnError


@dataclass
class MomentSummary:
    """A frozen snapshot of moment statistics for a numeric column."""

    count: int
    mean: float
    variance: float
    std: float
    skewness: float
    kurtosis: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "std": self.std,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "min": self.minimum,
            "max": self.maximum,
        }


class RunningMoments:
    """Streaming first-four-moments accumulator (mergeable).

    The accumulator keeps ``n``, the mean and the central moment sums
    M2 = Σ(x-μ)², M3 = Σ(x-μ)³, M4 = Σ(x-μ)⁴, updated with numerically
    stable formulas.  ``merge`` combines two accumulators built over
    disjoint data partitions, which is the composability property the
    paper's preprocessing step relies on.
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- updates -----------------------------------------------------------
    def update(self, value: float) -> None:
        """Add a single value."""
        if value != value:  # NaN check without importing numpy here
            return
        n1 = self.n
        self.n += 1
        delta = value - self.mean
        delta_n = delta / self.n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self.m4 += (
            term1 * delta_n2 * (self.n * self.n - 3 * self.n + 3)
            + 6 * delta_n2 * self.m2
            - 4 * delta_n * self.m3
        )
        self.m3 += term1 * delta_n * (self.n - 2) - 3 * delta_n * self.m2
        self.m2 += term1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def update_many(self, values: Iterable[float]) -> None:
        """Add many values (loops over :meth:`update`)."""
        for value in values:
            self.update(float(value))

    def update_array(self, values: np.ndarray) -> None:
        """Add a NumPy array of values efficiently by merging a batch summary."""
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return
        (batch,) = block_moments(values[np.newaxis, :])
        self.__dict__.update(self.merged(batch).__dict__)

    # -- merge --------------------------------------------------------------
    def merged(self, other: "RunningMoments") -> "RunningMoments":
        """Return a new accumulator equal to this one combined with ``other``."""
        result = RunningMoments()
        if self.n == 0:
            result.__dict__.update(other.__dict__)
            return result
        if other.n == 0:
            result.__dict__.update(self.__dict__)
            return result
        n_a, n_b = self.n, other.n
        n = n_a + n_b
        delta = other.mean - self.mean
        delta2 = delta * delta
        delta3 = delta2 * delta
        delta4 = delta2 * delta2
        result.n = n
        result.mean = self.mean + delta * n_b / n
        result.m2 = self.m2 + other.m2 + delta2 * n_a * n_b / n
        result.m3 = (
            self.m3
            + other.m3
            + delta3 * n_a * n_b * (n_a - n_b) / (n * n)
            + 3.0 * delta * (n_a * other.m2 - n_b * self.m2) / n
        )
        result.m4 = (
            self.m4
            + other.m4
            + delta4 * n_a * n_b * (n_a * n_a - n_a * n_b + n_b * n_b) / (n**3)
            + 6.0 * delta2 * (n_a * n_a * other.m2 + n_b * n_b * self.m2) / (n * n)
            + 4.0 * delta * (n_a * other.m3 - n_b * self.m3) / n
        )
        result.minimum = min(self.minimum, other.minimum)
        result.maximum = max(self.maximum, other.maximum)
        return result

    def merge(self, other: "RunningMoments") -> None:
        """In-place version of :meth:`merged`."""
        self.__dict__.update(self.merged(other).__dict__)

    # -- derived statistics ---------------------------------------------------
    @property
    def variance(self) -> float:
        """Population variance σ² (the paper's dispersion metric)."""
        if self.n == 0:
            return float("nan")
        return self.m2 / self.n

    @property
    def sample_variance(self) -> float:
        """Unbiased sample variance (n - 1 denominator)."""
        if self.n < 2:
            return float("nan")
        return self.m2 / (self.n - 1)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else float("nan")

    @property
    def skewness(self) -> float:
        """Standardised skewness coefficient γ₁ (the paper's skew metric)."""
        if self.n == 0 or self.m2 <= 0.0:
            return 0.0 if self.n > 0 else float("nan")
        denominator = self.m2 ** 1.5
        if denominator == 0.0:  # m2 > 0 can still underflow when raised
            return 0.0
        return math.sqrt(self.n) * self.m3 / denominator

    @property
    def kurtosis(self) -> float:
        """(Non-excess) kurtosis, the paper's heavy-tails metric."""
        if self.n == 0 or self.m2 <= 0.0:
            return 0.0 if self.n > 0 else float("nan")
        denominator = self.m2 * self.m2
        if denominator == 0.0:  # m2 > 0 can still underflow when squared
            return 0.0
        return self.n * self.m4 / denominator

    @property
    def excess_kurtosis(self) -> float:
        """Kurtosis minus 3 (zero for a normal distribution)."""
        return self.kurtosis - 3.0

    def summary(self) -> MomentSummary:
        """Snapshot all derived statistics."""
        if self.n == 0:
            raise EmptyColumnError("no values accumulated")
        return MomentSummary(
            count=self.n,
            mean=self.mean,
            variance=self.variance,
            std=self.std,
            skewness=self.skewness,
            kurtosis=self.kurtosis,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningMoments(n={self.n}, mean={self.mean:.4g})"


def block_moments(block: np.ndarray) -> list[RunningMoments]:
    """One accumulator per row of ``block``: the batch summaries of many
    columns at once.

    ``block`` is a C-contiguous ``(d, n)`` float64 array, one variable per
    row, NaN-free, ``n >= 1``.  Every reduction runs along the contiguous
    axis, so a row's sums are the pairwise sums the same values give as a
    1-D array — a column summarised alone (:meth:`RunningMoments.update_array`
    passes a one-row block) and inside a wider block agree to the bit.
    Powers are explicit products: ``x**3`` and ``x**4`` go through ``pow``.
    """
    mean = block.mean(axis=1)
    centered = block - mean[:, np.newaxis]
    squared = centered * centered
    columns = zip(
        mean.tolist(),
        squared.sum(axis=1).tolist(),
        (squared * centered).sum(axis=1).tolist(),
        (squared * squared).sum(axis=1).tolist(),
        block.min(axis=1).tolist(),
        block.max(axis=1).tolist(),
    )
    n = int(block.shape[1])
    summaries = []
    for mean_, m2, m3, m4, minimum, maximum in columns:
        moments = RunningMoments()
        moments.n, moments.mean = n, mean_
        moments.m2, moments.m3, moments.m4 = m2, m3, m4
        moments.minimum, moments.maximum = minimum, maximum
        summaries.append(moments)
    return summaries


# ---------------------------------------------------------------------------
# Array-based (exact) counterparts
# ---------------------------------------------------------------------------

def _clean(values: np.ndarray, minimum: int = 1) -> np.ndarray:
    """The non-NaN values as float64 (shared by the whole package); raises
    when fewer than ``minimum`` remain."""
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size < minimum:
        raise EmptyColumnError(
            f"need at least {minimum} non-missing values, got {values.size}"
        )
    return values


def mean(values: np.ndarray) -> float:
    """Arithmetic mean, ignoring NaN."""
    return float(np.mean(_clean(values)))


def variance(values: np.ndarray) -> float:
    """Population variance σ²(b) — the Dispersion insight metric."""
    return float(np.var(_clean(values)))


def std(values: np.ndarray) -> float:
    """Population standard deviation."""
    return float(np.std(_clean(values)))


def skewness(values: np.ndarray) -> float:
    """Standardised skewness γ₁(b) — the Skew insight metric.

    Returns 0.0 for constant columns (no asymmetry to speak of).
    """
    x = _clean(values)
    sigma = np.std(x)
    if sigma == 0.0:
        return 0.0
    centered = x - np.mean(x)
    return float(np.mean(centered**3) / sigma**3)


def kurtosis(values: np.ndarray) -> float:
    """Kurtosis Kurt(b) — the Heavy-Tails insight metric (3.0 for a normal)."""
    x = _clean(values)
    sigma = np.std(x)
    if sigma == 0.0:
        return 0.0
    centered = x - np.mean(x)
    return float(np.mean(centered**4) / sigma**4)


def excess_kurtosis(values: np.ndarray) -> float:
    """Kurtosis minus 3."""
    return kurtosis(values) - 3.0


def coefficient_of_variation(values: np.ndarray) -> float:
    """std / |mean|; an alternative normalised dispersion metric."""
    x = _clean(values)
    mu = float(np.mean(x))
    if mu == 0.0:
        return float("inf") if float(np.std(x)) > 0 else 0.0
    return float(np.std(x) / abs(mu))


def moment_summary(values: np.ndarray) -> MomentSummary:
    """Compute a full :class:`MomentSummary` from an array."""
    x = _clean(values)
    return MomentSummary(
        count=int(x.size),
        mean=float(np.mean(x)),
        variance=float(np.var(x)),
        std=float(np.std(x)),
        skewness=skewness(x),
        kurtosis=kurtosis(x),
        minimum=float(np.min(x)),
        maximum=float(np.max(x)),
    )
