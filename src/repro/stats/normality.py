"""Normality measures.

The usage scenario (paper section 4.1) reports that "Time Devoted To
Leisure has a Normal distribution while Self Reported Health has a
left-skewed distribution".  Foresight therefore needs a univariate
distribution-shape insight that ranks columns by how close to (or far from)
normal they are.  The metrics here support both directions:

* :func:`normality_score` — in [0, 1], higher = more normal-looking;
* :func:`non_normality_score` — its complement, used when hunting for
  interestingly *non*-normal columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.stats.moments import _clean, kurtosis, skewness


@dataclass(frozen=True)
class NormalityResult:
    """Shape summary of a numeric column relative to the normal distribution."""

    skewness: float
    excess_kurtosis: float
    ks_statistic: float
    n_values: int

    @property
    def ks_pvalue(self) -> float:
        """The exact two-sided KS p-value.  Computed on demand: no ranking
        reads it, and importing ``scipy.stats`` costs a serving process
        half a second and 45 MiB at start."""
        from scipy import stats as scipy_stats

        return float(scipy_stats.kstwo.sf(self.ks_statistic, self.n_values))

    @property
    def shape_label(self) -> str:
        """Human-readable shape description used in insight summaries."""
        if abs(self.skewness) < 0.5 and abs(self.excess_kurtosis) < 1.0:
            return "approximately normal"
        if self.skewness <= -0.5:
            return "left-skewed"
        if self.skewness >= 0.5:
            return "right-skewed"
        if self.excess_kurtosis >= 1.0:
            return "heavy-tailed"
        return "light-tailed"

    @property
    def normality_score(self) -> float:
        """Score in [0, 1]; 1 = indistinguishable from a fitted normal.

        Combines the KS statistic with penalties for skewness and excess
        kurtosis, so the score degrades smoothly as the shape departs from
        normal even when the sample is too small for the KS test to reject.
        """
        ks_component = max(0.0, 1.0 - 2.0 * self.ks_statistic)
        skew_penalty = min(abs(self.skewness) / 2.0, 1.0)
        kurtosis_penalty = min(abs(self.excess_kurtosis) / 6.0, 1.0)
        shape_component = 1.0 - 0.5 * (skew_penalty + kurtosis_penalty)
        return float(max(0.0, min(1.0, 0.5 * ks_component + 0.5 * shape_component)))


def ks_statistic(values: np.ndarray, mu: float, sigma: float) -> float:
    """Two-sided Kolmogorov–Smirnov distance between the sample and
    N(mu, sigma²), in closed form: the larger of the empirical CDF's
    greatest excess over, and greatest shortfall under, the normal CDF."""
    n = values.size
    cdf = ndtr((np.sort(values) - mu) / sigma)
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                     (cdf - np.arange(0.0, n) / n).max()))


def normality_test(values: np.ndarray) -> NormalityResult:
    """Kolmogorov–Smirnov distance to a fitted normal plus moment shape."""
    x = _clean(values, 8)
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        return NormalityResult(
            skewness=0.0, excess_kurtosis=-3.0, ks_statistic=1.0, n_values=x.size
        )
    return NormalityResult(
        skewness=skewness(x),
        excess_kurtosis=kurtosis(x) - 3.0,
        ks_statistic=ks_statistic(x, mu, sigma),
        n_values=x.size,
    )


def normality_score(values: np.ndarray) -> float:
    """:attr:`NormalityResult.normality_score` of :func:`normality_test`."""
    return normality_test(values).normality_score


def non_normality_score(values: np.ndarray) -> float:
    """1 - :func:`normality_score`; high for strongly non-normal columns."""
    return 1.0 - normality_score(values)
