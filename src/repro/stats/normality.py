"""Normality measures.

The usage scenario (paper section 4.1) reports that "Time Devoted To
Leisure has a Normal distribution while Self Reported Health has a
left-skewed distribution".  Foresight therefore needs a univariate
distribution-shape insight that ranks columns by how close to (or far from)
normal they are.  The metrics here support both directions:

* :func:`normality_score` — in [0, 1], higher = more normal-looking;
* :func:`non_normality_score` — its complement, used when hunting for
  interestingly *non*-normal columns.

:func:`normality_rows` is the whole-class kernel: one pass scores every row
of a standardised block, and :func:`normality_test` is that kernel on a
one-row block.  :func:`ndtr`, the normal CDF the KS distance needs, is
Cephes' algorithm in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.stats.correlation import standardize
from repro.stats.moments import _clean

#: Fewest values a column needs for a shape diagnosis.
MIN_VALUES = 8

# Cephes ``ndtr.c`` (S. L. Moshier): erf(x) = x·T(x²)/U(x²) for |x| < 1,
# erfc(x) = exp(−x²)·P(x)/Q(x) for 1 <= x < 8 and exp(−x²)·R(x)/S(x) from
# 8 up.  Highest power first; U, Q and S have an implied leading 1.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
#: Past x² = MAXLOG, exp(−x²) underflows and erfc(x) is 0.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    acc = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    acc = x + coefficients[0]
    for c in coefficients[1:]:
        acc *= x
        acc += c
    return acc


def ndtr(x) -> np.ndarray:
    """The standard normal CDF Φ, element-wise: a vectorised port of
    ``ndtr`` from the Cephes Math Library.

    With w = x/√2: ``0.5 + 0.5·erf(w)`` for |w| < 1, else ``0.5·erfc(|w|)``
    (its complement for positive x).  −inf maps to 0, +inf to 1 and NaN to
    NaN.  Each value depends on its own element only.
    """
    a = np.asarray(x, dtype=np.float64)
    w = a.ravel() * math.sqrt(0.5)
    z = np.abs(w)
    out = np.full(w.shape, np.nan)

    near = z < 1.0
    v = w[near]
    out[near] = 0.5 + 0.5 * (v * _polevl(v * v, _T) / _p1evl(v * v, _U))

    far = z >= 1.0
    tail = z[far]
    half_erfc = np.zeros(tail.shape)
    for part, numerator, denominator in (
            (tail < 8.0, _P, _Q), ((tail >= 8.0) & (tail * tail <= _MAXLOG), _R, _S)):
        v = tail[part]
        half_erfc[part] = 0.5 * (
            np.exp(-v * v) * _polevl(v, numerator) / _p1evl(v, denominator))
    out[far] = np.where(w[far] > 0.0, 1.0 - half_erfc, half_erfc)
    return out.reshape(a.shape)


@dataclass(frozen=True)
class NormalityResult:
    """Shape summary of a numeric column relative to the normal distribution."""

    skewness: float
    excess_kurtosis: float
    ks_statistic: float
    n_values: int

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


def normality_rows(standardized: np.ndarray) -> list[NormalityResult | None]:
    """The shape of every row of a standardised ``(k, n)`` block — zero
    mean and unit population variance per row, a constant column all
    zeros (:func:`repro.stats.correlation.standardize`).

    One row-wise sort and one :func:`ndtr` give each row's two-sided
    Kolmogorov–Smirnov distance to N(0, 1): the larger of the empirical
    CDF's greatest excess over, and greatest shortfall under, Φ.  Skewness
    and kurtosis are the row means of z²·z and z²·z².  Every reduction runs
    along the row, so a row's result does not depend on the rows beside
    it.  A constant row is ``ks_statistic=1``, skewness 0, excess −3; with
    fewer than :data:`MIN_VALUES` columns every row is None.
    """
    k, n = standardized.shape
    if n < MIN_VALUES:
        return [None] * k
    cdf = ndtr(np.sort(standardized, axis=1))
    ks = np.maximum((np.arange(1.0, n + 1) / n - cdf).max(axis=1),
                    (cdf - np.arange(0.0, n) / n).max(axis=1))
    ks[~standardized.any(axis=1)] = 1.0
    squared = standardized * standardized
    skewness = (squared * standardized).mean(axis=1)
    kurtosis = (squared * squared).mean(axis=1)
    return [
        NormalityResult(skewness=skew, excess_kurtosis=kurt - 3.0,
                        ks_statistic=distance, n_values=n)
        for skew, kurt, distance in zip(
            skewness.tolist(), kurtosis.tolist(), ks.tolist())
    ]


def normality_test(values: np.ndarray) -> NormalityResult:
    """Kolmogorov–Smirnov distance to a fitted normal plus moment shape:
    :func:`normality_rows` on a one-row block."""
    x = _clean(values, MIN_VALUES)
    (result,) = normality_rows(standardize(x[np.newaxis, :]))
    return result


def normality_score(values: np.ndarray) -> float:
    """:attr:`NormalityResult.normality_score` of :func:`normality_test`."""
    return normality_test(values).normality_score


def non_normality_score(values: np.ndarray) -> float:
    """1 - :func:`normality_score`; high for strongly non-normal columns."""
    return 1.0 - normality_score(values)
