"""Correlation statistics.

The Linear-Relationship insight ranks attribute pairs by the magnitude of
the Pearson correlation coefficient |ρ(x, y)| (paper section 2.2, insight 6)
and the usage scenario additionally uses Spearman rank correlation as an
alternative ranking metric.  This module provides exact Pearson, Spearman
and Kendall coefficients for pairs of columns, pairwise-complete correlation
matrices (the data behind the Figure 2 overview heat map) and best-fit line
parameters for the scatter-plot visualization.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.errors import EmptyColumnError


def _pair(x: np.ndarray, y: np.ndarray, minimum: int = 2) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    if x.size < minimum:
        raise EmptyColumnError(
            f"need at least {minimum} complete pairs, got {x.size}"
        )
    return x, y


def standardize(rows: np.ndarray) -> np.ndarray:
    """Each row of a (d, n) matrix to zero mean and unit population
    variance; a constant row (no relationship with anything) becomes zeros,
    and so does one holding a value that is not finite.  A constant row
    is told by its values, not its computed deviation: the mean of n
    copies of a value need not be that value, which leaves a deviation
    of rounding noise that would standardise to ±1."""
    rows = np.asarray(rows, dtype=np.float64)
    centered = rows - rows.mean(axis=1, keepdims=True)
    sigma = rows.std(axis=1, keepdims=True)
    varies = (sigma > 0.0) & (rows != rows[:, :1]).any(axis=1, keepdims=True)
    return np.where(varies, centered / np.where(varies, sigma, 1.0), 0.0)


#: Elements per gathered block in :func:`pair_correlations` (bounds the
#: temporaries when an exact-mode table has millions of rows).
_PAIR_BLOCK = 1 << 22


def pair_correlations(
    standardized: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Correlation of rows ``left[k]`` and ``right[k]`` of a standardised
    (d, n) matrix, for every k.

    Gather, multiply, reduce along the contiguous axis: each value comes
    from its own two rows only, so it does not depend on which other pairs
    are asked for.  On standardised ranks this is Spearman.
    """
    left = np.asarray(left, dtype=np.intp)
    right = np.asarray(right, dtype=np.intp)
    n = standardized.shape[1]
    out = np.empty(left.size, dtype=np.float64)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    for start in range(0, left.size, step):
        block = slice(start, start + step)
        out[block] = (standardized[left[block]] * standardized[right[block]]).sum(axis=1)
    return np.clip(out / n, -1.0, 1.0)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient ρ(x, y); 0.0 if either side is constant."""
    x, y = _pair(x, y)
    return float(pair_correlations(standardize(np.stack([x, y])), [0], [1])[0])


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of the tied positions)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    # A tie group's ranks are its mean position whatever order the sort
    # leaves inside it, so the default (unstable, faster) kind gives the
    # same bits.  Not with NaN: each NaN is a group of its own, and only
    # a stable sort fixes which rank each one gets.
    kind = "mergesort" if np.isnan(values).any() else None
    order = np.argsort(values, kind=kind)
    ordered = values[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    last = np.concatenate((first[1:], [n]))  # one past each tie group
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last - 1) + 1.0, last - first)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation coefficient (Pearson on average ranks)."""
    x, y = _pair(x, y)
    return pearson(average_ranks(x), average_ranks(y))


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's τ-b rank correlation (O(n²) implementation, exact)."""
    x, y = _pair(x, y)
    n = x.size
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(n, k=1)
    product = dx[upper] * dy[upper]
    concordant = float(np.sum(product > 0))
    discordant = float(np.sum(product < 0))
    ties_x = float(np.sum(dx[upper] == 0))
    ties_y = float(np.sum(dy[upper] == 0))
    total = n * (n - 1) / 2.0
    denom = np.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        return 0.0
    return float((concordant - discordant) / denom)


@dataclass(frozen=True)
class LinearFit:
    """Best-fit line y = slope * x + intercept, with goodness of fit."""

    slope: float
    intercept: float
    r: float
    r_squared: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


def linear_fit(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least-squares best-fit line (used by the scatter-plot visualization)."""
    x, y = _pair(x, y)
    sx = np.std(x)
    r = pearson(x, y)
    if sx == 0.0:
        return LinearFit(slope=0.0, intercept=float(np.mean(y)), r=r, r_squared=r * r)
    slope = r * np.std(y) / sx
    intercept = float(np.mean(y) - slope * np.mean(x))
    return LinearFit(slope=float(slope), intercept=intercept, r=r, r_squared=r * r)


def correlation_matrix(
    matrix: np.ndarray, method: str = "pearson"
) -> np.ndarray:
    """Pairwise-complete correlation matrix of the columns of ``matrix``.

    ``matrix`` is the (n, d) numeric block; NaNs are handled pairwise.  This
    is the exact computation behind the Figure 2 overview heat map.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if method not in ("pearson", "spearman"):
        raise ValueError(f"unknown correlation method {method!r}")
    n, d = matrix.shape
    if not np.isnan(matrix).any():
        rows = matrix.T
        if method == "spearman":
            rows = np.array([average_ranks(row) for row in rows]).reshape(d, n)
        normalised = standardize(rows)
        corr = normalised @ normalised.T / max(n, 1)
        np.fill_diagonal(corr, 1.0)
        return np.clip(corr, -1.0, 1.0)
    pair = pearson if method == "pearson" else spearman
    out = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            try:
                out[i, j] = out[j, i] = pair(matrix[:, i], matrix[:, j])
            except EmptyColumnError:
                pass  # too few complete pairs: no evidence of a relationship
    return out


def top_correlated_pairs(
    matrix: np.ndarray,
    names: list[str],
    k: int = 10,
    method: str = "pearson",
    absolute: bool = True,
) -> list[tuple[str, str, float]]:
    """The k attribute pairs with the strongest correlations.

    Returns (name_i, name_j, correlation) sorted by |correlation| (or the
    signed value when ``absolute`` is False) in descending order.
    """
    corr = correlation_matrix(matrix, method=method)
    d = corr.shape[0]
    if len(names) != d:
        raise ValueError("names length must match matrix width")
    pairs: list[tuple[str, str, float]] = []
    for i in range(d):
        for j in range(i + 1, d):
            pairs.append((names[i], names[j], float(corr[i, j])))
    key = (lambda p: abs(p[2])) if absolute else (lambda p: p[2])
    pairs.sort(key=key, reverse=True)
    return pairs[:k]


def fisher_z(r: float) -> float:
    """Fisher z-transform of a correlation coefficient (clipped at ±0.999999)."""
    r = float(np.clip(r, -0.999999, 0.999999))
    return float(np.arctanh(r))


def correlation_confidence_interval(
    r: float, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Approximate confidence interval for a Pearson correlation.

    Uses the Fisher z-transform with the normal approximation; useful in the
    sketching benchmarks to judge whether sketch error is within sampling
    noise.
    """
    if n < 4:
        return (-1.0, 1.0)
    z = fisher_z(r)
    se = 1.0 / np.sqrt(n - 3)
    z_crit = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    low, high = z - z_crit * se, z + z_crit * se
    return float(np.tanh(low)), float(np.tanh(high))
