"""Segmentation / clustering strength measures.

The paper's introduction mentions "a strong clustering of (x, y)-values
according to z-values" as an example insight, and section 2.2 lists
"segmentation" among the additional insight classes.  The ranking metrics
here quantify how well a categorical column z separates the values of one
or two numeric columns:

* :func:`anova_f_statistic` and :func:`eta_squared` for a single numeric
  column split by z (one-way ANOVA decomposition);
* :func:`segmentation_strength` for an (x, y) pair split by z, using a
  silhouette-style separation score of the group centroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import EmptyColumnError
from repro.stats.correlation import standardize
from repro.stats.dependence import factorize, group_scatter, one_hot, scatter_ratio


def _grouped(
    values: np.ndarray, labels: Sequence[object], minimum_per_group: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """The usable values and their dense group index (0..k-1), over the
    groups that keep at least ``minimum_per_group`` members."""
    values = np.asarray(values, dtype=np.float64)
    codes, levels = factorize(labels)
    if codes.size != values.size:
        raise ValueError("labels and values must have equal length")
    keep = (codes >= 0) & ~np.isnan(values)
    sizes = np.bincount(codes[keep], minlength=levels.size)
    keep[keep] = sizes[codes[keep]] >= minimum_per_group
    if int((sizes >= minimum_per_group).sum()) < 2:
        raise EmptyColumnError(
            "need at least 2 groups with enough members for segmentation metrics"
        )
    return values[keep], np.unique(codes[keep], return_inverse=True)[1]


@dataclass(frozen=True)
class AnovaResult:
    """One-way ANOVA decomposition of a numeric column by a grouping column."""

    f_statistic: float
    eta_squared: float
    between_ss: float
    within_ss: float
    n_groups: int
    n_values: int


def anova(values: np.ndarray, labels: Sequence[object]) -> AnovaResult:
    """One-way ANOVA of ``values`` grouped by ``labels``."""
    x, group = _grouped(values, labels)
    sizes = np.bincount(group)
    means = np.bincount(group, weights=x) / sizes
    between_ss = float(np.sum(sizes * (means - np.mean(x)) ** 2))
    within_ss = float(np.sum((x - means[group]) ** 2))
    k = int(sizes.size)
    n = int(x.size)
    df_between = k - 1
    df_within = n - k
    if df_within <= 0 or within_ss == 0.0:
        f_stat = float("inf") if between_ss > 0 else 0.0
    else:
        f_stat = (between_ss / df_between) / (within_ss / df_within)
    total_ss = between_ss + within_ss
    eta_sq = between_ss / total_ss if total_ss > 0 else 0.0
    return AnovaResult(
        f_statistic=float(f_stat),
        eta_squared=float(eta_sq),
        between_ss=between_ss,
        within_ss=within_ss,
        n_groups=k,
        n_values=n,
    )


def anova_f_statistic(values: np.ndarray, labels: Sequence[object]) -> float:
    """The one-way ANOVA F statistic."""
    return anova(values, labels).f_statistic


def eta_squared(values: np.ndarray, labels: Sequence[object]) -> float:
    """Fraction of variance explained by the grouping, in [0, 1]."""
    return anova(values, labels).eta_squared


def _complete_points(
    x: np.ndarray, y: np.ndarray, labels: Sequence[object]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2, m) complete points, their level codes and the levels."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or len(labels) != x.size:
        raise ValueError("x, y and labels must have equal length")
    codes, levels = factorize(labels)
    keep = ~(np.isnan(x) | np.isnan(y)) & (codes >= 0)
    return np.stack([x[keep], y[keep]]), codes[keep], levels


def group_centroids(
    x: np.ndarray, y: np.ndarray, labels: Sequence[object]
) -> Mapping[str, tuple[float, float]]:
    """Per-group centroids of the (x, y) points."""
    points, codes, levels = _complete_points(x, y, labels)
    sizes = np.bincount(codes, minlength=levels.size)
    present = np.flatnonzero(sizes)
    centroids = np.stack(
        [np.bincount(codes, weights=axis, minlength=levels.size) for axis in points]
    )[:, present] / sizes[present]
    return {
        str(levels[code]): (float(cx), float(cy))
        for code, cx, cy in zip(present, *centroids)
    }


def pair_strengths(
    between: np.ndarray, total: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """The 2-D η² of every (``left[k]``, ``right[k]``) column pair under one
    grouping, from that grouping's :func:`~repro.stats.dependence.group_scatter`:
    ``(between_x + between_y) / (total_x + total_y)``."""
    return scatter_ratio(between[left] + between[right], total[left] + total[right])


def segmentation_strength(
    x: np.ndarray, y: np.ndarray, labels: Sequence[object]
) -> float:
    """The Segmentation insight ranking metric, in [0, 1].

    Computes, for the 2-D points (x, y) standardised per axis, the ratio of
    between-group scatter to total scatter of the group centroids — a
    two-dimensional η².  1 means the groups are perfectly separated along
    some direction; 0 means the grouping explains nothing.
    """
    points, codes, _levels = _complete_points(x, y, labels)
    if codes.size < 4:
        raise EmptyColumnError("need at least 4 complete (x, y, label) rows")
    onehot = one_hot(codes)
    if onehot.shape[0] < 2:
        return 0.0
    # Standardise each axis so neither dominates the scatter.
    between, total = group_scatter(onehot, standardize(points))
    return float(pair_strengths(between, total, [0], [1])[0])
