"""General statistical dependence measures.

The paper lists "general statistical dependencies" among its additional
insight classes.  These metrics quantify association beyond linear
correlation:

* mutual information between two discretised/categorical columns;
* normalised mutual information (symmetric uncertainty);
* Cramér's V from the chi-square statistic of a contingency table;
* the correlation ratio η² between a categorical and a numeric column.

Each statistic is one array kernel over integer codes and one-hot blocks
(:func:`one_hot`, :func:`group_scatter`, :func:`cramers_v_of_table`); the
label-sequence functions :func:`factorize` their input and call it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import EmptyColumnError
from repro.stats.correlation import standardize


def factorize(labels: Sequence[object]) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes (-1 where the label is None) into the sorted distinct
    ``str`` levels of a label sequence, and those levels."""
    raw = np.asarray(labels, dtype=object)
    present = raw != None  # noqa: E711 - elementwise on an object array
    levels, inverse = np.unique(raw[present].astype(str), return_inverse=True)
    codes = np.full(raw.size, -1, dtype=np.int64)
    codes[present] = inverse
    return codes, levels


def one_hot(codes: np.ndarray) -> np.ndarray:
    """The (levels present, n) 0/1 block of a code array, one row per
    distinct code in ascending order."""
    levels, inverse = np.unique(codes, return_inverse=True)
    block = np.zeros((levels.size, inverse.size), dtype=np.float64)
    block[inverse, np.arange(inverse.size)] = 1.0
    return block


def contingency_table(x_labels: Sequence[object], y_labels: Sequence[object]) -> np.ndarray:
    """Joint count table of two label sequences (missing rows dropped);
    rows and columns follow the sorted levels present."""
    if len(x_labels) != len(y_labels):
        raise ValueError("label sequences must have equal length")
    x_codes, y_codes = factorize(x_labels)[0], factorize(y_labels)[0]
    keep = (x_codes >= 0) & (y_codes >= 0)
    if not keep.any():
        raise EmptyColumnError("no complete label pairs")
    return one_hot(x_codes[keep]) @ one_hot(y_codes[keep]).T


def chi_square(table: np.ndarray) -> float:
    """Pearson chi-square statistic of a contingency table."""
    table = np.asarray(table, dtype=np.float64)
    total = table.sum()
    if total == 0:
        raise EmptyColumnError("empty contingency table")
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def cramers_v_of_table(table: np.ndarray) -> float:
    """Cramér's V of a contingency table with no empty row or column
    (``one_hot_a @ one_hot_b.T``); 0.0 when either side has one level."""
    n = table.sum()
    k = min(table.shape) - 1
    if k <= 0 or n == 0:
        return 0.0
    return float(math.sqrt(chi_square(table) / (n * k)))


def cramers_v(x_labels: Sequence[object], y_labels: Sequence[object]) -> float:
    """Cramér's V in [0, 1]; 0 = independent, 1 = perfectly associated."""
    return cramers_v_of_table(contingency_table(x_labels, y_labels))


def mutual_information(
    x_labels: Sequence[object], y_labels: Sequence[object], base: float = 2.0
) -> float:
    """Mutual information I(X; Y) of two label sequences (in bits by default)."""
    table = contingency_table(x_labels, y_labels)
    joint = table / table.sum()
    independent = joint.sum(axis=1, keepdims=True) @ joint.sum(axis=0, keepdims=True)
    seen = joint > 0
    mi = float(np.sum(joint[seen] * np.log(joint[seen] / independent[seen])))
    return max(mi / math.log(base), 0.0)


def symmetric_uncertainty(
    x_labels: Sequence[object], y_labels: Sequence[object]
) -> float:
    """Normalised mutual information 2·I / (H(X) + H(Y)) in [0, 1]."""
    table = contingency_table(x_labels, y_labels)
    n = table.sum()
    px = table.sum(axis=1) / n
    py = table.sum(axis=0) / n
    hx = -float(np.sum(px[px > 0] * np.log2(px[px > 0])))
    hy = -float(np.sum(py[py > 0] * np.log2(py[py > 0])))
    if hx + hy == 0.0:
        return 0.0
    return float(2.0 * mutual_information(x_labels, y_labels) / (hx + hy))


def discretize(values: np.ndarray, bins: int = 10) -> list[str | None]:
    """Equal-width binning of a numeric array into bin labels.

    Used to apply categorical dependence measures to numeric columns;
    missing values (NaN) map to None.
    """
    values = np.asarray(values, dtype=np.float64)
    missing = np.isnan(values)
    if missing.all():
        raise EmptyColumnError("no non-missing values to discretise")
    low, high = float(values[~missing].min()), float(values[~missing].max())
    index = np.zeros(values.size, dtype=np.int64)
    if low != high:
        edges = np.linspace(low, high, bins + 1)
        index = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)
    labels = np.char.add("bin", index.astype(str)).astype(object)
    labels[missing] = None
    return labels.tolist()


def numeric_mutual_information(x: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Mutual information between two numeric columns via equal-width binning."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = ~(np.isnan(x) | np.isnan(y))
    if int(keep.sum()) < 2:
        raise EmptyColumnError("need at least 2 complete pairs")
    return mutual_information(discretize(x[keep], bins), discretize(y[keep], bins))


def group_scatter(
    onehot: np.ndarray, standardized: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Between-group and total sums of squares of every row of a
    standardised (d, n) matrix under the grouping ``onehot`` (levels, n).

    One ``onehot @ standardized.T`` gives every column's group sums; a
    standardised row has mean 0, so its between-group scatter is
    Σ_g (group sum)² / n_g and its total is Σ z² (0 for a constant row).
    The product's shape is fixed by the table, not by which columns a
    caller goes on to read.
    """
    sums = onehot @ standardized.T
    between = (sums * sums / onehot.sum(axis=1, keepdims=True)).sum(axis=0)
    total = (standardized * standardized).sum(axis=1)
    return between, total


def scatter_ratio(between: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``between / total`` clipped to [0, 1]; 0 where there is no scatter."""
    safe = np.where(total > 0.0, total, 1.0)
    return np.where(total > 0.0, np.clip(between / safe, 0.0, 1.0), 0.0)


def correlation_ratio(labels: Sequence[object], values: Iterable[float]) -> float:
    """Correlation ratio η² between a categorical and a numeric column.

    η² is the fraction of numeric variance explained by the category; it is
    the dependence metric used when exactly one of the attributes is
    categorical.
    """
    values = np.asarray(list(values), dtype=np.float64)
    codes = factorize(labels)[0]
    if codes.size != values.size:
        raise ValueError("labels and values must have equal length")
    keep = (codes >= 0) & ~np.isnan(values)
    if int(keep.sum()) < 2:
        raise EmptyColumnError("need at least 2 complete pairs")
    between, total = group_scatter(
        one_hot(codes[keep]), standardize(values[keep][None, :])
    )
    return float(scatter_ratio(between, total)[0])
