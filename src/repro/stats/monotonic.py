"""Nonlinear monotonic relationship measures.

The paper lists "nonlinear monotonic relationships" among its additional
insight classes.  A pair (x, y) exhibits a *nonlinear* monotonic
relationship when the rank correlation is strong but the linear correlation
underestimates it — e.g. y = exp(x) or y = log(x).

The ranking metric combines:

* the magnitude of the Spearman rank correlation (how monotonic), and
* the gap |Spearman| − |Pearson| (how nonlinear the monotonicity is).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.correlation import pearson, spearman


@dataclass(frozen=True)
class MonotonicRelation:
    """Summary of the monotonic relationship between two numeric columns."""

    spearman: float
    pearson: float

    @property
    def nonlinearity_gap(self) -> float:
        """How much stronger the rank correlation is than the linear one."""
        return max(abs(self.spearman) - abs(self.pearson), 0.0)

    @property
    def strength(self) -> float:
        """The Nonlinear-Monotonic-Relationship ranking metric.

        |Spearman| weighted by how much it exceeds |Pearson|, so pairs that
        a linear-correlation ranking would miss rank high here, while pairs
        that are already strongly linear score near 0 (they belong to the
        Linear-Relationship insight instead).
        """
        magnitude = abs(self.spearman)
        if magnitude < 1e-12:
            return 0.0
        return float(magnitude * (self.nonlinearity_gap / magnitude))

    @property
    def direction(self) -> str:
        if self.spearman > 0:
            return "increasing"
        if self.spearman < 0:
            return "decreasing"
        return "none"


def monotonic_relation(x: np.ndarray, y: np.ndarray) -> MonotonicRelation:
    """Compute the Spearman / Pearson pair for (x, y)."""
    return MonotonicRelation(spearman=spearman(x, y), pearson=pearson(x, y))


def monotonic_strength(x: np.ndarray, y: np.ndarray) -> float:
    """:attr:`MonotonicRelation.strength` of the pair (x, y)."""
    return monotonic_relation(x, y).strength


def monotonicity_score(x: np.ndarray, y: np.ndarray) -> float:
    """|Spearman| alone — how monotonic the relationship is, in [0, 1]."""
    return float(abs(spearman(x, y)))
