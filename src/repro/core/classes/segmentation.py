"""Segmentation insight class.

The paper's introduction names "a strong clustering of (x, y)-values
according to z-values" as an example insight, and section 2.2 lists
segmentation among the additional insight classes.  A candidate tuple is
(x, y, z) with x, y numeric and z categorical; the ranking metric is the
between-group fraction of scatter of the standardised (x, y) points
(:func:`repro.stats.segmentation.segmentation_strength`), and the preferred
visualization is a scatter plot coloured by z.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.data.table import DataTable
from repro.core.insight import (
    EvaluationContext,
    Insight,
    KernelScoredInsightClass,
    ScoredCandidate,
    pairs,
)
from repro.sketch.features import TableFeatures
from repro.stats import dependence as dependence_stats
from repro.stats import segmentation as segmentation_stats
from repro.viz.charts import grouped_scatter_spec
from repro.viz.spec import VisualizationSpec


class SegmentationInsight(KernelScoredInsightClass):
    """(x, y) points that cluster strongly when grouped by a categorical z."""

    name = "segmentation"
    label = "Segmentation"
    description = "Numeric attribute pairs that separate cleanly by a categorical attribute"
    metric_name = "segmentation_strength"
    arity = 3
    visualization = "grouped_scatter"

    def __init__(self, min_categories: int = 2, max_categories: int = 12):
        self.min_categories = int(min_categories)
        self.max_categories = int(max_categories)

    def _grouping_columns(self, table: DataTable) -> list[str]:
        names = []
        for name in table.categorical_names():
            column = table.categorical_column(name)
            if self.min_categories <= column.n_categories() <= self.max_categories:
                names.append(name)
        return names

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        groupings = self._grouping_columns(table)
        if not groupings:
            return
        for x_name, y_name in pairs(table.numeric_names()):
            for z_name in groupings:
                yield (x_name, y_name, z_name)

    def candidate_count(self, table: DataTable) -> int:
        d = len(table.numeric_names())
        return (d * (d - 1) // 2) * len(self._grouping_columns(table))

    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """One ``onehot_z @ standardized.T`` per grouping column z gives
        every numeric column's scatter under z; each (x, y | z) is then
        four gathers and a divide."""
        if features.n_rows < 4:
            return [None] * len(candidate_tuples)
        by_grouping: dict[str, list[int]] = {}
        for position, attributes in enumerate(candidate_tuples):
            by_grouping.setdefault(attributes[2], []).append(position)
        results: list[ScoredCandidate | None] = [None] * len(candidate_tuples)
        for z_name, positions in by_grouping.items():
            onehot = features.onehot(z_name)
            strengths = np.zeros(len(positions))
            if onehot.shape[0] >= 2:
                strengths = segmentation_stats.pair_strengths(
                    *dependence_stats.group_scatter(onehot, features.standardized),
                    features.numeric_rows(candidate_tuples[p][0] for p in positions),
                    features.numeric_rows(candidate_tuples[p][1] for p in positions),
                )
            n_groups = features.table.categorical_column(z_name).n_categories()
            for position, strength in zip(positions, strengths.tolist()):
                results[position] = ScoredCandidate(
                    attributes=candidate_tuples[position],
                    score=strength,
                    details={"n_groups": n_groups},
                )
        return results

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        x_name, y_name, z_name = insight.attributes
        table = context.display_table()
        spec = grouped_scatter_spec(
            table.numeric_column(x_name).values,
            table.numeric_column(y_name).values,
            table.categorical_column(z_name).labels(),
            x_name,
            y_name,
            z_name,
            title=f"{self.label}: ({x_name}, {y_name}) by {z_name}",
        )
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        x_name, y_name, z_name = candidate.attributes
        return (
            f"({x_name}, {y_name}) separates into clusters by {z_name} "
            f"(separation {candidate.score:.2f})"
        )
