"""Bivariate insight classes.

* :class:`LinearRelationshipInsight` — paper section 2.2, insight 6: the
  strength of a linear relationship between two numeric columns, ranked by
  |Pearson ρ|, visualised with a scatter plot + best-fit line, with the
  Figure 2 correlation heat map as its overview visualization.
* :class:`MonotonicRelationshipInsight` — "nonlinear monotonic
  relationships" from the additional-insights list.
* :class:`DependenceInsight` — "general statistical dependencies" from the
  additional-insights list, covering categorical-categorical (Cramér's V)
  and categorical-numeric (correlation ratio η²) pairs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.data.missing import pairwise_values
from repro.data.table import DataTable
from repro.core.insight import (
    EvaluationContext,
    Insight,
    KernelScoredInsightClass,
    ScoredCandidate,
    pairs,
)
from repro.sketch.features import TableFeatures
from repro.stats import correlation as correlation_stats
from repro.stats import dependence as dependence_stats
from repro.stats import monotonic as monotonic_stats
from repro.viz.charts import grouped_scatter_spec, heatmap_spec, scatter_spec
from repro.viz.spec import VisualizationSpec


class LinearRelationshipInsight(KernelScoredInsightClass):
    """Strong linear relationship between two numeric attributes."""

    name = "linear_relationship"
    label = "Correlations"
    description = "Strong linear relationship between two numeric attributes"
    metric_name = "abs_pearson"
    arity = 2
    visualization = "scatter"
    has_overview = True

    def __init__(self, method: str = "pearson"):
        if method not in ("pearson", "spearman"):
            raise ValueError("method must be 'pearson' or 'spearman'")
        self.method = method

    # -- candidates --------------------------------------------------------------
    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        yield from pairs(table.numeric_names())

    def candidate_domain(self) -> str | None:
        return "numeric-pairs"

    def candidate_count(self, table: DataTable) -> int:
        d = len(table.numeric_names())
        return d * (d - 1) // 2

    # -- scoring -----------------------------------------------------------------
    def _scored(self, attributes: tuple[str, ...], rho: float, source: str) -> ScoredCandidate:
        return ScoredCandidate(
            attributes=attributes,
            score=abs(rho),
            details={
                "correlation": rho,
                "method": self.method,
                "direction": "positive" if rho >= 0 else "negative",
                "source": source,
            },
        )

    def _sketched(self, context: EvaluationContext) -> set[str]:
        """The columns whose Pearson ρ this context reads from the
        store's co-moment sums (none in exact mode or for Spearman)."""
        if context.use_sketches and self.method == "pearson":
            return set(context.store.comoments.names)
        return set()

    def _matrix(self, names: Sequence[str], context: EvaluationContext):
        """All pairwise correlations of ``names`` for the overview: read
        from the co-moment sums (O(d²)) in approximate mode, one dense
        correlation matrix (O(d²·n)) in exact mode — the same values up
        to rounding.  Returns (matrix, column order, source)."""
        if set(names) <= self._sketched(context):
            matrix, ordered = context.store.approx_correlation_matrix(names)
            # Fewer than two shared rows: no evidence of a relationship,
            # as correlation_matrix has it.
            return np.nan_to_num(matrix, nan=0.0), ordered, "sketch"
        dense, ordered = context.table.numeric_matrix(names)
        return correlation_stats.correlation_matrix(dense, method=self.method), ordered, "exact"

    def score_all(
        self, candidate_tuples: Sequence[tuple[str, ...]], context: EvaluationContext
    ) -> list[ScoredCandidate]:
        """In sketch mode a Pearson pair reads ρ from the store's
        co-moment sums: its own entry, the exact-mode value up to
        rounding, and no result where fewer than two rows hold both (as
        :meth:`score_complete` has it).  A pair the sums do not cover is
        scored exactly by :meth:`score_complete` on the full table."""
        sketched = self._sketched(context)
        if not sketched:
            return super().score_all(candidate_tuples, context.exact())
        covered = [set(attrs) <= sketched for attrs in candidate_tuples]
        matrix, ordered = context.store.approx_correlation_matrix(sorted(
            {name for attrs, ok in zip(candidate_tuples, covered) if ok
             for name in attrs}))
        index = {name: i for i, name in enumerate(ordered)}
        uncovered = [attrs for attrs, ok in zip(candidate_tuples, covered) if not ok]
        exact = {scored.attributes: scored for scored in (
            super().score_all(uncovered, context.exact()) if uncovered else ())}
        results = []
        for attributes, ok in zip(candidate_tuples, covered):
            if ok:
                rho = float(matrix[index[attributes[0]], index[attributes[1]]])
                if not np.isnan(rho):
                    results.append(self._scored(attributes, rho, "sketch"))
            elif attributes in exact:
                results.append(exact[attributes])
        return results

    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """Pearson (or Spearman, on the standardised ranks) of gathered
        row pairs: each value comes from its own two columns."""
        if features.n_rows < 2:
            return [None] * len(candidate_tuples)
        block = (features.standardized if self.method == "pearson"
                 else features.rank_standardized)
        rho = correlation_stats.pair_correlations(
            block,
            features.numeric_rows(attrs[0] for attrs in candidate_tuples),
            features.numeric_rows(attrs[1] for attrs in candidate_tuples))
        return [self._scored(attributes, value, "exact")
                for attributes, value in zip(candidate_tuples, rho.tolist())]

    # -- presentation --------------------------------------------------------------
    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        x_name, y_name = insight.attributes
        table = context.display_table()
        x = table.numeric_column(x_name)
        y = table.numeric_column(y_name)
        x_values, y_values = pairwise_values(x, y)
        spec = scatter_spec(x_values, y_values, x_name, y_name,
                            title=f"{self.label}: {y_name} vs {x_name}")
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        spec.metadata["correlation"] = insight.details.get("correlation")
        return spec

    def overview(self, context: EvaluationContext) -> VisualizationSpec | None:
        """The Figure 2 overview: all pairwise correlations as a heat map."""
        names = context.table.numeric_names()
        if len(names) < 2:
            return None
        matrix, ordered, _source = self._matrix(names, context)
        spec = heatmap_spec(matrix, ordered, value_name="correlation",
                            title="Pairwise attribute correlations")
        spec.metadata["insight_class"] = self.name
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        x_name, y_name = candidate.attributes
        rho = candidate.details.get("correlation", candidate.score)
        direction = candidate.details.get("direction", "strong")
        return (
            f"{x_name} and {y_name} have a strong {direction} linear "
            f"relationship (ρ = {rho:+.2f})"
        )


class MonotonicRelationshipInsight(KernelScoredInsightClass):
    """Nonlinear but monotonic relationship between two numeric attributes."""

    name = "monotonic_relationship"
    label = "Nonlinear Monotonic Relationships"
    description = "Monotonic association that a linear fit underestimates"
    metric_name = "monotonic_strength"
    arity = 2
    visualization = "scatter"

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        yield from pairs(table.numeric_names())

    def candidate_domain(self) -> str | None:
        return "numeric-pairs"

    def candidate_count(self, table: DataTable) -> int:
        d = len(table.numeric_names())
        return d * (d - 1) // 2

    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """Spearman is Pearson on the standardised ranks: two
        gather-multiply-reduce passes score every pair of the request."""
        if features.n_rows < 5:
            return [None] * len(candidate_tuples)
        left = features.numeric_rows(attrs[0] for attrs in candidate_tuples)
        right = features.numeric_rows(attrs[1] for attrs in candidate_tuples)
        spearman = correlation_stats.pair_correlations(
            features.rank_standardized, left, right)
        pearson = correlation_stats.pair_correlations(
            features.standardized, left, right)
        results = []
        for attributes, rank_rho, rho in zip(
                candidate_tuples, spearman.tolist(), pearson.tolist()):
            relation = monotonic_stats.MonotonicRelation(spearman=rank_rho, pearson=rho)
            results.append(ScoredCandidate(
                attributes=attributes,
                score=relation.strength,
                details={
                    "spearman": relation.spearman,
                    "pearson": relation.pearson,
                    "direction": relation.direction,
                    "nonlinearity_gap": relation.nonlinearity_gap,
                },
            ))
        return results

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        x_name, y_name = insight.attributes
        table = context.display_table()
        x, y = pairwise_values(table.numeric_column(x_name), table.numeric_column(y_name))
        spec = scatter_spec(x, y, x_name, y_name,
                            title=f"{self.label}: {y_name} vs {x_name}")
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        spec.metadata.update(insight.details)
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        x_name, y_name = candidate.attributes
        spearman = candidate.details.get("spearman", 0.0)
        direction = candidate.details.get("direction", "monotonic")
        return (
            f"{x_name} and {y_name} have a nonlinear {direction} relationship "
            f"(Spearman {spearman:+.2f} vs Pearson "
            f"{candidate.details.get('pearson', 0.0):+.2f})"
        )


class DependenceInsight(KernelScoredInsightClass):
    """General statistical dependence between attributes of mixed kinds."""

    name = "dependence"
    label = "Statistical Dependencies"
    description = "General (not necessarily linear) dependence between attributes"
    metric_name = "dependence_strength"
    arity = 2
    visualization = "heatmap"

    def __init__(self, max_categories: int = 50):
        self.max_categories = int(max_categories)

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        # Identifier-like columns (almost one category per row) trivially
        # "explain" any numeric attribute; exclude them along with very
        # high-cardinality columns.
        identifier_threshold = max(2, table.n_rows // 2)
        categorical = [
            name
            for name in table.categorical_names()
            if table.categorical_column(name).n_categories()
            <= min(self.max_categories, identifier_threshold)
        ]
        numeric = table.numeric_names()
        # categorical-categorical pairs
        yield from pairs(categorical)
        # categorical-numeric pairs (categorical listed first)
        for cat_name in categorical:
            for num_name in numeric:
                yield (cat_name, num_name)

    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """Cramér's V from one ``onehot_a @ onehot_b.T`` per categorical
        pair; η² of *every* numeric column under a categorical one from a
        single ``onehot @ standardized.T``, computed once per grouping."""
        table = features.table
        eta_by_grouping: dict[str, np.ndarray] = {}
        results: list[ScoredCandidate | None] = []
        for attributes in candidate_tuples:
            first, second = attributes
            first_categorical = table.column(first).kind.is_categorical
            value: float | None = None
            if first_categorical and table.column(second).kind.is_categorical:
                measure = "cramers_v"
                if features.n_rows >= 1:
                    value = dependence_stats.cramers_v_of_table(
                        features.onehot(first) @ features.onehot(second).T)
            else:
                measure = "correlation_ratio"
                grouping, numeric = (
                    (first, second) if first_categorical else (second, first))
                if features.n_rows >= 2:
                    if grouping not in eta_by_grouping:
                        eta_by_grouping[grouping] = dependence_stats.scatter_ratio(
                            *dependence_stats.group_scatter(
                                features.onehot(grouping), features.standardized))
                    value = float(
                        eta_by_grouping[grouping][features.numeric_rows([numeric])[0]])
            results.append(None if value is None else ScoredCandidate(
                attributes=attributes, score=value, details={"measure": measure}))
        return results

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        first, second = insight.attributes
        table = context.display_table()
        first_kind = table.column(first).kind
        second_kind = table.column(second).kind
        if first_kind.is_categorical and second_kind.is_categorical:
            contingency = dependence_stats.contingency_table(
                table.categorical_column(first).labels(),
                table.categorical_column(second).labels(),
            )
            x_levels = sorted(set(table.categorical_column(first).valid_labels()))
            spec = heatmap_not_square(contingency, x_levels,
                                      sorted(set(table.categorical_column(second).valid_labels())),
                                      title=f"{self.label}: {first} x {second}")
        else:
            cat_name, num_name = (first, second) if first_kind.is_categorical else (second, first)
            labels = table.categorical_column(cat_name).labels()
            values = table.numeric_column(num_name).values
            index = np.arange(values.size, dtype=np.float64)
            spec = grouped_scatter_spec(
                index, values, labels, "row", num_name, cat_name,
                title=f"{self.label}: {num_name} by {cat_name}",
            )
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        spec.metadata.update(insight.details)
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        first, second = candidate.attributes
        measure = candidate.details.get("measure", "dependence")
        return (
            f"{first} and {second} are statistically dependent "
            f"({measure} = {candidate.score:.2f})"
        )


def heatmap_not_square(
    counts: np.ndarray, row_labels: Sequence[str], column_labels: Sequence[str],
    title: str,
) -> VisualizationSpec:
    """Rectangular count heat map for a contingency table."""
    from repro.viz.spec import VisualizationSpec, encoding_channel

    data = []
    max_count = float(counts.max()) if counts.size else 1.0
    for i, row_label in enumerate(row_labels[: counts.shape[0]]):
        for j, column_label in enumerate(column_labels[: counts.shape[1]]):
            count = float(counts[i, j])
            data.append(
                {
                    "row": row_label,
                    "column": column_label,
                    "count": count,
                    "correlation": count / max_count if max_count else 0.0,
                    "magnitude": count / max_count if max_count else 0.0,
                }
            )
    return VisualizationSpec(
        mark="rect",
        title=title,
        data=data,
        encoding={
            "x": encoding_channel("column", "nominal"),
            "y": encoding_channel("row", "nominal"),
            "color": encoding_channel("count", "quantitative"),
            "size": encoding_channel("magnitude", "quantitative"),
        },
        metadata={"kind": "contingency"},
    )
