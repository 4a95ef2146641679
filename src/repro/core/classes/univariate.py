"""Univariate insight classes over numeric columns.

These cover the first four insights of section 2.2 (dispersion, skew, heavy
tails, outliers — all ranked over single numeric attributes and visualised
with histograms or box plots), plus three univariate classes that round out
the twelve shipped with the demo:

* multimodality (named in the paper's "additional insights"),
* normality / distribution shape (needed by the section 4.1 scenario),
* missing values (section 2.1 notes insights may expose data problems).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import EmptyColumnError
from repro.data.table import DataTable
from repro.core.insight import (
    EvaluationContext,
    Insight,
    InsightClass,
    KernelScoredInsightClass,
    ScoredCandidate,
    singletons,
)
from repro.sketch.features import TableFeatures
from repro.stats import moments as moment_stats
from repro.stats import multimodality as multimodality_stats
from repro.stats import normality as normality_stats
from repro.stats import outliers as outlier_stats
from repro.viz.charts import bar_spec, boxplot_spec, histogram_spec
from repro.viz.spec import VisualizationSpec


class _UnivariateNumericInsight(InsightClass):
    """Shared plumbing for insights ranked over single numeric columns."""

    arity = 1
    visualization = "histogram"

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        yield from singletons(table.numeric_names())

    def candidate_domain(self) -> str | None:
        return "numeric-singletons"

    # -- helpers ---------------------------------------------------------------
    def _values(self, name: str, context: EvaluationContext) -> np.ndarray:
        return context.table.numeric_column(name).valid_values()

    def _safe(self, attributes: tuple[str, ...], compute) -> ScoredCandidate | None:
        try:
            return compute()
        except EmptyColumnError:
            return None

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        name = insight.attributes[0]
        values = self._values(name, context)
        spec = histogram_spec(values, name,
                              title=f"{self.label}: {name}")
        spec.metadata.update(insight.details)
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        return spec


class DispersionInsight(_UnivariateNumericInsight):
    """Very high (or low) dispersion about the mean, measured by the variance.

    Paper section 2.2, insight 1.  Because raw variance is scale dependent,
    candidates are ranked by the variance of the standardised column's scale
    — concretely the squared coefficient of variation — while the raw
    variance is reported in the details; this keeps ranking meaningful
    across attributes measured in different units.
    """

    name = "dispersion"
    label = "Dispersion"
    description = "Very high or low spread of values around the mean"
    metric_name = "variance"

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        name = attributes[0]

        def compute() -> ScoredCandidate | None:
            if context.use_sketches and context.store.has_column(name):
                variance = context.store.approx_variance(name)
                mean = context.store.approx_mean(name)
            else:
                values = self._values(name, context)
                if values.size < 2:
                    return None
                variance = moment_stats.variance(values)
                mean = moment_stats.mean(values)
            if np.isnan(variance):
                return None
            cv2 = variance / (mean * mean) if mean != 0 else float(variance > 0)
            return ScoredCandidate(
                attributes=attributes,
                score=float(cv2),
                details={"variance": float(variance), "mean": float(mean),
                         "coefficient_of_variation_sq": float(cv2)},
            )

        return self._safe(attributes, compute)

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        variance = candidate.details.get("variance", candidate.score)
        return (
            f"{name} is highly dispersed around its mean "
            f"(variance {variance:.3g}, CV² {candidate.score:.3g})"
        )


class SkewInsight(_UnivariateNumericInsight):
    """Strong asymmetry, ranked by |standardised skewness coefficient γ₁|.

    Paper section 2.2, insight 2.  The signed skewness is kept in the
    details so summaries can say "left-skewed" / "right-skewed" (as the
    section 4.1 scenario does for Self Reported Health).
    """

    name = "skew"
    label = "Skew"
    description = "Strong asymmetry of a univariate distribution"
    metric_name = "abs_skewness"

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        name = attributes[0]

        def compute() -> ScoredCandidate | None:
            if context.use_sketches and context.store.has_column(name):
                skew = context.store.approx_skewness(name)
            else:
                values = self._values(name, context)
                if values.size < 3:
                    return None
                skew = moment_stats.skewness(values)
            if np.isnan(skew):
                return None
            direction = "left-skewed" if skew < 0 else "right-skewed"
            if abs(skew) < 0.25:
                direction = "approximately symmetric"
            return ScoredCandidate(
                attributes=attributes,
                score=float(abs(skew)),
                details={"skewness": float(skew), "direction": direction},
            )

        return self._safe(attributes, compute)

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        return (
            f"{name} is {candidate.details.get('direction', 'skewed')} "
            f"(γ₁ = {candidate.details.get('skewness', candidate.score):+.2f})"
        )


class HeavyTailsInsight(_UnivariateNumericInsight):
    """Propensity towards extreme values, ranked by kurtosis.

    Paper section 2.2, insight 3 (kurtosis of a normal distribution is 3;
    larger values indicate heavier tails).
    """

    name = "heavy_tails"
    label = "Heavy Tails"
    description = "Propensity of a distribution towards extreme values"
    metric_name = "kurtosis"

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        name = attributes[0]

        def compute() -> ScoredCandidate | None:
            if context.use_sketches and context.store.has_column(name):
                kurt = context.store.approx_kurtosis(name)
            else:
                values = self._values(name, context)
                if values.size < 4:
                    return None
                kurt = moment_stats.kurtosis(values)
            if np.isnan(kurt):
                return None
            return ScoredCandidate(
                attributes=attributes,
                score=float(kurt),
                details={"kurtosis": float(kurt),
                         "excess_kurtosis": float(kurt) - 3.0},
            )

        return self._safe(attributes, compute)

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        excess = candidate.details.get("excess_kurtosis", candidate.score - 3.0)
        flavour = "heavier" if excess > 0 else "lighter"
        return (
            f"{name} has {flavour} tails than a normal distribution "
            f"(kurtosis {candidate.score:.2f})"
        )


class OutlierInsight(_UnivariateNumericInsight):
    """Presence and significance of extreme outliers.

    Paper section 2.2, insight 4: a user-configurable detector finds the
    outliers and the metric is their average standardized distance from the
    mean (in standard deviations).  Visualised with a box-and-whisker plot.
    """

    name = "outliers"
    label = "Outliers"
    description = "Presence and significance of extreme outlier values"
    metric_name = "avg_standardized_outlier_distance"
    visualization = "boxplot"

    def __init__(self, detector: str = "iqr", **detector_kwargs):
        self.detector = detector
        self.detector_kwargs = dict(detector_kwargs)

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        name = attributes[0]

        def compute() -> ScoredCandidate | None:
            if context.use_sketches and context.store.has_column(name):
                strength = context.store.approx_outlier_strength(name)
                details = {"detector": f"{self.detector} (sketch-approximated)"}
                if strength == 0.0:
                    return ScoredCandidate(attributes=attributes, score=0.0, details=details)
                return ScoredCandidate(attributes=attributes, score=float(strength),
                                       details=details)
            values = self._values(name, context)
            if values.size < 4:
                return None
            strength, result = outlier_stats.outlier_strength(
                values, self.detector, **self.detector_kwargs
            )
            return ScoredCandidate(
                attributes=attributes,
                score=float(strength),
                details={
                    "detector": result.detector,
                    "n_outliers": result.count,
                    "outlier_fraction": result.fraction,
                },
            )

        return self._safe(attributes, compute)

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        name = insight.attributes[0]
        values = self._values(name, context)
        spec = boxplot_spec(values, name, detector=self.detector,
                            title=f"{self.label}: {name}")
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        count = candidate.details.get("n_outliers")
        count_text = f"{count} outliers" if count is not None else "outliers"
        return (
            f"{name} has {count_text} at an average of "
            f"{candidate.score:.1f} standard deviations from the mean"
        )


class MultimodalityInsight(_UnivariateNumericInsight, KernelScoredInsightClass):
    """Multiple modes in a univariate distribution (additional insight)."""

    name = "multimodality"
    label = "Multimodality"
    description = "Distribution with two or more distinct modes"
    metric_name = "multimodality_strength"

    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """Blocks of gathered raw rows, one kernel call each: a row-wise
        sort, one flat ``bincount`` and the peak tests score every column
        of the block."""
        rows = features.numeric_rows(attrs[0] for attrs in candidate_tuples)
        step = max(1, multimodality_stats.ROW_BLOCK // max(features.n_rows, 1))
        found = []
        for start in range(0, rows.size, step):
            found += multimodality_stats.multimodality_rows(
                features.filled[rows[start:start + step]])
        return [
            None if result is None else ScoredCandidate(
                attributes=attributes,
                score=result.strength,
                details={
                    "n_modes": len(result.modes),
                    "mode_locations": [round(m.location, 6) for m in result.modes[:4]],
                    "bimodality_coefficient": result.bimodality_coefficient,
                },
            )
            for attributes, result in zip(candidate_tuples, found)
        ]

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        n_modes = candidate.details.get("n_modes", "multiple")
        return f"{name} shows {n_modes} modes (strength {candidate.score:.2f})"


class NormalityInsight(_UnivariateNumericInsight, KernelScoredInsightClass):
    """Distribution shape relative to the normal distribution.

    The section 4.1 scenario reports that "Time Devoted To Leisure has a
    Normal distribution while Self Reported Health has a left-skewed
    distribution"; this class provides those shape labels.  Ranking uses the
    *non*-normality score so the most interestingly-shaped columns surface
    first, while the details record the full shape diagnosis.
    """

    name = "normality"
    label = "Distribution Shape"
    description = "How far a univariate distribution departs from normal"
    metric_name = "non_normality"

    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """One row-wise sort, one ``ndtr`` and two moment means over the
        gathered standardised rows score every column of the request."""
        if features.n_rows < normality_stats.MIN_VALUES:
            return [None] * len(candidate_tuples)
        rows = features.numeric_rows(attrs[0] for attrs in candidate_tuples)
        results = []
        for attributes, result in zip(candidate_tuples, normality_stats.normality_rows(
                features.standardized[rows])):
            score = 1.0 - result.normality_score
            results.append(ScoredCandidate(
                attributes=attributes,
                score=score,
                details={
                    "shape": result.shape_label,
                    "skewness": result.skewness,
                    "excess_kurtosis": result.excess_kurtosis,
                    "ks_statistic": result.ks_statistic,
                    "normality_score": 1.0 - score,
                },
            ))
        return results

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        shape = candidate.details.get("shape", "non-normal")
        return f"{name} has a {shape} distribution"


class MissingValuesInsight(InsightClass):
    """Columns with substantial missing data (a data-quality insight).

    Section 2.1 notes that insights can "reveal additional, more subtle data
    problems that require further cleaning"; missing-value concentration is
    the most common such problem, so the demo ships it as a first-class
    insight over *all* columns (numeric and categorical).
    """

    name = "missing_values"
    label = "Missing Values"
    description = "Columns with a high fraction of missing entries"
    metric_name = "missing_fraction"
    arity = 1
    visualization = "bar"

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        yield from singletons(table.column_names())

    def candidate_domain(self) -> str | None:
        return "all-singletons"

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        name = attributes[0]
        column = context.table.column(name)
        if len(column) == 0:
            return None
        fraction = column.missing_fraction()
        return ScoredCandidate(
            attributes=attributes,
            score=float(fraction),
            details={"missing_count": column.missing_count(), "n_rows": len(column)},
        )

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        name = insight.attributes[0]
        column = context.table.column(name)
        missing = column.missing_count()
        present = len(column) - missing
        spec = bar_spec(
            labels=["present", "missing"],
            values=[present, missing],
            name="status",
            value_name="rows",
            title=f"{self.label}: {name}",
        )
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        name = candidate.attributes[0]
        return f"{name} is missing in {candidate.score:.1%} of rows"
