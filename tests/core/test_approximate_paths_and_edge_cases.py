"""Tests for the sketch-backed (approximate) scoring paths and for engine
behaviour on degenerate tables."""

import numpy as np
import pytest

from repro import Foresight
from repro.core.engine import EngineConfig
from repro.core.insight import EvaluationContext, MODE_APPROXIMATE, MODE_EXACT
from repro.core.classes import (
    DispersionInsight,
    HeavyTailsInsight,
    HeterogeneousFrequenciesInsight,
    LinearRelationshipInsight,
    OutlierInsight,
    SkewInsight,
)
from repro.data import DataTable
from repro.data.datasets import make_mixed_table
from repro.sketch.store import SketchStore, SketchStoreConfig


@pytest.fixture(scope="module")
def mixed_table() -> DataTable:
    return make_mixed_table(n_rows=4000, n_numeric=10, n_categorical=2, seed=17)


@pytest.fixture(scope="module")
def contexts(mixed_table):
    store = SketchStore(mixed_table, config=SketchStoreConfig(seed=2))
    approx = EvaluationContext(table=mixed_table, store=store, mode=MODE_APPROXIMATE)
    exact = EvaluationContext(table=mixed_table, store=store, mode=MODE_EXACT)
    return approx, exact


class TestApproximateScoringPaths:
    @pytest.mark.parametrize("insight_class", [DispersionInsight(), SkewInsight(), HeavyTailsInsight()])
    def test_moment_classes_match_exact_exactly(self, contexts, insight_class):
        approx, exact = contexts
        attributes = ("attr_004",)
        approx_scored = insight_class.score(attributes, approx)
        exact_scored = insight_class.score(attributes, exact)
        # Moment sketches are lossless summaries, so the scores agree to
        # floating point accuracy.
        assert approx_scored.score == pytest.approx(exact_scored.score, rel=1e-9)

    def test_correlation_class_uses_sketch_source(self, contexts):
        approx, exact = contexts
        attributes = ("attr_000", "attr_001")
        approx_scored = LinearRelationshipInsight().score(attributes, approx)
        exact_scored = LinearRelationshipInsight().score(attributes, exact)
        assert approx_scored.details["source"] == "sketch"
        assert exact_scored.details["source"] == "exact"
        assert approx_scored.score == pytest.approx(exact_scored.score, abs=0.15)

    def test_correlation_batch_uses_sketch_matrix(self, contexts):
        approx, _ = contexts
        insight = LinearRelationshipInsight()
        candidates = list(insight.candidates(approx.table))
        scored = insight.score_all(candidates, approx)
        assert scored
        assert all(candidate.details["source"] == "sketch" for candidate in scored)

    def test_outlier_class_approximate_path(self, contexts):
        approx, exact = contexts
        insight = OutlierInsight()
        attributes = ("attr_009",)
        approx_scored = insight.score(attributes, approx)
        exact_scored = insight.score(attributes, exact)
        assert approx_scored.score >= 0.0
        # The sketch path estimates outliers from quantile fences on a row
        # sample; it must agree with the exact metric on whether outliers
        # exist at all.
        assert (approx_scored.score > 0) == (exact_scored.score > 0)

    def test_frequency_class_sketch_vs_exact(self, contexts):
        approx, exact = contexts
        insight = HeterogeneousFrequenciesInsight(k=3)
        attributes = ("cat_00",)
        approx_scored = insight.score(attributes, approx)
        exact_scored = insight.score(attributes, exact)
        assert approx_scored.details["source"] == "sketch"
        assert exact_scored.details["source"] == "exact"
        assert approx_scored.score == pytest.approx(exact_scored.score, abs=0.05)

    def test_engine_modes_agree_on_strong_structure(self, mixed_table):
        engine = Foresight(mixed_table)
        approx_top = engine.query("linear_relationship", top_k=3, mode="approximate")
        exact_top = engine.query("linear_relationship", top_k=3, mode="exact")
        approx_pairs = {frozenset(i.attributes) for i in approx_top}
        exact_pairs = {frozenset(i.attributes) for i in exact_top}
        assert approx_pairs & exact_pairs


class TestDegenerateTables:
    def test_all_numeric_table(self):
        table = DataTable.from_columns(
            {"a": np.arange(30.0).tolist(), "b": (np.arange(30.0) * 2).tolist()}
        )
        engine = Foresight(table)
        carousels = engine.carousels(top_k=2)
        by_class = {c.insight_class: c for c in carousels}
        assert len(by_class["linear_relationship"]) == 1
        # Classes that need categorical columns simply return empty carousels.
        assert len(by_class["dependence"]) == 0
        assert len(by_class["segmentation"]) == 0

    def test_all_categorical_table(self):
        rng = np.random.default_rng(0)
        table = DataTable.from_columns(
            {
                "color": rng.choice(["r", "g", "b"], 200).tolist(),
                "shape": rng.choice(["square", "circle"], 200).tolist(),
            }
        )
        engine = Foresight(table)
        by_class = {c.insight_class: c for c in engine.carousels(top_k=2)}
        assert len(by_class["linear_relationship"]) == 0
        assert len(by_class["heterogeneous_frequencies"]) == 2
        assert len(by_class["dependence"]) == 1

    def test_single_column_table(self):
        table = DataTable.from_columns({"only": list(range(50))})
        engine = Foresight(table)
        result = engine.query("dispersion", top_k=3)
        assert len(result) == 1
        assert engine.query("linear_relationship", top_k=3).insights == []
        assert engine.overview("linear_relationship") is None

    def test_constant_column_scores_zero_not_error(self):
        table = DataTable.from_columns(
            {"constant": [5.0] * 40, "varying": np.random.default_rng(1).standard_normal(40).tolist()}
        )
        engine = Foresight(table, config=EngineConfig(mode="exact"))
        dispersion = {i.attributes[0]: i.score for i in engine.query("dispersion", top_k=5)}
        assert dispersion["constant"] == 0.0
        correlation = engine.query("linear_relationship", top_k=5)
        assert all(i.score == 0.0 for i in correlation if "constant" in i.attributes)

    def test_tiny_table(self):
        table = DataTable.from_columns({"x": [1.0, 2.0, 3.0], "y": [3.0, 2.0, 1.0]})
        engine = Foresight(table)
        result = engine.query("linear_relationship", top_k=1)
        assert result.top().score == pytest.approx(1.0, abs=0.2)

    def test_empty_table(self):
        table = DataTable([], name="empty")
        engine = Foresight(table, preprocess=False)
        assert engine.carousels(top_k=1) is not None
        assert all(len(c) == 0 for c in engine.carousels(top_k=1))

    def test_table_with_heavy_missingness(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(100)
        values[:90] = np.nan
        table = DataTable.from_columns({"sparse": values.tolist(),
                                        "dense": rng.standard_normal(100).tolist()})
        engine = Foresight(table, config=EngineConfig(mode="exact"))
        missing = engine.query("missing_values", top_k=1)
        assert missing.top().attributes == ("sparse",)
        assert missing.top().score == pytest.approx(0.9)
