"""Integration tests: end-to-end engine runs on all three demo datasets."""

import pytest

from repro import Foresight
from repro.core.engine import EngineConfig
from repro.sketch.store import SketchStoreConfig
from repro.viz.ascii import render


FAST_SKETCH = SketchStoreConfig(sample_capacity=500)


@pytest.fixture(scope="module")
def parkinson_engine(parkinson_table) -> Foresight:
    return Foresight(parkinson_table, config=EngineConfig(sketch=FAST_SKETCH))


@pytest.fixture(scope="module")
def imdb_engine(imdb_table) -> Foresight:
    return Foresight(imdb_table, config=EngineConfig(sketch=FAST_SKETCH))


class TestParkinsonExploration:
    def test_carousels_nonempty_for_core_classes(self, parkinson_engine):
        carousels = parkinson_engine.carousels(
            top_k=3,
            insight_classes=["linear_relationship", "outliers", "heavy_tails", "skew"],
        )
        assert all(len(c) == 3 for c in carousels)

    def test_updrs_correlations_surface(self, parkinson_engine):
        result = parkinson_engine.query(
            "linear_relationship", top_k=10, fixed=("UPDRS_Total",), mode="exact"
        )
        partners = {attr for i in result for attr in i.attributes}
        assert "UPDRS_III" in partners
        assert result.top().score > 0.8

    def test_progression_is_monotonic_with_duration(self, parkinson_engine):
        result = parkinson_engine.query(
            "monotonic_relationship", top_k=200, mode="exact",
            fixed=("YearsSinceDiagnosis",),
        )
        assert any(i.involves("TimedUpAndGo") or i.involves("LatentSeverity") for i in result)

    def test_missing_values_insight_finds_csf_columns(self, parkinson_engine):
        result = parkinson_engine.query("missing_values", top_k=5)
        top_attributes = {i.attributes[0] for i in result}
        assert top_attributes & {"CSF_ABeta", "CSF_Tau", "DaTscanPutamen"}

    def test_dependence_links_cohort_to_severity(self, parkinson_engine):
        result = parkinson_engine.query(
            "dependence", top_k=300, mode="exact", fixed=("Cohort",)
        )
        severity = next(i for i in result if i.involves("UPDRS_Total"))
        assert severity.score > 0.3


class TestImdbExploration:
    def test_profitability_question(self, imdb_engine):
        """'What factors correlate highly with a film's profitability?'"""
        result = imdb_engine.query(
            "linear_relationship", top_k=10, fixed=("ProfitMillions",), mode="exact"
        )
        partners = {attr for i in result for attr in i.attributes if attr != "ProfitMillions"}
        assert "GrossMillions" in partners or "Gross" in partners

    def test_critical_vs_commercial_question(self, imdb_engine):
        """'How are critical responses and commercial success interrelated?'"""
        result = imdb_engine.query(
            "linear_relationship", top_k=60, fixed=("IMDBScore",), mode="exact"
        )
        critic = next(i for i in result if i.involves("CriticScore"))
        assert critic.details["correlation"] > 0.5

    def test_heavy_hitters_in_country_and_genre(self, imdb_engine):
        result = imdb_engine.query("heterogeneous_frequencies", top_k=10, mode="exact")
        attributes = {i.attributes[0] for i in result}
        assert "Country" in attributes or "Language" in attributes

    def test_gross_is_heavy_tailed_and_outlier_prone(self, imdb_engine):
        heavy = imdb_engine.query("heavy_tails", top_k=10, mode="exact")
        assert any("Gross" in i.attributes[0] for i in heavy)
        outliers = imdb_engine.query("outliers", top_k=10, mode="exact")
        assert all(i.score > 0 for i in outliers)

    def test_visualizations_render_for_top_insights(self, imdb_engine):
        for class_name in ("linear_relationship", "outliers", "heterogeneous_frequencies"):
            insight = imdb_engine.query(class_name, top_k=1).top()
            spec = imdb_engine.visualize(insight)
            text = render(spec)
            assert isinstance(text, str) and len(text) > 20


class TestApproximateVsExactAgreement:
    @pytest.mark.parametrize("class_name", ["skew", "heavy_tails", "dispersion"])
    def test_moment_insights_identical(self, parkinson_engine, class_name):
        approx = parkinson_engine.query(class_name, top_k=3, mode="approximate")
        exact = parkinson_engine.query(class_name, top_k=3, mode="exact")
        assert [i.attributes for i in approx] == [i.attributes for i in exact]

    def test_correlation_top5_overlap(self, parkinson_engine):
        approx = parkinson_engine.query("linear_relationship", top_k=5, mode="approximate")
        exact = parkinson_engine.query("linear_relationship", top_k=5, mode="exact")
        approx_pairs = {frozenset(i.attributes) for i in approx}
        exact_pairs = {frozenset(i.attributes) for i in exact}
        assert len(approx_pairs & exact_pairs) >= 3
