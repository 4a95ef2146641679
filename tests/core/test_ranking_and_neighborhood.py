"""Tests for the ranking engine and neighborhood recommendation."""

import pytest

from repro.core.insight import EvaluationContext, Insight, MODE_EXACT
from repro.core.neighborhood import (
    NeighborhoodConfig,
    NeighborhoodRecommender,
    attribute_jaccard,
    insight_similarity,
    score_proximity,
)
from repro.core.pipeline import QueryPipeline
from repro.core.query import InsightQuery, MetricRange
from repro.core.registry import default_registry


@pytest.fixture(scope="module")
def engine_parts(oecd_table):
    registry = default_registry()
    engine = QueryPipeline(registry)
    context = EvaluationContext(table=oecd_table, store=None, mode=MODE_EXACT)
    return engine, context


def _rank(pipeline, query, context):
    return pipeline.execute([query], context)[0]


class TestRankingEngine:
    def test_returns_top_k_sorted(self, engine_parts):
        engine, context = engine_parts
        result = _rank(engine, InsightQuery("linear_relationship", top_k=4, mode=MODE_EXACT), context)
        assert len(result) == 4
        scores = [i.score for i in result]
        assert scores == sorted(scores, reverse=True)
        assert result.top().score == scores[0]

    def test_top_pair_is_the_planted_one(self, engine_parts):
        engine, context = engine_parts
        result = _rank(engine, InsightQuery("linear_relationship", top_k=1, mode=MODE_EXACT), context)
        assert set(result.top().attributes) == {
            "EmployeesWorkingVeryLongHours", "TimeDevotedToLeisure",
        }

    def test_fixed_attribute_constraint(self, engine_parts):
        engine, context = engine_parts
        query = InsightQuery(
            "linear_relationship", top_k=3, mode=MODE_EXACT,
            fixed_attributes=("SelfReportedHealth",),
        )
        result = _rank(engine, query, context)
        assert all(i.involves("SelfReportedHealth") for i in result)
        assert set(result.top().attributes) == {"SelfReportedHealth", "LifeSatisfaction"}

    def test_excluded_attribute_constraint(self, engine_parts):
        engine, context = engine_parts
        query = InsightQuery(
            "linear_relationship", top_k=5, mode=MODE_EXACT,
            excluded_attributes=("TimeDevotedToLeisure",),
        )
        result = _rank(engine, query, context)
        assert all(not i.involves("TimeDevotedToLeisure") for i in result)

    def test_metric_range_filters_trivial_correlations(self, engine_parts):
        engine, context = engine_parts
        query = InsightQuery(
            "linear_relationship", top_k=10, mode=MODE_EXACT,
            metric_range=MetricRange(0.5, 0.8),
        )
        result = _rank(engine, query, context)
        assert result.insights, "range query should still find mid-strength pairs"
        assert all(0.5 <= i.score <= 0.8 for i in result)

    def test_max_candidates_truncation(self, engine_parts):
        engine, context = engine_parts
        query = InsightQuery("linear_relationship", top_k=3, mode=MODE_EXACT, max_candidates=10)
        result = _rank(engine, query, context)
        assert result.truncated
        assert result.n_scored <= 10

    def test_bookkeeping_counts(self, engine_parts):
        engine, context = engine_parts
        result = _rank(engine, InsightQuery("skew", top_k=3, mode=MODE_EXACT), context)
        assert result.n_candidates == len(context.table.numeric_names())
        assert result.n_scored <= result.n_candidates
        assert result.n_admitted >= len(result.insights)

    def test_rank_all(self, engine_parts):
        engine, context = engine_parts
        queries = [InsightQuery("skew", top_k=2, mode=MODE_EXACT),
                   InsightQuery("outliers", top_k=2, mode=MODE_EXACT)]
        results = {
            query.insight_class: result
            for query, result in zip(queries, engine.execute(queries, context))
        }
        assert set(results) == {"skew", "outliers"}
        assert all(len(r) <= 2 for r in results.values())

    def test_attribute_sets_helper(self, engine_parts):
        engine, context = engine_parts
        result = _rank(engine, InsightQuery("dispersion", top_k=3, mode=MODE_EXACT), context)
        assert len(result.attribute_sets()) == len(result)


def _insight(cls: str, attrs: tuple[str, ...], score: float) -> Insight:
    return Insight(insight_class=cls, attributes=attrs, score=score, metric_name="m")


class TestSimilarity:
    def test_attribute_jaccard(self):
        a = _insight("linear_relationship", ("x", "y"), 0.9)
        b = _insight("linear_relationship", ("y", "z"), 0.8)
        c = _insight("linear_relationship", ("u", "v"), 0.8)
        assert attribute_jaccard(a, b) == pytest.approx(1 / 3)
        assert attribute_jaccard(a, c) == 0.0
        assert attribute_jaccard(a, a) == 1.0

    def test_score_proximity_within_class(self):
        a = _insight("skew", ("x",), 0.9)
        b = _insight("skew", ("y",), 0.85)
        far = _insight("skew", ("z",), 0.1)
        assert score_proximity(a, b) > score_proximity(a, far)

    def test_score_proximity_across_classes_attenuated(self):
        a = _insight("skew", ("x",), 0.9)
        b = _insight("outliers", ("y",), 0.9)
        same = _insight("skew", ("y",), 0.9)
        assert score_proximity(a, b) == pytest.approx(0.5 * score_proximity(a, same))

    def test_similarity_combines_both(self):
        a = _insight("linear_relationship", ("x", "y"), 0.9)
        near = _insight("linear_relationship", ("x", "z"), 0.88)
        far = _insight("linear_relationship", ("u", "v"), 0.2)
        assert insight_similarity(a, near) > insight_similarity(a, far)

    def test_weight_validation(self):
        a = _insight("skew", ("x",), 0.5)
        with pytest.raises(ValueError):
            insight_similarity(a, a, attribute_weight=1.5)


class TestNeighborhoodRecommender:
    def test_nearby_prefers_focus_attributes(self, engine_parts, oecd_table):
        engine, context = engine_parts
        recommender = NeighborhoodRecommender(engine)
        focus = _insight("normality", ("SelfReportedHealth",), 0.7)
        result = recommender.nearby([focus], "linear_relationship", context, top_k=5)
        assert len(result) == 5
        top_two = result.insights[:2]
        assert any(i.involves("SelfReportedHealth") for i in top_two)

    def test_focused_insight_not_recommended_back(self, engine_parts):
        engine, context = engine_parts
        recommender = NeighborhoodRecommender(engine)
        focus = _insight(
            "linear_relationship",
            ("TimeDevotedToLeisure", "EmployeesWorkingVeryLongHours"),
            0.92,
        )
        result = recommender.nearby([focus], "linear_relationship", context, top_k=5)
        assert all(i.key != focus.key for i in result)

    def test_empty_focus_falls_back_to_strength(self, engine_parts):
        engine, context = engine_parts
        recommender = NeighborhoodRecommender(engine)
        result = recommender.nearby([], "skew", context, top_k=3)
        scores = [i.score for i in result]
        assert scores == sorted(scores, reverse=True)

    def test_similarity_to_focus_zero_without_focus(self, engine_parts):
        engine, _ = engine_parts
        recommender = NeighborhoodRecommender(engine)
        assert recommender.similarity_to_focus(_insight("skew", ("x",), 1.0), []) == 0.0

    def test_config_strength_weight_changes_order(self, engine_parts):
        engine, context = engine_parts
        strength_only = NeighborhoodRecommender(
            engine, NeighborhoodConfig(strength_weight=1.0)
        )
        similarity_heavy = NeighborhoodRecommender(
            engine, NeighborhoodConfig(strength_weight=0.0)
        )
        focus = _insight("normality", ("SelfReportedHealth",), 0.7)
        by_strength = strength_only.nearby([focus], "linear_relationship", context, top_k=5)
        by_similarity = similarity_heavy.nearby([focus], "linear_relationship", context, top_k=5)
        assert all(i.involves("SelfReportedHealth") for i in by_similarity.insights[:3])
        # Pure strength ordering must start with the globally strongest pair.
        assert set(by_strength.insights[0].attributes) == {
            "EmployeesWorkingVeryLongHours", "TimeDevotedToLeisure",
        }


class TestSharedEnumeration:
    def test_nearby_runs_one_pipeline_execution(self, engine_parts):
        engine, context = engine_parts
        recommender = NeighborhoodRecommender(engine)
        focus = _rank(
            engine,
            InsightQuery("linear_relationship", top_k=1, mode=MODE_EXACT),
            context,
        ).top()
        result = recommender.nearby([focus], "linear_relationship", context,
                                    top_k=5)
        stats = result.details["pipeline"]
        # One pool = one execution of 3 queries (2 focus attributes + 1
        # unconstrained top-up).  The focus query already enumerated the
        # numeric pairs on this pipeline, so every pool query filters that
        # domain and gathers its scores: nothing is enumerated or scored
        # twice on one snapshot.
        assert stats["n_queries"] == 3
        assert stats["enumerations"] == 0
        assert stats["shared_queries"] == stats["n_queries"]
        assert stats["score_evaluations"] == 0
        assert stats["index_hits"] == stats["n_scored"] > 0

    def test_focusless_nearby_still_works(self, engine_parts):
        engine, context = engine_parts
        recommender = NeighborhoodRecommender(engine)
        result = recommender.nearby([], "skew", context, top_k=3)
        assert len(result) > 0
        assert result.details["pipeline"]["n_queries"] == 1
