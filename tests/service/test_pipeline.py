"""Tests for the staged query pipeline (plan → enumerate → score → rank)."""

from typing import Iterator

import pytest

from repro.core.insight import EvaluationContext, InsightClass, ScoredCandidate, singletons
from repro.core.query import InsightQuery, MetricRange
from repro.core.registry import InsightRegistry, default_registry
from repro.service import PipelineStats, QueryPipeline


class _CountingInsight(InsightClass):
    """Scores columns by name length and counts enumeration/score passes."""

    arity = 1
    visualization = "histogram"
    #: Class-level counters shared by all three registered variants.
    enumeration_calls = 0
    score_calls = 0

    def candidates(self, table) -> Iterator[tuple[str, ...]]:
        _CountingInsight.enumeration_calls += 1
        yield from singletons(table.numeric_names())

    def candidate_domain(self) -> str | None:
        return "counting-singletons"

    def score(self, attributes, context):
        _CountingInsight.score_calls += 1
        return ScoredCandidate(attributes=attributes, score=float(len(attributes[0])))

    def visualize(self, insight, context):  # pragma: no cover - not exercised
        raise NotImplementedError


def _counting_registry() -> InsightRegistry:
    registry = InsightRegistry()
    for name in ("count_a", "count_b", "count_c"):
        insight_class = _CountingInsight()
        insight_class.name = name
        insight_class.metric_name = "name_length"
        registry.register(insight_class)
    return registry


@pytest.fixture()
def exact_context(oecd_table) -> EvaluationContext:
    return EvaluationContext(table=oecd_table, store=None, mode="exact")


class TestSharedEnumeration:
    def test_three_same_arity_classes_enumerate_once(self, oecd_table, exact_context):
        registry = _counting_registry()
        pipeline = QueryPipeline(registry)
        queries = [InsightQuery(name, top_k=3, mode="exact")
                   for name in ("count_a", "count_b", "count_c")]
        _CountingInsight.enumeration_calls = 0
        stats = PipelineStats()
        results = pipeline.execute(queries, exact_context, stats=stats)
        assert _CountingInsight.enumeration_calls == 1
        assert stats.enumerations == 1
        assert stats.shared_queries == 2
        assert stats.n_queries == 3
        assert all(len(r) == 3 for r in results)

    def test_single_queries_enumerate_per_class(self, oecd_table, exact_context):
        registry = _counting_registry()
        pipeline = QueryPipeline(registry)
        _CountingInsight.enumeration_calls = 0
        for name in ("count_a", "count_b", "count_c"):
            pipeline.execute([InsightQuery(name, mode="exact")], exact_context)
        assert _CountingInsight.enumeration_calls == 3

    def test_builtin_univariate_classes_share_a_domain(self, oecd_engine):
        stats = PipelineStats()
        queries = [InsightQuery(name, top_k=2)
                   for name in ("dispersion", "skew", "outliers", "heavy_tails")]
        results = oecd_engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 1
        assert stats.shared_queries == 3
        assert [r.query.insight_class for r in results] == [
            "dispersion", "skew", "outliers", "heavy_tails",
        ]

    def test_capped_queries_do_not_share(self, oecd_engine):
        """max_candidates keeps the lazy early-stop instead of materialising."""
        stats = PipelineStats()
        queries = [InsightQuery(name, top_k=2, max_candidates=3)
                   for name in ("linear_relationship", "monotonic_relationship")]
        results = oecd_engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 2
        assert stats.shared_queries == 0
        assert all(r.truncated for r in results)

    def test_distinct_domains_do_not_share(self, oecd_engine):
        stats = PipelineStats()
        # numeric-pairs, numeric-singletons, custom dependence enumeration.
        queries = [InsightQuery(name, top_k=2)
                   for name in ("linear_relationship", "skew", "dependence")]
        oecd_engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 3
        assert stats.shared_queries == 0

    def test_shared_results_match_individual_ranking(self, oecd_engine):
        """Sharing the enumeration must not change any ranking output."""
        names = ["dispersion", "skew", "outliers"]
        queries = [InsightQuery(name, top_k=4, mode="exact") for name in names]
        shared = oecd_engine.rank_many(queries)
        for query, shared_result in zip(queries, shared):
            solo = oecd_engine.query(query)
            assert shared_result.attribute_sets() == solo.attribute_sets()
            assert [i.score for i in shared_result] == [i.score for i in solo]
            assert shared_result.n_candidates == solo.n_candidates
            assert shared_result.n_admitted == solo.n_admitted


class TestSharedScoring:
    """Batched cross-query scoring: unpruned same-domain queries share scores."""

    def test_unpruned_same_class_queries_score_each_candidate_once(self, oecd_engine):
        n_columns = oecd_engine.registry.get("skew").candidate_count(oecd_engine.table)
        stats = PipelineStats()
        queries = [
            InsightQuery("skew", top_k=2, mode="exact"),
            InsightQuery("skew", top_k=5, mode="exact",
                         metric_range=MetricRange(minimum=0.1)),
        ]
        first, second = oecd_engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 1
        assert stats.shared_queries == 1
        assert stats.shared_score_queries == 1
        # The proof: each of the shared domain's candidates was submitted
        # to a metric evaluation once, not once per query.
        assert stats.score_evaluations == n_columns
        assert stats.n_scored == 2 * n_columns
        # Sharing must not change outputs: each query still ranks as solo.
        for query, shared_result in zip(queries, (first, second)):
            solo = oecd_engine.query(query)
            assert shared_result.attribute_sets() == solo.attribute_sets()
            assert [i.score for i in shared_result] == [i.score for i in solo]

    def test_score_calls_counted_at_metric_level(self, oecd_table, exact_context):
        registry = _counting_registry()
        pipeline = QueryPipeline(registry)
        _CountingInsight.score_calls = 0
        stats = PipelineStats()
        pipeline.execute(
            [InsightQuery("count_a", top_k=3, mode="exact"),
             InsightQuery("count_a", top_k=1, mode="exact")],
            exact_context,
            stats=stats,
        )
        assert _CountingInsight.score_calls == len(oecd_table.numeric_names())
        assert stats.shared_score_queries == 1

    def test_different_classes_do_not_share_scores(self, oecd_engine):
        stats = PipelineStats()
        oecd_engine.rank_many(
            [InsightQuery("skew", top_k=2), InsightQuery("dispersion", top_k=2)],
            stats=stats,
        )
        assert stats.shared_queries == 1       # enumeration is shared...
        assert stats.shared_score_queries == 0  # ...their metrics are not

    def test_pruned_queries_do_not_share_scores(self, oecd_engine):
        stats = PipelineStats()
        oecd_engine.rank_many(
            [InsightQuery("skew", top_k=2, mode="exact"),
             InsightQuery("skew", top_k=2, mode="exact",
                          fixed_attributes=("LifeSatisfaction",))],
            stats=stats,
        )
        assert stats.shared_score_queries == 0

    def test_mode_mismatch_does_not_share_scores(self, oecd_engine):
        stats = PipelineStats()
        oecd_engine.rank_many(
            [InsightQuery("skew", top_k=2, mode="approximate"),
             InsightQuery("skew", top_k=2, mode="exact")],
            stats=stats,
        )
        assert stats.shared_score_queries == 0


class TestStagedExecution:
    def test_stages_compose_to_execute(self, oecd_table, exact_context):
        pipeline = QueryPipeline(default_registry())
        queries = [InsightQuery("skew", top_k=3, mode="exact")]
        plan = pipeline.plan(queries)
        enumerations = pipeline.enumerate(plan, exact_context)
        scored = pipeline.score(plan, enumerations, exact_context)
        results = pipeline.rank(plan, enumerations, scored, exact_context)
        assert results[0].attribute_sets() == pipeline.execute(
            queries, exact_context
        )[0].attribute_sets()

    def test_plan_applies_default_caps(self, oecd_engine):
        pipeline = oecd_engine._pipeline
        plan = pipeline.plan(
            [InsightQuery("segmentation")],
            default_caps=oecd_engine._apply_default_caps,
        )
        assert plan.queries[0].query.max_candidates == (
            oecd_engine.config.max_candidates_triples
        )

    def test_max_candidates_truncation_preserved(self, oecd_engine):
        result = oecd_engine.query("linear_relationship", max_candidates=3, mode="exact")
        assert result.truncated
        assert result.n_scored <= 3

    def test_constraints_filtered_per_query_on_shared_enumeration(self, oecd_engine):
        stats = PipelineStats()
        queries = [
            InsightQuery("dispersion", top_k=5, mode="exact",
                         fixed_attributes=("LifeSatisfaction",)),
            InsightQuery("skew", top_k=5, mode="exact",
                         excluded_attributes=("LifeSatisfaction",)),
        ]
        fixed_result, excluded_result = oecd_engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 1
        assert all(i.involves("LifeSatisfaction") for i in fixed_result)
        assert not any(i.involves("LifeSatisfaction") for i in excluded_result)

    def test_mode_applied_per_query(self, oecd_engine):
        approx, exact = oecd_engine.rank_many([
            InsightQuery("linear_relationship", top_k=1, mode="approximate"),
            InsightQuery("linear_relationship", top_k=1, mode="exact"),
        ])
        assert approx.details["mode"] == "approximate"
        assert exact.details["mode"] == "exact"
        assert exact.top().details["source"] == "exact"
