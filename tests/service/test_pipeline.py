"""Tests for the staged query pipeline (plan → enumerate → score → rank).

The pipeline's sharing is per snapshot: a pipeline (one per engine)
enumerates each candidate domain once and scores each candidate once,
whichever request first needs it; every later query filters and gathers.
Tests that count work use a fresh engine or pipeline for that reason.
"""

from typing import Iterator

import numpy as np
import pytest

from repro import Foresight
from repro.core.engine import EngineConfig
from repro.data.table import DataTable
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


class _PrivateCountingInsight(_CountingInsight):
    """A counting class that declares no shared domain."""

    def candidate_domain(self) -> str | None:
        return None


def _counting_registry(cls: type = _CountingInsight) -> InsightRegistry:
    registry = InsightRegistry()
    for name in ("count_a", "count_b", "count_c"):
        insight_class = cls()
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
        """Without a declared domain each class enumerates its own — once
        per snapshot, however many single queries ask."""
        registry = _counting_registry(_PrivateCountingInsight)
        pipeline = QueryPipeline(registry)
        _CountingInsight.enumeration_calls = 0
        stats = PipelineStats()
        for _ in range(2):
            for name in ("count_a", "count_b", "count_c"):
                pipeline.execute([InsightQuery(name, mode="exact")],
                                 exact_context, stats=stats)
        assert _CountingInsight.enumeration_calls == 3
        assert stats.enumerations == 3
        assert stats.shared_queries == 3

    def test_builtin_univariate_classes_share_a_domain(self, oecd_table):
        engine = Foresight(oecd_table)
        stats = PipelineStats()
        queries = [InsightQuery(name, top_k=2)
                   for name in ("dispersion", "skew", "outliers", "heavy_tails")]
        results = engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 1
        assert stats.shared_queries == 3
        assert [r.query.insight_class for r in results] == [
            "dispersion", "skew", "outliers", "heavy_tails",
        ]
        # A later request on the same snapshot enumerates nothing.
        later = PipelineStats()
        engine.rank_many([InsightQuery("normality", top_k=2)], stats=later)
        assert (later.enumerations, later.shared_queries) == (0, 1)

    def test_capped_queries_do_not_share(self, oecd_table, monkeypatch):
        """max_candidates keeps the lazy early-stop instead of materialising:
        a capped walk over a domain larger than its cap leaves the index
        empty, so the next capped query walks again."""
        engine = Foresight(oecd_table)
        n_pairs = engine.registry.get("linear_relationship").candidate_count(
            oecd_table)
        walked = []
        for name in ("linear_relationship", "monotonic_relationship"):
            insight_class = engine.registry.get(name)

            def counting(table, insight_class=insight_class):
                for attributes in type(insight_class).candidates(
                        insight_class, table):
                    walked.append(attributes)
                    yield attributes

            monkeypatch.setattr(insight_class, "candidates", counting)
        stats = PipelineStats()
        queries = [InsightQuery(name, top_k=2, max_candidates=3)
                   for name in ("linear_relationship", "monotonic_relationship")]
        results = engine.rank_many(queries, stats=stats)
        assert len(walked) <= 2 * 4 < n_pairs
        assert stats.enumerations == 2
        assert stats.shared_queries == 0
        assert all(r.truncated for r in results)
        assert [r.n_candidates for r in results] == [3, 3]
        assert engine.index.nbytes == 0
        assert stats.score_evaluations == 6
        # An uncapped query stores the domain; a capped one then filters it
        # and gathers the scores.
        (uncapped,) = engine.rank_many(
            [InsightQuery("linear_relationship", top_k=2)], stats=stats)
        assert not uncapped.truncated
        assert uncapped.n_candidates == n_pairs
        assert stats.enumerations == 3
        assert stats.score_evaluations == 6 + n_pairs
        engine.rank_many([queries[0]], stats=stats)
        assert stats.enumerations == 3
        assert stats.score_evaluations == 6 + n_pairs
        assert stats.index_hits == 3

    def test_a_capped_triple_walk_on_a_cold_index_stops_early(self, monkeypatch):
        """The default triple cap walks only about ``cap`` candidates of a
        larger domain, and the index stores neither domain nor scores."""
        rng = np.random.default_rng(4)
        columns = {f"x{k}": rng.normal(size=60) for k in range(8)}
        columns["group"] = [f"g{k % 3}" for k in range(60)]
        table = DataTable.from_columns(columns, name="triples")
        cap = 10
        engine = Foresight(table, config=EngineConfig(max_candidates_triples=cap))
        segmentation = engine.registry.get("segmentation")
        n_domain = segmentation.candidate_count(table)
        assert n_domain > 2 * cap
        walked = []

        def counting(table):
            for attributes in type(segmentation).candidates(segmentation, table):
                walked.append(attributes)
                yield attributes

        monkeypatch.setattr(segmentation, "candidates", counting)
        (result,) = engine.rank_many([InsightQuery("segmentation", top_k=3)])
        assert walked and len(result) == 3
        assert result.truncated and result.n_candidates == cap
        assert len(walked) <= cap + 1
        assert engine.index.nbytes == 0

    def test_a_selective_capped_walk_holds_a_bounded_chunk(self, monkeypatch):
        """Sparse hits send a capped walk far into a large domain, yet it
        holds only a bounded chunk of it at a time, and the hits it keeps
        are the first ``cap`` in domain order across its chunks."""
        rng = np.random.default_rng(4)
        columns = {f"x{k}": rng.normal(size=60) for k in range(8)}
        columns["group"] = [f"g{k % 3}" for k in range(60)]
        table = DataTable.from_columns(columns, name="triples")
        cap = 5
        engine = Foresight(table, config=EngineConfig(max_candidates_triples=cap))
        segmentation = engine.registry.get("segmentation")
        hits = {1_000 + 30_000 * j: ("x0", f"x{j + 1}", "group") for j in range(6)}
        live = peak = 0

        class Walked(tuple):
            def __del__(self):
                nonlocal live
                live -= 1

        def sparse(table):
            nonlocal live, peak
            for position in range(200_000):
                live += 1
                peak = max(peak, live)
                yield Walked(hits.get(
                    position, (f"u{position}", f"v{position}", "group")))

        monkeypatch.setattr(segmentation, "candidates", sparse)
        (result,) = engine.rank_many(
            [InsightQuery("segmentation", top_k=cap, fixed_attributes=("x0",))])
        fifth = sorted(hits)[cap - 1]
        assert result.truncated and result.n_candidates == fifth + 1
        assert sorted(result.attribute_sets()) == sorted(
            hits[p] for p in sorted(hits)[:cap])
        assert peak < 10_000 < fifth
        assert engine.index.nbytes == 0

    def test_a_capped_query_stores_a_domain_within_its_cap(self, oecd_table):
        engine = Foresight(oecd_table)
        n_pairs = engine.registry.get("linear_relationship").candidate_count(
            oecd_table)
        stats = PipelineStats()
        query = InsightQuery("linear_relationship", top_k=2,
                             max_candidates=n_pairs)
        engine.rank_many([query], stats=stats)
        engine.rank_many([query], stats=stats)
        assert stats.enumerations == 1
        assert stats.score_evaluations == n_pairs
        assert stats.index_hits == n_pairs

    def test_distinct_domains_do_not_share(self, oecd_table):
        engine = Foresight(oecd_table)
        stats = PipelineStats()
        # numeric-pairs, numeric-singletons, custom dependence enumeration.
        queries = [InsightQuery(name, top_k=2)
                   for name in ("linear_relationship", "skew", "dependence")]
        engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 3
        assert stats.shared_queries == 0
        engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 3
        assert stats.shared_queries == 3

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
    """Each candidate is scored once per snapshot, per class and mode."""

    def test_unpruned_same_class_queries_score_each_candidate_once(self, oecd_table):
        engine = Foresight(oecd_table)
        n_columns = engine.registry.get("skew").candidate_count(engine.table)
        stats = PipelineStats()
        queries = [
            InsightQuery("skew", top_k=2, mode="exact"),
            InsightQuery("skew", top_k=5, mode="exact",
                         metric_range=MetricRange(minimum=0.1)),
        ]
        first, second = engine.rank_many(queries, stats=stats)
        assert stats.enumerations == 1
        assert stats.shared_queries == 1
        assert stats.shared_score_queries == 1
        # The proof: each of the domain's candidates was submitted to a
        # metric evaluation once, not once per query...
        assert stats.score_evaluations == n_columns
        assert stats.index_hits == n_columns
        assert stats.n_scored == 2 * n_columns
        # ...and a later request on the snapshot submits none of them.
        later = PipelineStats()
        engine.rank_many([InsightQuery("skew", top_k=3, mode="exact")], stats=later)
        assert later.score_evaluations == 0
        assert later.index_hits == n_columns
        # Sharing must not change outputs: each query still ranks as solo
        # on a fresh engine.
        for query, shared_result in zip(queries, (first, second)):
            solo = Foresight(oecd_table).query(query)
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

    def test_different_classes_do_not_share_scores(self, oecd_table):
        engine = Foresight(oecd_table)
        n_columns = engine.registry.get("skew").candidate_count(engine.table)
        stats = PipelineStats()
        engine.rank_many(
            [InsightQuery("skew", top_k=2), InsightQuery("dispersion", top_k=2)],
            stats=stats,
        )
        assert stats.shared_queries == 1       # enumeration is shared...
        assert stats.shared_score_queries == 0  # ...their metrics are not
        assert stats.score_evaluations == 2 * n_columns

    def test_pruned_queries_do_not_share_scores(self, oecd_table):
        """A pruned query scores its admissible candidates only, so the
        next query scores the rest: each candidate once over the two."""
        engine = Foresight(oecd_table)
        n_columns = engine.registry.get("skew").candidate_count(engine.table)
        stats = PipelineStats()
        engine.rank_many(
            [InsightQuery("skew", top_k=2, mode="exact",
                          fixed_attributes=("LifeSatisfaction",)),
             InsightQuery("skew", top_k=2, mode="exact")],
            stats=stats,
        )
        assert stats.shared_score_queries == 0
        assert stats.score_evaluations == n_columns
        assert stats.index_hits == 1

    def test_mode_mismatch_does_not_share_scores(self, oecd_table):
        engine = Foresight(oecd_table)
        n_columns = engine.registry.get("skew").candidate_count(engine.table)
        stats = PipelineStats()
        engine.rank_many(
            [InsightQuery("skew", top_k=2, mode="approximate"),
             InsightQuery("skew", top_k=2, mode="exact")],
            stats=stats,
        )
        assert stats.shared_score_queries == 0
        assert stats.score_evaluations == 2 * n_columns
        assert stats.index_hits == 0


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

    def test_constraints_filtered_per_query_on_shared_enumeration(self, oecd_table):
        oecd_engine = Foresight(oecd_table)
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
