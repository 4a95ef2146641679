"""Tests for Insight objects, the registry and InsightQuery."""

import pytest

from repro.core.insight import EvaluationContext, Insight, pairs, singletons
from repro.core.pipeline import CandidateDomain
from repro.core.query import InsightQuery, MetricRange, query
from repro.core.registry import InsightRegistry, default_registry
from repro.core.classes import LinearRelationshipInsight, SkewInsight
from repro.errors import InsightError, QueryError, UnknownInsightClassError


class TestInsight:
    def make(self, **overrides) -> Insight:
        payload = dict(
            insight_class="linear_relationship",
            attributes=("a", "b"),
            score=0.9,
            metric_name="abs_pearson",
            summary="a and b are correlated",
            details={"correlation": -0.9},
        )
        payload.update(overrides)
        return Insight(**payload)

    def test_key_ignores_score(self):
        assert self.make(score=0.9).key == self.make(score=0.1).key

    def test_involves_and_shared(self):
        insight = self.make()
        other = self.make(attributes=("b", "c"))
        assert insight.involves("a")
        assert not insight.involves("z")
        assert insight.shares_attributes(other) == 1

    def test_as_dict_round_trip_fields(self):
        payload = self.make().as_dict()
        assert payload["attributes"] == ["a", "b"]
        assert payload["details"]["correlation"] == -0.9

    def test_str_contains_class_and_score(self):
        text = str(self.make())
        assert "linear_relationship" in text
        assert "0.9" in text


class TestHelpers:
    def test_pairs_are_ordered_and_unique(self):
        result = list(pairs(["a", "b", "c"]))
        assert result == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_singletons(self):
        assert list(singletons(["x", "y"])) == [("x",), ("y",)]


class TestRegistry:
    def test_default_registry_has_twelve_classes(self):
        registry = default_registry()
        assert len(registry) == 12
        assert "linear_relationship" in registry
        assert "outliers" in registry
        assert "heavy_tails" in registry

    def test_register_and_get(self):
        registry = InsightRegistry()
        registry.register(SkewInsight())
        assert registry.get("skew").name == "skew"

    def test_duplicate_registration_rejected(self):
        registry = InsightRegistry()
        registry.register(SkewInsight())
        with pytest.raises(InsightError):
            registry.register(SkewInsight())
        registry.register(SkewInsight(), replace=True)

    def test_unknown_class(self):
        registry = InsightRegistry()
        with pytest.raises(UnknownInsightClassError):
            registry.get("nope")

    def test_unregister(self):
        registry = InsightRegistry()
        registry.register(SkewInsight())
        registry.unregister("skew")
        assert "skew" not in registry
        with pytest.raises(UnknownInsightClassError):
            registry.unregister("skew")

    def test_describe_lists_metadata(self):
        descriptions = default_registry().describe()
        names = {d["name"] for d in descriptions}
        assert "segmentation" in names
        linear = next(d for d in descriptions if d["name"] == "linear_relationship")
        assert linear["arity"] == 2
        assert linear["has_overview"] is True


class TestMetricRange:
    def test_contains(self):
        r = MetricRange(0.5, 0.8)
        assert r.contains(0.6)
        assert not r.contains(0.9)
        assert not r.contains(0.4)

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            MetricRange(1.0, 0.0)

    def test_default_is_unbounded(self):
        r = MetricRange()
        assert r.contains(-1e9)
        assert r.contains(1e9)


class TestInsightQuery:
    def test_defaults(self):
        q = InsightQuery("skew")
        assert q.top_k == 5
        assert q.mode == "approximate"

    def test_validation(self):
        with pytest.raises(QueryError):
            InsightQuery("")
        with pytest.raises(QueryError):
            InsightQuery("skew", top_k=0)
        with pytest.raises(QueryError):
            InsightQuery("skew", mode="fuzzy")
        with pytest.raises(QueryError):
            InsightQuery("skew", max_candidates=0)
        with pytest.raises(QueryError):
            InsightQuery("skew", fixed_attributes=("a",), excluded_attributes=("a",))

    def test_admits_attributes(self):
        q = InsightQuery("linear_relationship", fixed_attributes=("x",),
                         excluded_attributes=("z",))
        domain = CandidateDomain((("x", "y"), ("y", "w"), ("x", "z")))
        assert domain.admits(q, {}).tolist() == [True, False, False]

    def test_admits_score(self):
        q = InsightQuery("linear_relationship", metric_range=MetricRange(0.5, 0.8))
        assert q.metric_range.contains(0.6)
        assert not q.metric_range.contains(0.95)

    def test_builders_are_pure(self):
        q = InsightQuery("skew")
        fixed = q.with_fixed("a").with_excluded("b").with_metric_range(0.1, 0.9)
        assert q.fixed_attributes == ()
        assert fixed.fixed_attributes == ("a",)
        assert fixed.excluded_attributes == ("b",)
        assert fixed.metric_range.minimum == 0.1
        assert fixed.exact().mode == "exact"
        assert fixed.approximate().mode == "approximate"
        assert fixed.with_top_k(9).top_k == 9

    def test_query_shorthand(self):
        q = query("linear_relationship", top_k=3, fixed="x", metric_min=0.5, metric_max=0.8)
        assert q.fixed_attributes == ("x",)
        assert q.metric_range.minimum == 0.5
        assert q.metric_range.maximum == 0.8
        assert q.top_k == 3

    def test_query_shorthand_excluded_list(self):
        q = query("skew", excluded=["a", "b"])
        assert q.excluded_attributes == ("a", "b")

    def test_as_dict(self):
        q = query("skew", top_k=2)
        payload = q.as_dict()
        assert payload["insight_class"] == "skew"
        assert payload["top_k"] == 2


class TestEvaluationContext:
    def test_use_sketches_flag(self, oecd_engine):
        context = EvaluationContext(table=oecd_engine.table, store=oecd_engine.store)
        assert context.use_sketches
        assert not context.exact().use_sketches
        no_store = EvaluationContext(table=oecd_engine.table, store=None)
        assert not no_store.use_sketches

    def test_class_candidate_counts(self, oecd_table):
        linear = LinearRelationshipInsight()
        d = len(oecd_table.numeric_names())
        assert linear.candidate_count(oecd_table) == d * (d - 1) // 2
        assert len(list(linear.candidates(oecd_table))) == linear.candidate_count(oecd_table)
