"""Tests for metadata (tag) constraints on insight queries.

Paper section 2.1, future work: "queries will also allow inclusion of
constraints involving metadata about attributes, e.g., to search for
attributes that represent currency or dates."  This reproduction implements
that extension: schema fields carry free-form tags, and an
:class:`~repro.core.query.InsightQuery` can require every (non-fixed)
attribute of a returned tuple to carry one of a set of tags.
"""

import numpy as np
import pytest

from repro import Foresight
from repro.core.engine import EngineConfig
from repro.core.insight import EvaluationContext, MODE_EXACT
from repro.core.pipeline import CandidateDomain, QueryPipeline
from repro.core.query import InsightQuery, query
from repro.core.registry import default_registry
from repro.data import DataTable, NumericColumn
from repro.data.schema import ColumnKind, Field


@pytest.fixture(scope="module")
def tagged_table() -> DataTable:
    """A table whose schema tags mark currency and date-like attributes."""
    rng = np.random.default_rng(0)
    n = 400
    base = rng.standard_normal(n)
    columns = [
        NumericColumn(Field("revenue", ColumnKind.NUMERIC, tags=("currency",)),
                      50_000 + 10_000 * base + 1_000 * rng.standard_normal(n)),
        NumericColumn(Field("cost", ColumnKind.NUMERIC, tags=("currency",)),
                      30_000 + 6_000 * base + 2_000 * rng.standard_normal(n)),
        NumericColumn(Field("salary", ColumnKind.NUMERIC, tags=("currency",)),
                      40_000 + 3_000 * rng.standard_normal(n)),
        NumericColumn(Field("year", ColumnKind.NUMERIC, tags=("date",)),
                      rng.integers(2000, 2020, n).astype(float)),
        NumericColumn(Field("headcount", ColumnKind.NUMERIC),
                      100 + 20 * base + 5 * rng.standard_normal(n)),
        NumericColumn(Field("satisfaction", ColumnKind.NUMERIC),
                      rng.uniform(1, 10, n)),
    ]
    return DataTable(columns, name="company")


@pytest.fixture(scope="module")
def parts(tagged_table):
    engine = QueryPipeline(default_registry())
    context = EvaluationContext(table=tagged_table, store=None, mode=MODE_EXACT)
    return engine, context


def _rank(pipeline, query, context):
    return pipeline.execute([query], context)[0]


class TestQueryTagApi:
    def test_with_required_tags_builder(self):
        q = InsightQuery("linear_relationship").with_required_tags("currency", "date")
        assert q.required_tags == ("currency", "date")
        assert q.with_required_tags("currency").required_tags == ("currency", "date")

    def test_query_shorthand_accepts_tags(self):
        q = query("skew", tags="currency")
        assert q.required_tags == ("currency",)
        q = query("skew", tags=["currency", "date"])
        assert q.required_tags == ("currency", "date")

    def test_as_dict_includes_tags(self):
        q = query("skew", tags="currency")
        assert q.as_dict()["required_tags"] == ["currency"]

    def test_admits_tags_logic(self):
        q = InsightQuery("linear_relationship", required_tags=("currency",),
                         fixed_attributes=("year",))
        tags = {"revenue": ("currency",), "year": ("date",), "headcount": ()}
        pairs = CandidateDomain((("revenue", "year"), ("headcount", "year")))
        # The fixed attribute is exempt; its untagged partner is not.
        assert pairs.admits(q, tags).tolist() == [True, False]
        # No constraint.
        assert CandidateDomain((("headcount",),)).admits(
            InsightQuery("skew"), tags).tolist() == [True]


class TestTagConstrainedRanking:
    def test_univariate_query_restricted_to_currency(self, parts):
        engine, context = parts
        result = _rank(
            engine,
            InsightQuery("dispersion", top_k=10, mode=MODE_EXACT,
                         required_tags=("currency",)),
            context,
        )
        attributes = {i.attributes[0] for i in result}
        assert attributes <= {"revenue", "cost", "salary"}
        assert len(result) == 3

    def test_pairwise_query_requires_both_attributes_tagged(self, parts):
        engine, context = parts
        result = _rank(
            engine,
            InsightQuery("linear_relationship", top_k=10, mode=MODE_EXACT,
                         required_tags=("currency",)),
            context,
        )
        assert result.insights
        for insight in result:
            assert set(insight.attributes) <= {"revenue", "cost", "salary"}
        # The planted revenue/cost relationship is the strongest currency pair.
        assert set(result.top().attributes) == {"revenue", "cost"}

    def test_fixed_attribute_is_exempt_from_tag_requirement(self, parts):
        engine, context = parts
        result = _rank(
            engine,
            InsightQuery("linear_relationship", top_k=10, mode=MODE_EXACT,
                         fixed_attributes=("headcount",), required_tags=("currency",)),
            context,
        )
        assert result.insights
        for insight in result:
            partner = next(a for a in insight.attributes if a != "headcount")
            assert partner in {"revenue", "cost", "salary"}

    def test_unmatched_tag_returns_empty(self, parts):
        engine, context = parts
        result = _rank(
            engine,
            InsightQuery("skew", top_k=5, mode=MODE_EXACT, required_tags=("geo",)),
            context,
        )
        assert result.insights == []
        assert result.n_candidates > 0

    def test_engine_facade_supports_tags(self, tagged_table):
        engine = Foresight(tagged_table, config=EngineConfig(mode="exact"))
        result = engine.query("linear_relationship", top_k=5, tags=("currency",))
        assert result.insights
        assert all(set(i.attributes) <= {"revenue", "cost", "salary"} for i in result)
