"""Tests for the ``query(...)`` shorthand normalisation and tag semantics.

Covers the kwarg conveniences the engine's ``query(name, **kwargs)`` shim
forwards (``fixed``/``excluded``/``tags`` given as a bare string or any
sequence, ``metric_min``/``metric_max``), and the tag semantics the
pipeline's candidate masks implement
(:meth:`~repro.core.pipeline.CandidateDomain.admits`), the fixed-attribute
exemption among them.
"""

import pytest

from repro.core.pipeline import CandidateDomain
from repro.core.query import InsightQuery, MetricRange, query
from repro.errors import QueryError


class TestShorthandNormalisation:
    def test_fixed_string_becomes_singleton_tuple(self):
        assert query("skew", fixed="A").fixed_attributes == ("A",)

    @pytest.mark.parametrize("value", [("A", "B"), ["A", "B"]])
    def test_fixed_sequence_becomes_tuple(self, value):
        assert query("skew", fixed=value).fixed_attributes == ("A", "B")

    def test_excluded_string_and_sequence(self):
        assert query("skew", excluded="A").excluded_attributes == ("A",)
        assert query("skew", excluded=["A", "B"]).excluded_attributes == ("A", "B")

    def test_tags_string_and_sequence(self):
        assert query("skew", tags="currency").required_tags == ("currency",)
        assert query("skew", tags=("currency", "date")).required_tags == (
            "currency", "date",
        )

    def test_metric_bounds_build_a_range(self):
        assert query("skew", metric_min=0.5).metric_range == MetricRange(0.5, float("inf"))
        assert query("skew", metric_max=0.8).metric_range == MetricRange(float("-inf"), 0.8)
        assert query("skew", metric_min=0.5, metric_max=0.8).metric_range == (
            MetricRange(0.5, 0.8)
        )

    def test_no_bounds_means_unbounded_range(self):
        assert query("skew").metric_range == MetricRange()

    def test_other_kwargs_pass_through(self):
        built = query("skew", top_k=7, mode="exact", max_candidates=9)
        assert (built.top_k, built.mode, built.max_candidates) == (7, "exact", 9)

    def test_empty_metric_range_rejected(self):
        with pytest.raises(QueryError):
            query("skew", metric_min=0.9, metric_max=0.1)

    def test_fixed_excluded_overlap_rejected(self):
        with pytest.raises(QueryError):
            query("skew", fixed="A", excluded=("A", "B"))


def _admits_tags(q: InsightQuery, tags, attributes) -> bool:
    return bool(CandidateDomain((attributes,)).admits(q, tags)[0])


class TestAdmitsTags:
    TAGS = {"revenue": ("currency",), "cost": ("currency",),
            "year": ("date",), "headcount": ()}

    def test_no_required_tags_admits_everything(self):
        q = InsightQuery("linear_relationship")
        assert _admits_tags(q, self.TAGS, ("headcount", "year"))

    def test_all_attributes_must_carry_a_required_tag(self):
        q = query("linear_relationship", tags="currency")
        assert _admits_tags(q, self.TAGS, ("revenue", "cost"))
        assert not _admits_tags(q, self.TAGS, ("revenue", "year"))
        assert not _admits_tags(q, self.TAGS, ("revenue", "headcount"))

    def test_any_of_several_required_tags_suffices(self):
        q = query("linear_relationship", tags=("currency", "date"))
        assert _admits_tags(q, self.TAGS, ("revenue", "year"))

    def test_fixed_attributes_are_exempt(self):
        # "Which currency attributes correlate with headcount?" — the fixed
        # (untagged) anchor must not disqualify the tuple.
        q = query("linear_relationship", fixed="headcount", tags="currency")
        assert _admits_tags(q, self.TAGS, ("headcount", "revenue"))
        # The non-fixed partner still needs the tag.
        assert not _admits_tags(q, self.TAGS, ("headcount", "year"))

    def test_unknown_attributes_count_as_untagged(self):
        q = query("linear_relationship", tags="currency")
        assert not _admits_tags(q, self.TAGS, ("revenue", "mystery"))
