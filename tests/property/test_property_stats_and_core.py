"""Property-based tests for statistics, the data substrate and the ranking
engine invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core.insight import EvaluationContext, MODE_EXACT
from repro.core.pipeline import QueryPipeline
from repro.core.query import InsightQuery, MetricRange
from repro.core.registry import default_registry
from repro.data import DataTable
from repro.data.csv_io import read_csv_text, to_csv_text
from repro.stats.correlation import pearson, spearman
from repro.stats.frequency import relative_frequency_topk, shannon_entropy
from repro.stats.moments import kurtosis, skewness, variance
from repro.stats.quantiles import five_number_summary

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


class TestStatisticsProperties:
    @given(values=st.lists(finite_floats, min_size=2, max_size=300),
           scale=st.floats(min_value=0.01, max_value=100, allow_nan=False),
           shift=st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shape_metrics_invariant_to_affine_maps(self, values, scale, shift):
        array = np.asarray(values)
        assume(np.std(array) > 1e-6)
        transformed = scale * array + shift
        assert np.isclose(skewness(array), skewness(transformed), atol=1e-6)
        assert np.isclose(kurtosis(array), kurtosis(transformed), atol=1e-6)

    @given(values=st.lists(finite_floats, min_size=2, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_variance_nonnegative_and_five_numbers_ordered(self, values):
        array = np.asarray(values)
        assert variance(array) >= 0.0
        summary = five_number_summary(array)
        assert summary.minimum <= summary.q1 <= summary.median <= summary.q3 <= summary.maximum

    @given(values=st.lists(finite_floats, min_size=3, max_size=200),
           scale=st.floats(min_value=0.01, max_value=50, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_correlation_bounds_and_scale_invariance(self, values, scale):
        array = np.asarray(values)
        assume(np.std(array) > 1e-6)
        rng = np.random.default_rng(0)
        other = array * 0.5 + rng.standard_normal(array.size)
        assume(np.std(other) > 1e-6)
        rho = pearson(array, other)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9
        assert np.isclose(pearson(scale * array, other), rho, atol=1e-7)
        assert -1.0 - 1e-9 <= spearman(array, other) <= 1.0 + 1e-9

    @given(labels=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=300),
           k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_relfreq_monotone_in_k(self, labels, k):
        value_k = relative_frequency_topk(labels, k)
        value_k1 = relative_frequency_topk(labels, k + 1)
        assert 0.0 < value_k <= value_k1 <= 1.0 + 1e-12

    @given(labels=st.lists(st.sampled_from("abcd"), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounds(self, labels):
        entropy = shannon_entropy(labels)
        assert 0.0 <= entropy <= np.log2(4) + 1e-9


class TestDataProperties:
    @given(
        n_rows=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_csv_round_trip_preserves_shape_and_labels(self, n_rows, seed):
        rng = np.random.default_rng(seed)
        table = DataTable.from_columns(
            {
                "x": rng.standard_normal(n_rows).round(6).tolist(),
                "label": rng.choice(["red", "green", "blue"], n_rows).tolist(),
                "flag": rng.choice([True, False], n_rows).tolist(),
            }
        )
        again = read_csv_text(to_csv_text(table))
        assert again.shape == table.shape
        assert again.column("label").labels() == table.column("label").labels()
        np.testing.assert_allclose(
            again.numeric_column("x").values, table.numeric_column("x").values, atol=1e-9
        )

    @given(
        n_rows=st.integers(min_value=2, max_value=50),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_every_row(self, n_rows, fraction, seed):
        rng = np.random.default_rng(seed)
        table = DataTable.from_columns({"x": rng.standard_normal(n_rows).tolist()})
        left, right = table.split(fraction, seed=seed)
        assert left.n_rows + right.n_rows == n_rows
        combined = sorted(left.numeric_column("x").values.tolist()
                          + right.numeric_column("x").values.tolist())
        assert combined == sorted(table.numeric_column("x").values.tolist())


def _random_table(seed: int, n_rows: int) -> DataTable:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n_rows)
    return DataTable.from_columns(
        {
            "a": base.tolist(),
            "b": (0.7 * base + 0.7 * rng.standard_normal(n_rows)).tolist(),
            "c": rng.lognormal(size=n_rows).tolist(),
            "d": rng.standard_normal(n_rows).tolist(),
        }
    )


def _rank(query, context):
    return QueryPipeline(default_registry()).execute([query], context)[0]


class TestRankingProperties:
    @given(seed=st.integers(min_value=0, max_value=500),
           top_k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_scores_sorted_and_bounded_by_top_k(self, seed, top_k):
        table = _random_table(seed, 60)
        context = EvaluationContext(table=table, store=None, mode=MODE_EXACT)
        result = _rank(
            InsightQuery("linear_relationship", top_k=top_k, mode=MODE_EXACT), context
        )
        scores = [i.score for i in result]
        assert len(result) <= top_k
        assert scores == sorted(scores, reverse=True)

    @given(seed=st.integers(min_value=0, max_value=500),
           low=st.floats(min_value=0.0, max_value=0.5),
           width=st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=30, deadline=None)
    def test_metric_range_respected(self, seed, low, width):
        table = _random_table(seed, 60)
        context = EvaluationContext(table=table, store=None, mode=MODE_EXACT)
        result = _rank(
            InsightQuery(
                "linear_relationship", top_k=10, mode=MODE_EXACT,
                metric_range=MetricRange(low, low + width),
            ),
            context,
        )
        assert all(low <= i.score <= low + width for i in result)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_fixed_attribute_always_present(self, seed):
        table = _random_table(seed, 60)
        context = EvaluationContext(table=table, store=None, mode=MODE_EXACT)
        result = _rank(
            InsightQuery(
                "linear_relationship", top_k=10, mode=MODE_EXACT,
                fixed_attributes=("a",),
            ),
            context,
        )
        assert result.insights
        assert all(i.involves("a") for i in result)
