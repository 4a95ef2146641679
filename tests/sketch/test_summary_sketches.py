"""Tests for the moment, quantile, frequent-items, Count-Min and entropy
sketches, and the reservoir row sampler."""

import numpy as np
import pytest

from repro.errors import EmptyColumnError, SketchError, SketchMergeError
from repro.sketch.countmin import CountMinSketch
from repro.sketch.entropy import EntropySketch
from repro.sketch.frequent import MisraGriesSketch, SpaceSavingSketch, exact_counts
from repro.sketch.moments import MomentSketch
from repro.sketch.quantile import QuantileSketch
from repro.sketch.reservoir import advance_row_indices, reservoir_row_indices
from repro.stats.frequency import shannon_entropy
from repro.stats.moments import kurtosis, skewness


@pytest.fixture(scope="module")
def zipf_labels() -> list[str]:
    rng = np.random.default_rng(0)
    ranks = np.arange(1, 301, dtype=float)
    p = ranks**-1.4
    p /= p.sum()
    return [f"item_{i}" for i in rng.choice(300, size=30_000, p=p)]


class TestMomentSketch:
    def test_matches_exact_metrics(self):
        values = np.random.default_rng(1).lognormal(size=20_000)
        sketch = MomentSketch()
        sketch.update_array(values)
        assert sketch.count == values.size
        assert sketch.mean() == pytest.approx(float(values.mean()))
        assert sketch.variance() == pytest.approx(float(values.var()))
        assert sketch.skewness() == pytest.approx(skewness(values), rel=1e-9)
        assert sketch.kurtosis() == pytest.approx(kurtosis(values), rel=1e-9)

    def test_merge(self):
        rng = np.random.default_rng(2)
        a_values, b_values = rng.standard_normal(1000), rng.standard_normal(1500) + 3
        a, b = MomentSketch(), MomentSketch()
        a.update_array(a_values)
        b.update_array(b_values)
        a.merge(b)
        combined = np.concatenate([a_values, b_values])
        assert a.mean() == pytest.approx(float(combined.mean()))
        assert a.kurtosis() == pytest.approx(kurtosis(combined), rel=1e-9)

    def test_merge_type_check(self):
        with pytest.raises(SketchMergeError):
            MomentSketch().merge(QuantileSketch())

    def test_memory_is_constant(self):
        sketch = MomentSketch()
        sketch.update_array(np.arange(100_000, dtype=float))
        assert sketch.memory_bytes() == 56


class TestQuantileSketch:
    def test_rank_error_within_epsilon(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(50_000)
        epsilon = 0.01
        sketch = QuantileSketch(epsilon=epsilon)
        sketch.update_array(values)
        ordered = np.sort(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            estimate = sketch.quantile(q)
            true_rank = np.searchsorted(ordered, estimate, side="right")
            assert abs(true_rank - q * values.size) <= 2 * epsilon * values.size + 1

    def test_streaming_updates_match_batch(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 100, 3000)
        streaming = QuantileSketch(epsilon=0.02)
        for value in values:
            streaming.update(float(value))
        batch = QuantileSketch(epsilon=0.02)
        batch.update_array(values)
        for q in (0.25, 0.5, 0.75):
            assert streaming.quantile(q) == pytest.approx(batch.quantile(q), abs=5.0)

    def test_space_is_sublinear(self):
        sketch = QuantileSketch(epsilon=0.01)
        sketch.update_array(np.random.default_rng(5).standard_normal(100_000))
        assert sketch.n_tuples < 2_000

    def test_merge(self):
        rng = np.random.default_rng(6)
        left_values = rng.uniform(0, 1, 10_000)
        right_values = rng.uniform(1, 2, 10_000)
        left, right = QuantileSketch(0.01), QuantileSketch(0.01)
        left.update_array(left_values)
        right.update_array(right_values)
        left.merge(right)
        assert left.count == 20_000
        assert left.median() == pytest.approx(1.0, abs=0.05)

    def test_merge_epsilon_check(self):
        with pytest.raises(SketchMergeError):
            QuantileSketch(0.01).merge(QuantileSketch(0.05))

    def test_empty_query_raises(self):
        with pytest.raises(EmptyColumnError):
            QuantileSketch().quantile(0.5)

    def test_cdf_and_rank(self):
        sketch = QuantileSketch(epsilon=0.01)
        sketch.update_array(np.arange(1000, dtype=float))
        assert sketch.cdf(500.0) == pytest.approx(0.5, abs=0.05)
        assert sketch.rank(-1.0) == 0

    def test_five_number_summary_ordered(self):
        sketch = QuantileSketch(epsilon=0.02)
        sketch.update_array(np.random.default_rng(7).standard_normal(5000))
        summary = sketch.five_number_summary()
        assert summary["min"] <= summary["q1"] <= summary["median"] <= summary["q3"] <= summary["max"]

    def test_nan_ignored(self):
        sketch = QuantileSketch()
        sketch.update(float("nan"))
        assert sketch.count == 0

    def test_epsilon_validation(self):
        with pytest.raises(SketchError):
            QuantileSketch(epsilon=0.7)


class TestFrequentItems:
    def test_misra_gries_error_bound(self, zipf_labels):
        capacity = 64
        sketch = MisraGriesSketch(capacity=capacity)
        sketch.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        bound = len(zipf_labels) / capacity
        for label, true_count in truth.items():
            estimate = sketch.estimate(label)
            assert estimate <= true_count
            assert estimate >= true_count - bound - 1

    def test_misra_gries_finds_heavy_hitters(self, zipf_labels):
        sketch = MisraGriesSketch(capacity=32)
        sketch.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        true_top3 = {k for k, _ in sorted(truth.items(), key=lambda kv: -kv[1])[:3]}
        sketch_top3 = {k for k, _ in sketch.top_k(3)}
        assert true_top3 == sketch_top3

    def test_misra_gries_relfreq(self, zipf_labels):
        sketch = MisraGriesSketch(capacity=128)
        sketch.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        exact_top5 = sum(sorted(truth.values(), reverse=True)[:5]) / len(zipf_labels)
        assert sketch.relative_frequency_topk(5) == pytest.approx(exact_top5, abs=0.05)

    def test_misra_gries_merge(self, zipf_labels):
        half = len(zipf_labels) // 2
        a, b = MisraGriesSketch(64), MisraGriesSketch(64)
        a.update_many(zipf_labels[:half])
        b.update_many(zipf_labels[half:])
        a.merge(b)
        truth = exact_counts(zipf_labels)
        top = max(truth, key=truth.get)
        assert a.estimate(top) <= truth[top]
        assert a.estimate(top) >= truth[top] - 2 * len(zipf_labels) / 64 - 2
        assert a.count == len(zipf_labels)

    def test_misra_gries_merge_capacity_check(self):
        with pytest.raises(SketchMergeError):
            MisraGriesSketch(8).merge(MisraGriesSketch(16))

    def test_space_saving_overestimates(self, zipf_labels):
        sketch = SpaceSavingSketch(capacity=64)
        sketch.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        for label, _ in sketch.top_k(10):
            assert sketch.estimate(label) >= truth[label]
            assert sketch.guaranteed_count(label) <= truth[label]

    def test_space_saving_heavy_hitters_present(self, zipf_labels):
        sketch = SpaceSavingSketch(capacity=64)
        sketch.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        true_top = max(truth, key=truth.get)
        assert true_top in dict(sketch.top_k(5))

    def test_space_saving_merge(self, zipf_labels):
        half = len(zipf_labels) // 2
        a, b = SpaceSavingSketch(64), SpaceSavingSketch(64)
        a.update_many(zipf_labels[:half])
        b.update_many(zipf_labels[half:])
        a.merge(b)
        assert a.count == len(zipf_labels)
        truth = exact_counts(zipf_labels)
        true_top = max(truth, key=truth.get)
        assert a.estimate(true_top) >= truth[true_top] * 0.8

    def test_none_ignored(self):
        sketch = MisraGriesSketch(4)
        sketch.update(None)
        assert sketch.count == 0

    def test_capacity_validation(self):
        with pytest.raises(SketchError):
            MisraGriesSketch(0)
        with pytest.raises(SketchError):
            SpaceSavingSketch(0)


class TestCountMin:
    def test_overestimates_within_bound(self, zipf_labels):
        sketch = CountMinSketch(width=512, depth=4, seed=1)
        sketch.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        violations = 0
        for label, true_count in truth.items():
            estimate = sketch.estimate(label)
            assert estimate >= true_count
            if estimate > true_count + sketch.error_bound():
                violations += 1
        assert violations <= len(truth) * 0.05

    def test_from_error_bounds_sizes(self):
        sketch = CountMinSketch.from_error_bounds(epsilon=0.001, delta=0.01)
        assert sketch.width >= 2718
        assert sketch.depth >= 5

    def test_merge(self, zipf_labels):
        half = len(zipf_labels) // 2
        a = CountMinSketch(width=256, depth=4, seed=2)
        b = CountMinSketch(width=256, depth=4, seed=2)
        a.update_many(zipf_labels[:half])
        b.update_many(zipf_labels[half:])
        a.merge(b)
        whole = CountMinSketch(width=256, depth=4, seed=2)
        whole.update_many(zipf_labels)
        truth = exact_counts(zipf_labels)
        top = max(truth, key=truth.get)
        assert a.estimate(top) == whole.estimate(top)

    def test_merge_parameter_check(self):
        with pytest.raises(SketchMergeError):
            CountMinSketch(width=128, seed=1).merge(CountMinSketch(width=128, seed=2))

    def test_relative_frequency(self):
        sketch = CountMinSketch(width=64, depth=3)
        sketch.update_many(["a"] * 80 + ["b"] * 20)
        assert sketch.relative_frequency("a") == pytest.approx(0.8, abs=0.1)


class TestEntropySketch:
    def test_estimates_entropy_of_skewed_stream(self, zipf_labels):
        sketch = EntropySketch(capacity=256, seed=1)
        sketch.update_many(zipf_labels)
        exact = shannon_entropy(zipf_labels)
        assert sketch.estimate_entropy() == pytest.approx(exact, rel=0.2)

    def test_uniform_stream_has_high_normalized_entropy(self):
        rng = np.random.default_rng(2)
        labels = [f"v{i}" for i in rng.integers(0, 50, 20_000)]
        sketch = EntropySketch(capacity=128, seed=3)
        sketch.update_many(labels)
        assert sketch.estimate_normalized_entropy() > 0.9

    def test_single_value_stream(self):
        sketch = EntropySketch(capacity=16)
        sketch.update_many(["x"] * 1000)
        assert sketch.estimate_entropy() == pytest.approx(0.0, abs=1e-6)

    def test_merge(self, zipf_labels):
        half = len(zipf_labels) // 2
        a, b = EntropySketch(capacity=256, seed=4), EntropySketch(capacity=256, seed=4)
        a.update_many(zipf_labels[:half])
        b.update_many(zipf_labels[half:])
        a.merge(b)
        assert a.count == len(zipf_labels)
        assert a.estimate_entropy() == pytest.approx(shannon_entropy(zipf_labels), rel=0.25)


class TestReservoir:
    def test_sample_size_bounded(self):
        sampled = reservoir_row_indices(10_000, capacity=100, seed=0)
        assert sampled.size == len(set(sampled.tolist())) == 100
        advanced = advance_row_indices(sampled, 10_000, 5_000, 100,
                                       np.random.default_rng(0))
        assert advanced.size == len(set(advanced.tolist())) == 100
        assert 0 <= advanced.min() and advanced.max() < 15_000

    def test_small_stream_kept_entirely(self):
        empty = np.arange(0)
        kept = advance_row_indices(empty, 0, 30, 100, np.random.default_rng(1))
        assert kept.tolist() == list(range(30))
        assert reservoir_row_indices(30, capacity=100, seed=1).tolist() == list(range(30))

    def test_approximately_uniform(self):
        streamed = advance_row_indices(np.arange(0), 0, 20_000, 2000,
                                       np.random.default_rng(2))
        assert float(np.mean(streamed)) == pytest.approx(10_000, rel=0.1)
        drawn = reservoir_row_indices(20_000, capacity=2000, seed=2)
        assert float(np.mean(drawn)) == pytest.approx(10_000, rel=0.1)

    def test_merge_preserves_capacity_and_count(self):
        sampled = reservoir_row_indices(1000, capacity=50, seed=3)
        before = sampled.copy()
        advanced = advance_row_indices(sampled, 1000, 2000, 50,
                                       np.random.default_rng(4))
        assert advanced.size == len(set(advanced.tolist())) == 50
        assert advanced.max() < 3000 and (advanced >= 1000).any()
        np.testing.assert_array_equal(sampled, before)

    def test_row_indices_helper(self):
        indices = reservoir_row_indices(10, capacity=20)
        assert indices.tolist() == list(range(10))
        sampled = reservoir_row_indices(1000, capacity=10, seed=5)
        assert len(sampled) == 10
        assert len(set(sampled.tolist())) == 10
