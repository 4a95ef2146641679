"""Tests for the SketchStore (preprocessing layer)."""

import numpy as np
import pytest

from repro.errors import SketchNotAvailableError
from repro.data.datasets import make_mixed_table
from repro.sketch.store import (
    SketchStore,
    SketchStoreConfig,
    merge_column_sketches,
    preprocess,
)
from repro.stats import (
    kurtosis,
    median,
    pearson,
    relative_frequency_topk,
    skewness,
    variance,
)


@pytest.fixture(scope="module")
def store_table():
    return make_mixed_table(n_rows=3000, n_numeric=8, n_categorical=2, seed=9)


@pytest.fixture(scope="module")
def store(store_table) -> SketchStore:
    return SketchStore(store_table, config=SketchStoreConfig(seed=1))


class TestConstruction:
    def test_preprocess_convenience(self, store_table):
        assert isinstance(preprocess(store_table), SketchStore)

    def test_stats_recorded(self, store):
        stats = store.stats
        assert stats.n_rows == 3000
        assert stats.n_numeric == 8
        assert stats.n_categorical == 2
        assert stats.seconds > 0
        assert stats.total_sketch_bytes > 0
        assert set(stats.per_stage_seconds) == {"comoments", "numeric", "categorical"}

    def test_every_column_has_sketches(self, store, store_table):
        for name in store_table.column_names():
            assert store.has_column(name)

    def test_unknown_column_raises(self, store):
        with pytest.raises(SketchNotAvailableError):
            store.column_sketches("nope")

    def test_sample_table_bounded(self, store):
        sample = store.sample_table()
        assert sample.n_rows <= store.config.sample_capacity
        assert sample.column_names() == store.table.column_names()


class TestApproximateMetrics:
    def test_moments_match_exact(self, store, store_table):
        name = "attr_003"
        values = store_table.numeric_column(name).valid_values()
        assert store.approx_mean(name) == pytest.approx(float(values.mean()))
        assert store.approx_variance(name) == pytest.approx(variance(values))
        assert store.approx_skewness(name) == pytest.approx(skewness(values), abs=1e-9)
        assert store.approx_kurtosis(name) == pytest.approx(kurtosis(values), abs=1e-9)

    def test_quantiles_close_to_exact(self, store, store_table):
        name = "attr_001"
        values = store_table.numeric_column(name).valid_values()
        quantiles = store.column_sketches(name).quantiles
        assert quantiles.quantile(0.5) == pytest.approx(median(values), abs=0.1)
        summary = quantiles.five_number_summary()
        assert summary["q1"] <= summary["median"] <= summary["q3"]

    def test_correlation_is_exact(self, store, store_table):
        x = store_table.numeric_column("attr_000").values
        y = store_table.numeric_column("attr_001").values
        exact = pearson(x, y)
        matrix, _ = store.approx_correlation_matrix(["attr_000", "attr_001"])
        assert matrix[0, 1] == pytest.approx(exact, abs=1e-12)

    def test_correlation_matrix_shape_and_symmetry(self, store):
        matrix, names = store.approx_correlation_matrix()
        assert matrix.shape == (len(names), len(names))
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_relfreq_close_to_exact(self, store, store_table):
        labels = store_table.categorical_column("cat_00").valid_labels()
        exact = relative_frequency_topk(labels, 3)
        assert store.approx_relative_frequency_topk("cat_00", 3) == pytest.approx(exact, abs=0.05)

    def test_top_values(self, store, store_table):
        top = store.approx_top_values("cat_00", 3)
        assert len(top) == 3
        counts = store_table.categorical_column("cat_00").value_counts()
        assert top[0][0] == next(iter(counts))

    def test_outlier_strength_nonnegative(self, store):
        for name in ("attr_000", "attr_007"):
            assert store.approx_outlier_strength(name) >= 0.0

    def test_missing_sketch_raises(self, store):
        with pytest.raises(SketchNotAvailableError):
            store.approx_relative_frequency_topk("attr_000", 3)


class TestConfig:
    def test_quantile_sample_cap_applied(self):
        table = make_mixed_table(n_rows=5000, n_numeric=2, n_categorical=0, seed=2)
        store = SketchStore(
            table, config=SketchStoreConfig(quantile_sample_cap=500)
        )
        bundle = store.column_sketches("attr_000")
        assert bundle.quantiles.count == 500


class TestMerge:
    def test_merge_column_sketches_over_partitions(self):
        table = make_mixed_table(n_rows=2000, n_numeric=3, n_categorical=1, seed=3)
        left, right = table.split(0.5, seed=0)
        config = SketchStoreConfig()
        store_left = SketchStore(left, config=config)
        store_right = SketchStore(right, config=config)
        merged = merge_column_sketches(
            {n: store_left.column_sketches(n) for n in table.column_names()},
            {n: store_right.column_sketches(n) for n in table.column_names()},
        )
        whole_values = table.numeric_column("attr_000").valid_values()
        assert merged["attr_000"].moments.count == whole_values.size
        assert merged["attr_000"].moments.mean() == pytest.approx(float(whole_values.mean()))
        assert merged["cat_00"].frequent.count == table.n_rows

    def test_merge_leaves_inputs_untouched(self):
        """Inputs are published snapshots: merging must copy, not mutate.

        Regression test for the in-place ``sketch_a.merge(sketch_b)`` the
        snapshot-immutability audit flagged: merging used to fold the right
        partition into the left input's sketches, corrupting any store
        still serving queries from them.
        """
        table = make_mixed_table(n_rows=1000, n_numeric=2, n_categorical=1, seed=7)
        left, right = table.split(0.5, seed=0)
        config = SketchStoreConfig()
        left_bundles = {
            n: SketchStore(left, config=config).column_sketches(n)
            for n in table.column_names()
        }
        right_bundles = {
            n: SketchStore(right, config=config).column_sketches(n)
            for n in table.column_names()
        }
        left_counts = {n: b.moments.count for n, b in left_bundles.items() if b.moments}
        left_means = {n: b.moments.mean() for n, b in left_bundles.items() if b.moments}
        merged = merge_column_sketches(left_bundles, right_bundles)
        for name, count in left_counts.items():
            assert left_bundles[name].moments.count == count
            assert left_bundles[name].moments.mean() == left_means[name]
            assert merged[name].moments.count > count
            assert merged[name].moments is not left_bundles[name].moments

    def test_merge_output_order_is_insertion_order_free(self):
        """Merged bundles come back in sorted column order regardless of the
        hash/insertion order of the input mappings (byte-identical
        serialization either way)."""
        table = make_mixed_table(n_rows=600, n_numeric=3, n_categorical=1, seed=9)
        left, right = table.split(0.5, seed=1)
        config = SketchStoreConfig()
        store_left = SketchStore(left, config=config)
        store_right = SketchStore(right, config=config)
        names = table.column_names()
        forward = {n: store_left.column_sketches(n) for n in names}
        backward = {n: store_right.column_sketches(n) for n in reversed(names)}
        merged = merge_column_sketches(forward, backward)
        assert list(merged) == sorted(names)
        flipped = merge_column_sketches(
            {n: forward[n] for n in reversed(names)},
            {n: backward[n] for n in names},
        )
        assert list(flipped) == list(merged)
