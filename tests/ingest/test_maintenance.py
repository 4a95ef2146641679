"""Incremental SketchStore maintenance: partials, merge, accuracy budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import make_mixed_table
from repro.ingest import (
    DeltaBatch,
    IngestConfig,
    IngestLog,
    build_delta_partials,
    merge_delta,
    should_rebuild,
)
from repro.sketch.store import SketchStore
from repro.stats.correlation import correlation_matrix


@pytest.fixture(scope="module")
def base_table():
    return make_mixed_table(n_rows=500, n_numeric=5, n_categorical=2, seed=9)


@pytest.fixture(scope="module")
def delta_table(base_table):
    rows = make_mixed_table(n_rows=120, n_numeric=5, n_categorical=2,
                            seed=10).to_records()
    return DeltaBatch.from_records("d", rows, base_table.schema).table


@pytest.fixture()
def store(base_table):
    return SketchStore(base_table)


def _merged(store, base_table, delta_table):
    new_table = base_table.concat(delta_table)
    (partials,) = build_delta_partials(new_table, store, [delta_table.n_rows])
    return merge_delta(store, new_table, [(delta_table.n_rows, partials)])


class TestDeltaPartials:
    def test_partials_mirror_base_bundle_shape(self, store, base_table,
                                               delta_table):
        (partials,) = build_delta_partials(base_table.concat(delta_table),
                                           store, [delta_table.n_rows])
        for name, partial in partials.columns.items():
            base = store.column_sketches(name)
            for attribute in ("moments", "quantiles", "frequent"):
                base_has = getattr(base, attribute) is not None
                partial_has = getattr(partial, attribute) is not None
                assert partial_has == base_has, (name, attribute)
        assert partials.comoments.names == store.comoments.names
        assert partials.comoments.shift.tolist() == store.comoments.shift.tolist()


class TestMergeDelta:
    def test_moments_exact_after_merge(self, store, base_table, delta_table):
        merged = _merged(store, base_table, delta_table)
        for name in base_table.numeric_names():
            combined = np.concatenate([
                base_table.numeric_column(name).valid_values(),
                delta_table.numeric_column(name).valid_values(),
            ])
            assert merged.approx_mean(name) == pytest.approx(combined.mean())
            assert merged.approx_variance(name) == pytest.approx(
                combined.var(), rel=1e-9
            )

    def test_quantiles_within_bound_after_merge(self, store, base_table,
                                                delta_table):
        merged = _merged(store, base_table, delta_table)
        epsilon = store.config.quantile_epsilon
        name = base_table.numeric_names()[0]
        combined = np.sort(np.concatenate([
            base_table.numeric_column(name).valid_values(),
            delta_table.numeric_column(name).valid_values(),
        ]))
        n = combined.size
        for q in (0.25, 0.5, 0.75):
            estimate = merged.column_sketches(name).quantiles.quantile(q)
            rank = np.searchsorted(combined, estimate)
            assert abs(rank - q * n) <= 2 * epsilon * n + 2

    def test_frequent_absorbs_delta(self, store, base_table, delta_table):
        merged = _merged(store, base_table, delta_table)
        name = base_table.categorical_names()[0]
        label, _ = merged.approx_top_values(name, 1)[0]
        truth = (base_table.categorical_column(name).valid_labels()
                 + delta_table.categorical_column(name).valid_labels())
        true_count = truth.count(label)
        # Misra-Gries never overcounts.
        assert merged.approx_top_values(name, 1)[0][1] <= true_count
        assert merged.column_sketches(name).frequent.count == len(truth)

    def test_copy_on_merge_isolates_the_old_store(self, store, base_table,
                                                  delta_table):
        name = base_table.numeric_names()[0]
        before_mean = store.approx_mean(name)
        before_count = store.column_sketches(name).moments.count
        merged = _merged(store, base_table, delta_table)
        # The old store is byte-for-byte what it was: in-flight queries
        # holding it keep a consistent view.
        assert store.approx_mean(name) == before_mean
        assert store.column_sketches(name).moments.count == before_count
        assert store.table.n_rows == base_table.n_rows
        assert merged.table.n_rows == base_table.n_rows + delta_table.n_rows

    def test_correlation_covers_the_delta_rows(self, store, base_table,
                                               delta_table):
        merged = _merged(store, base_table, delta_table)
        grown = base_table.concat(delta_table)
        matrix, names = merged.approx_correlation_matrix()
        exact = correlation_matrix(grown.numeric_matrix(names)[0])
        np.testing.assert_allclose(matrix, exact, rtol=0, atol=1e-12)
        assert not np.allclose(store.approx_correlation_matrix()[0], exact,
                               rtol=0, atol=1e-12)

    def test_sample_indices_cover_delta_rows(self, store, base_table,
                                             delta_table):
        merged = _merged(store, base_table, delta_table)
        indices = merged.sample_indices
        assert indices.max() >= base_table.n_rows  # some appended row sampled
        assert indices.max() < merged.table.n_rows
        assert len(np.unique(indices)) == len(indices)
        # Sample table materialises over the grown table without error.
        assert merged.sample_table().n_rows == len(indices)

    def test_delta_accounting(self, store, base_table, delta_table):
        merged = _merged(store, base_table, delta_table)
        assert merged.stats.delta_rows == delta_table.n_rows
        assert merged.stats.delta_batches == 1
        assert merged.stats.n_rows == base_table.n_rows + delta_table.n_rows
        grown = merged.table.concat(delta_table)
        (partials,) = build_delta_partials(grown, merged, [delta_table.n_rows])
        twice = merge_delta(merged, grown, [(delta_table.n_rows, partials)])
        assert twice.stats.delta_rows == 2 * delta_table.n_rows
        assert twice.stats.delta_batches == 2
        # A run of appends counts each of them.
        run = store.table.concat(delta_table, delta_table, delta_table)
        counts = [delta_table.n_rows] * 3
        thrice = merge_delta(store, run, list(zip(
            counts, build_delta_partials(run, store, counts))))
        assert thrice.stats.delta_rows == 3 * delta_table.n_rows
        assert thrice.stats.delta_batches == 3

    def test_merge_is_deterministic(self, store, base_table, delta_table):
        a = _merged(store, base_table, delta_table)
        b = _merged(SketchStore(base_table), base_table, delta_table)
        name = base_table.numeric_names()[0]
        assert (a.column_sketches(name).quantiles.quantile(0.5)
                == b.column_sketches(name).quantiles.quantile(0.5))
        assert np.array_equal(a.sample_indices, b.sample_indices)


    def test_sketch_bytes_adjusted_by_the_merged_bundles(self, store,
                                                         base_table,
                                                         delta_table):
        merged = _merged(store, base_table, delta_table)
        assert merged.stats.total_sketch_bytes == sum(
            bundle.memory_bytes() for bundle in merged.column_map().values()
        ) + merged.comoments.memory_bytes()
        assert merged.stats.total_sketch_bytes != store.stats.total_sketch_bytes


class TestWhatAnAppendCosts:
    """Call counts, not clocks: the write path reads a batch as one block."""

    N_NUMERIC, N_CATEGORICAL, ROWS = 20, 2, 64

    @pytest.fixture(scope="class")
    def wide_table(self):
        return make_mixed_table(n_rows=500, n_numeric=self.N_NUMERIC,
                                n_categorical=self.N_CATEGORICAL, seed=21)

    @pytest.fixture(scope="class")
    def plain_rows(self):
        # What a JSON client sends: floats and label strings.
        return make_mixed_table(n_rows=self.ROWS, n_numeric=self.N_NUMERIC,
                                n_categorical=self.N_CATEGORICAL,
                                seed=22).to_records()

    @staticmethod
    def _counted(monkeypatch, owner, name) -> list:
        calls, original = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_plain_numeric_cells_are_never_parsed_one_by_one(
            self, monkeypatch, wide_table, plain_rows):
        from repro.data import column as column_module

        parsed = self._counted(monkeypatch, column_module, "parse_number")
        tested = self._counted(monkeypatch, column_module, "is_missing_token")
        batch = DeltaBatch.from_records("d", plain_rows, wide_table.schema)
        assert batch.n_rows == self.ROWS
        assert parsed == []
        # Categorical labels, and only those, take the cell path — once per
        # distinct raw label of a column.
        assert all(isinstance(value, str) for (value,) in tested)
        assert len(tested) == sum(
            len({row[name] for row in plain_rows})
            for name in wide_table.categorical_names())

    def test_a_batch_is_sorted_once_and_hashes_only_unseen_labels(
            self, monkeypatch, wide_table, plain_rows):
        import hashlib

        store = SketchStore(wide_table)
        delta = DeltaBatch.from_records("d", plain_rows, wide_table.schema).table
        grown = wide_table.concat(delta)
        sorts = self._counted(monkeypatch, np, "sort")
        hashed = self._counted(monkeypatch, hashlib, "blake2b")
        (partials,) = build_delta_partials(grown, store, [delta.n_rows])
        assert len(sorts) == 1  # one row-wise sort for all 20 GK partials
        assert sorts[0][0].shape == (self.N_NUMERIC, self.ROWS)
        merged = merge_delta(store, grown, [(delta.n_rows, partials)])
        build_delta_partials(grown.concat(delta), merged, [delta.n_rows])
        # No store sketch hashes a label any more (the entropy and
        # Count-Min sketches, which did, had no reader and are gone).
        assert hashed == []

    def test_compress_walks_only_where_a_merge_is_possible(self, monkeypatch):
        from repro.sketch.quantile import QuantileSketch

        from repro.sketch import quantile

        walked = []
        candidates = quantile._candidates

        def counted(*args):
            at, limits = candidates(*args)
            walked.append(int(at.size))
            return at, limits

        monkeypatch.setattr(quantile, "_candidates", counted)
        rng = np.random.default_rng(8)
        summary = QuantileSketch(0.01)
        summary.update_array(rng.normal(size=5000))  # freshly compressed
        assert summary.n_tuples > 40
        for _ in range(30):  # ... plus one tuple, thirty times over
            one = QuantileSketch(0.01)
            one.update_array(rng.normal(size=1))
            summary = summary.merged(one)
        assert len(walked) == 30 and max(walked) <= 4
        assert summary.n_tuples > 40


class TestAccuracyBudget:
    def test_budget_counts_from_base_rows(self):
        log = IngestLog()
        log.mark_rebuilt(1000)
        config = IngestConfig(rebuild_fraction=0.5)
        assert not should_rebuild(log, 500, config)
        assert should_rebuild(log, 501, config)
        log.append(400, "delta_merge")
        assert should_rebuild(log, 101, config)
        assert not should_rebuild(log, 100, config)

    def test_rebuild_resets_the_budget(self):
        log = IngestLog()
        log.mark_rebuilt(1000)
        log.append(600, "delta_merge")
        log.record_swap(1600, 1600)
        assert log.rows_since_rebuild == 0
        assert log.base_rows == 1600
        assert log.rebuilds == 1

    def test_no_budget_before_first_build(self):
        log = IngestLog()
        assert not should_rebuild(log, 10**9, IngestConfig())

    def test_zero_fraction_always_rebuilds(self):
        log = IngestLog()
        log.mark_rebuilt(100)
        assert should_rebuild(log, 1, IngestConfig(rebuild_fraction=0.0))

    def test_seq_is_monotone_and_gap_free(self):
        log = IngestLog()
        log.mark_rebuilt(100)
        seqs = [log.append(1, "delta_merge") for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert log.seq == 5
        assert log.counters()["rows_appended"] == 5
