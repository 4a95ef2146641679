"""Tests for the random hyperplane (SimHash) correlation sketch."""

import numpy as np
import pytest

from repro.errors import SketchError, SketchMergeError
from repro.data.datasets import make_correlated_pair, make_numeric_table
from repro.sketch.hyperplane import (
    HyperplaneSketcher,
    StreamingHyperplaneSketch,
    suggest_width,
)
from repro.stats.correlation import correlation_matrix, pearson


@pytest.fixture(scope="module")
def pair_matrix() -> np.ndarray:
    table = make_correlated_pair(20_000, 0.8, seed=0)
    matrix, _ = table.numeric_matrix()
    return matrix


class TestSuggestWidth:
    def test_grows_with_n(self):
        assert suggest_width(1_000_000) > suggest_width(1_000)

    def test_multiple_of_eight(self):
        for n in (100, 10_000, 1_000_000):
            assert suggest_width(n) % 8 == 0

    def test_bounds(self):
        assert suggest_width(1) == 64
        assert suggest_width(10**9, maximum=512) == 512


class TestBatchSketcher:
    def test_estimates_strong_correlation(self, pair_matrix):
        sketcher = HyperplaneSketcher(n_rows=pair_matrix.shape[0], width=1024, seed=1)
        sketches = sketcher.sketch_matrix(pair_matrix)
        estimate = sketches[0].estimate_correlation(sketches[1])
        exact = pearson(pair_matrix[:, 0], pair_matrix[:, 1])
        assert estimate == pytest.approx(exact, abs=0.08)

    def test_self_correlation_is_one(self, pair_matrix):
        sketcher = HyperplaneSketcher(n_rows=pair_matrix.shape[0], width=256, seed=2)
        sketch = sketcher.sketch_matrix(pair_matrix)[0]
        assert sketch.estimate_correlation(sketch) == pytest.approx(1.0)

    def test_negated_column_gives_minus_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000)
        matrix = np.column_stack([x, -x])
        sketcher = HyperplaneSketcher(n_rows=5000, width=256, seed=3)
        sketches = sketcher.sketch_matrix(matrix)
        assert sketches[0].estimate_correlation(sketches[1]) == pytest.approx(-1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((20_000, 2))
        sketcher = HyperplaneSketcher(n_rows=20_000, width=1024, seed=4)
        sketches = sketcher.sketch_matrix(matrix)
        assert abs(sketches[0].estimate_correlation(sketches[1])) < 0.15

    def test_correlation_matrix_close_to_exact(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(10_000)
        matrix = np.column_stack(
            [base + 0.3 * rng.standard_normal(10_000) for _ in range(4)]
            + [rng.standard_normal(10_000)]
        )
        sketcher = HyperplaneSketcher(n_rows=10_000, width=1024, seed=5)
        approx = sketcher.correlation_matrix(sketcher.sketch_matrix(matrix))
        exact = correlation_matrix(matrix)
        errors = np.abs(approx - exact)
        assert errors.max() < 0.2
        assert errors.mean() < 0.06
        np.testing.assert_allclose(np.diag(approx), 1.0)

    def test_error_shrinks_as_width_grows(self):
        table = make_numeric_table(
            n_rows=5000, n_columns=12, block_correlation=0.8, seed=13
        )
        matrix, _ = table.numeric_matrix()
        exact = correlation_matrix(matrix)
        pairs = np.triu_indices(12, 1)

        def mean_error(width: int) -> float:
            sketcher = HyperplaneSketcher(n_rows=5000, width=width, seed=7)
            approx = sketcher.correlation_matrix(sketcher.sketch_matrix(matrix))
            return float(np.abs(approx - exact)[pairs].mean())

        assert mean_error(1024) < mean_error(64)

    def test_missing_values_handled(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5000)
        y = 0.9 * x + 0.4 * rng.standard_normal(5000)
        x_gappy = x.copy()
        x_gappy[::50] = np.nan
        matrix = np.column_stack([x_gappy, y])
        sketcher = HyperplaneSketcher(n_rows=5000, width=512, seed=6)
        sketches = sketcher.sketch_matrix(matrix)
        assert sketches[0].estimate_correlation(sketches[1]) > 0.7

    def test_memory_accounting_matches_paper_claim(self):
        # |B| * k bits of memory for the whole numeric block.
        sketcher = HyperplaneSketcher(n_rows=1000, width=512, seed=7)
        assert sketcher.memory_bytes(n_columns=30) == 30 * 512 // 8
        matrix = np.random.default_rng(7).standard_normal((1000, 3))
        for sketch in sketcher.sketch_matrix(matrix):
            assert sketch.memory_bytes() == 512 // 8

    def test_incompatible_sketches_rejected(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((100, 1))
        a = HyperplaneSketcher(n_rows=100, width=64, seed=1).sketch_matrix(matrix)[0]
        b = HyperplaneSketcher(n_rows=100, width=64, seed=2).sketch_matrix(matrix)[0]
        with pytest.raises(SketchMergeError):
            a.estimate_correlation(b)

    def test_row_count_validation(self):
        sketcher = HyperplaneSketcher(n_rows=100, width=64)
        with pytest.raises(SketchError):
            sketcher.sketch_matrix(np.zeros((50, 2)))

    def test_parameter_validation(self):
        with pytest.raises(SketchError):
            HyperplaneSketcher(n_rows=0)
        with pytest.raises(SketchError):
            HyperplaneSketcher(n_rows=10, width=0)

    def test_deterministic_given_seed(self, pair_matrix):
        a = HyperplaneSketcher(n_rows=pair_matrix.shape[0], width=128, seed=9)
        b = HyperplaneSketcher(n_rows=pair_matrix.shape[0], width=128, seed=9)
        np.testing.assert_array_equal(
            a.sketch_matrix(pair_matrix)[0].bits, b.sketch_matrix(pair_matrix)[0].bits
        )


class TestStreamingSketch:
    def test_matches_batch_signature(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal(500)
        streaming = StreamingHyperplaneSketch(width=64, seed=11, mean=float(values.mean()))
        streaming.update_array(values)
        signature = streaming.signature()
        assert signature.width == 64
        assert signature.bits.size == 8

    def test_merge_of_partitions_equals_single_pass(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(400)
        mean = float(values.mean())
        whole = StreamingHyperplaneSketch(width=64, seed=13, mean=mean)
        whole.update_array(values)
        left = StreamingHyperplaneSketch(width=64, seed=13, mean=mean, row_offset=0)
        left.update_array(values[:150])
        right = StreamingHyperplaneSketch(width=64, seed=13, mean=mean, row_offset=150)
        right.update_array(values[150:])
        left.merge(right)
        np.testing.assert_array_equal(left.signature().bits, whole.signature().bits)

    def test_merge_parameter_check(self):
        a = StreamingHyperplaneSketch(width=64, seed=1)
        b = StreamingHyperplaneSketch(width=128, seed=1)
        with pytest.raises(SketchMergeError):
            a.merge(b)

    def test_correlation_between_streamed_columns(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(2000)
        y = 0.9 * x + np.sqrt(1 - 0.81) * rng.standard_normal(2000)
        sketch_x = StreamingHyperplaneSketch(width=512, seed=15, mean=float(x.mean()))
        sketch_y = StreamingHyperplaneSketch(width=512, seed=15, mean=float(y.mean()))
        sketch_x.update_array(x)
        sketch_y.update_array(y)
        estimate = sketch_x.signature().estimate_correlation(sketch_y.signature())
        assert estimate == pytest.approx(0.9, abs=0.12)
