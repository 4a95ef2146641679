"""Property-based tests (hypothesis) for the sketch substrate.

These check the invariants the paper's preprocessing relies on: single-pass
construction matches batch construction, merging partitions equals sketching
the union, and the published error bounds hold for arbitrary inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import ColumnKind, Field, NumericColumn
from repro.sketch.comoments import CoMoments
from repro.sketch.frequent import MisraGriesSketch, SpaceSavingSketch, exact_counts
from repro.sketch.moments import MomentSketch
from repro.sketch.quantile import QuantileSketch
from repro.sketch.reservoir import advance_row_indices, reservoir_row_indices

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)
float_lists = st.lists(finite_floats, min_size=2, max_size=400)
label_lists = st.lists(st.sampled_from([f"v{i}" for i in range(12)]), min_size=1, max_size=500)


class TestMomentSketchProperties:
    @given(values=float_lists, split=st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, values, split):
        split = min(split, len(values))
        array = np.asarray(values)
        whole = MomentSketch()
        whole.update_array(array)
        left, right = MomentSketch(), MomentSketch()
        left.update_array(array[:split])
        right.update_array(array[split:])
        left.merge(right)
        assert left.count == whole.count
        assert np.isclose(left.mean(), whole.mean(), rtol=1e-9, atol=1e-9)
        assert np.isclose(left.variance(), whole.variance(), rtol=1e-7, atol=1e-7)

    @given(values=float_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, values):
        array = np.asarray(values)
        sketch = MomentSketch()
        sketch.update_array(array)
        assert np.isclose(sketch.mean(), array.mean(), rtol=1e-9, atol=1e-9)
        assert np.isclose(sketch.variance(), array.var(), rtol=1e-7, atol=1e-7)
        assert sketch.minimum() == array.min()
        assert sketch.maximum() == array.max()


class TestQuantileSketchProperties:
    @given(values=st.lists(finite_floats, min_size=10, max_size=800),
           q=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    @settings(max_examples=50, deadline=None)
    def test_rank_error_bound(self, values, q):
        epsilon = 0.05
        array = np.asarray(values)
        sketch = QuantileSketch(epsilon=epsilon)
        sketch.update_array(array)
        estimate = sketch.quantile(q)
        ordered = np.sort(array)
        rank_low = np.searchsorted(ordered, estimate, side="left")
        rank_high = np.searchsorted(ordered, estimate, side="right")
        target = q * (array.size - 1) + 1
        slack = 2 * epsilon * array.size + 1
        assert rank_low - slack <= target <= rank_high + slack

    @given(values=st.lists(finite_floats, min_size=4, max_size=300),
           split=st.integers(min_value=1, max_value=299))
    @settings(max_examples=40, deadline=None)
    def test_merge_count_and_bounds(self, values, split):
        split = min(split, len(values) - 1)
        array = np.asarray(values)
        left, right = QuantileSketch(0.05), QuantileSketch(0.05)
        left.update_array(array[:split])
        right.update_array(array[split:])
        left.merge(right)
        assert left.count == array.size
        assert array.min() <= left.median() <= array.max()


class TestFrequentItemsProperties:
    @given(labels=label_lists, capacity=st.integers(min_value=2, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_misra_gries_never_overestimates(self, labels, capacity):
        sketch = MisraGriesSketch(capacity=capacity)
        sketch.update_many(labels)
        truth = exact_counts(labels)
        bound = len(labels) / capacity
        for label, count in truth.items():
            estimate = sketch.estimate(label)
            assert estimate <= count
            assert estimate >= count - bound - 1e-9

    @given(labels=label_lists, capacity=st.integers(min_value=2, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_space_saving_never_underestimates_tracked(self, labels, capacity):
        sketch = SpaceSavingSketch(capacity=capacity)
        sketch.update_many(labels)
        truth = exact_counts(labels)
        for label, estimate in sketch.top_k(capacity):
            assert estimate >= truth.get(label, 0)

    @given(labels=label_lists, k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_relfreq_topk_bounded(self, labels, k):
        sketch = MisraGriesSketch(capacity=32)
        sketch.update_many(labels)
        value = sketch.relative_frequency_topk(k)
        assert 0.0 <= value <= 1.0


class TestReservoirProperties:
    @given(n=st.integers(min_value=0, max_value=2000),
           new=st.integers(min_value=0, max_value=2000),
           capacity=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_sample_size_invariant(self, n, new, capacity):
        sampled = reservoir_row_indices(n, capacity, seed=0)
        advanced = advance_row_indices(sampled, n, new, capacity,
                                       np.random.default_rng(0))
        assert advanced.size == min(n + new, capacity)
        assert set(advanced.tolist()) <= set(range(n + new))
        assert len(set(advanced.tolist())) == advanced.size


class TestCoMomentsProperties:
    @staticmethod
    def _rho(*columns: np.ndarray) -> np.ndarray:
        sums = CoMoments.of_columns([
            NumericColumn(Field(f"c{k}", ColumnKind.NUMERIC), values)
            for k, values in enumerate(columns)])
        return sums.correlation(sums.names)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        shift=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_correlation_invariant_to_affine_transform(self, seed, scale, shift):
        """Pearson correlation is invariant to positive affine maps, and
        the sums are taken about each column's own mean."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(400)
        y = 0.6 * x + 0.8 * rng.standard_normal(400)
        base = self._rho(x, y)[0, 1]
        assert abs(self._rho(scale * x + shift, y)[0, 1] - base) <= 1e-12
        assert abs(base - np.corrcoef(x, y)[0, 1]) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_with_a_unit_diagonal_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        rho = self._rho(*rng.lognormal(size=(4, 200)))
        assert rho.tolist() == rho.T.tolist()
        assert np.diag(rho).tolist() == [1.0] * 4
        assert np.all(np.abs(rho) <= 1.0)


