"""Property tests for the array-backed and count-fed sketch kernels.

Two kinds of claim, both over generated inputs:

* **A fast kernel equals the loop it replaced.**  The array-backed
  Greenwald–Khanna summary is compared tuple for tuple with
  :class:`ListGK`, a test-only list-of-tuples implementation (one Python
  object per tuple, one Python step per tuple); the count-fed builds of
  the four categorical sketches are compared state for state with the
  per-row build.
* **The stated error bound holds**, also after a 200-batch merge chain
  and on NaN, ±inf, constant and heavily tied columns.

:class:`ListGK` is the summary as it stood before the arrays, with one
deliberate difference that the array version shares: ``merge`` widens the
``delta`` of every interleaved tuple by the other side's next
``g + delta - 1``.  Without that (the previous behaviour) a tuple inserted
by a merge claimed an exactly known rank it did not have, later
compressions trusted the claim, and the rank error grew with every merge
— to about ``0.5·n`` after 200 small batches — instead of staying within
``ε·n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sketch.countmin import CountMinSketch
from repro.sketch.entropy import EntropySketch
from repro.sketch.frequent import MisraGriesSketch, SpaceSavingSketch
from repro.sketch.moments import MomentSketch
from repro.sketch.quantile import QuantileSketch


# ---------------------------------------------------------------------------
# Reference: Greenwald–Khanna over a list of tuple objects
# ---------------------------------------------------------------------------
@dataclass
class _Tuple:
    value: float
    g: int
    delta: int


class ListGK:
    """Loop-per-tuple GK summary; the reference for :class:`QuantileSketch`."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.tuples: list[_Tuple] = []
        self.count = 0
        self.since_compress = 0

    def update(self, value: float) -> None:
        if math.isnan(value):
            return
        self._insert(value)
        self.count += 1
        self.since_compress += 1
        if self.since_compress >= max(1, int(1.0 / (2.0 * self.epsilon))):
            self._compress()
            self.since_compress = 0

    def update_array(self, values: np.ndarray) -> None:
        values = values[~np.isnan(values)]
        if values.size == 0:
            return
        if self.count:
            for value in values:
                self.update(float(value))
            return
        ordered = np.sort(values)
        n = int(ordered.size)
        step = max(int(2.0 * self.epsilon * n), 1)
        keep = list(range(0, n, step))
        if keep[-1] != n - 1:
            keep.append(n - 1)
        previous = -1
        for index in keep:
            self.tuples.append(_Tuple(float(ordered[index]), index - previous, 0))
            previous = index
        self.count = n
        self.since_compress = 0

    def _insert(self, value: float) -> None:
        tuples = self.tuples
        if not tuples or value < tuples[0].value:
            tuples.insert(0, _Tuple(value, 1, 0))
            return
        if value >= tuples[-1].value:
            tuples.append(_Tuple(value, 1, 0))
            return
        at = next(i for i, t in enumerate(tuples) if t.value > value)
        delta = max(int(math.floor(2.0 * self.epsilon * self.count)) - 1, 0)
        tuples.insert(at, _Tuple(value, 1, delta))

    def _compress(self) -> None:
        if len(self.tuples) < 3:
            return
        threshold = 2.0 * self.epsilon * self.count
        merged = [self.tuples[0]]
        for current in self.tuples[1:-1]:
            candidate = merged[-1]
            if len(merged) > 1 and candidate.g + current.g + current.delta <= threshold:
                merged[-1] = _Tuple(current.value, candidate.g + current.g, current.delta)
            else:
                merged.append(current)
        merged.append(self.tuples[-1])
        self.tuples = merged

    def merge(self, other: "ListGK") -> None:
        def widened(mine: list[_Tuple], theirs: list[_Tuple], strictly: bool):
            for t in mine:
                above = next(
                    (u for u in theirs
                     if (u.value > t.value if strictly else u.value >= t.value)),
                    None,
                )
                extra = above.g + above.delta - 1 if above is not None else 0
                yield _Tuple(t.value, t.g, t.delta + extra)

        # sorted() is stable: on ties this summary's tuples stay first.
        self.tuples = sorted(
            [*widened(self.tuples, other.tuples, strictly=False),
             *widened(other.tuples, self.tuples, strictly=True)],
            key=lambda t: t.value,
        )
        self.count += other.count
        self._compress()

    def quantile(self, q: float) -> float:
        target = q * (self.count - 1) + 1
        margin = self.epsilon * self.count
        min_rank = 0
        for t in self.tuples:
            min_rank += t.g
            if min_rank + t.delta >= target - margin and min_rank <= target + margin:
                return t.value
        return self.tuples[-1].value

    def rank(self, value: float) -> int:
        min_rank = estimate = 0
        for t in self.tuples:
            min_rank += t.g
            if t.value <= value:
                estimate = min_rank
            else:
                break
        return estimate

    def state(self):
        return ([(t.value, t.g, t.delta) for t in self.tuples],
                self.count, self.since_compress)


def _state(sketch: QuantileSketch):
    return (
        list(zip(sketch._value.tolist(), sketch._g.tolist(), sketch._delta.tolist())),
        sketch.count, sketch._since_compress,
    )


any_floats = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 1.0, 2.0, -0.0, math.inf, -math.inf, math.nan]),
)
#: One step of a sketch's life: absorb a batch, stream a few single
#: values, or merge a summary built elsewhere over a batch.
gk_steps = st.lists(
    st.tuples(st.sampled_from(["array", "stream", "merge"]),
              st.lists(any_floats, max_size=120)),
    min_size=1, max_size=12,
)


class TestArrayBackedGKEqualsListOfTuples:
    @given(epsilon=st.sampled_from([0.01, 0.05, 0.2, 0.49]), steps=gk_steps)
    @settings(max_examples=120, deadline=None)
    def test_tuple_for_tuple_over_streams_and_merge_chains(self, epsilon, steps):
        reference, sketch = ListGK(epsilon), QuantileSketch(epsilon)
        for kind, values in steps:
            batch = np.asarray(values, dtype=np.float64)
            if kind == "array":
                reference.update_array(batch)
                sketch.update_array(batch)
            elif kind == "stream":
                for value in values[:40]:
                    reference.update(value)
                    sketch.update(value)
            else:
                part_reference, part = ListGK(epsilon), QuantileSketch(epsilon)
                part_reference.update_array(batch)
                part.update_array(batch)
                copied = sketch.copy()
                copied.merge(part)
                reference.merge(part_reference)
                # copy() isolated the merge: the original did not move.
                assert _state(sketch) != _state(copied) or part.count == 0
                sketch = copied
            assert _state(sketch) == reference.state()
            if sketch.count:
                for q in (0.0, 0.1, 0.5, 0.9, 1.0):
                    assert sketch.quantile(q) == reference.quantile(q)
            for probe in (-math.inf, -1.0, 0.0, 1.0, math.inf, math.nan):
                assert sketch.rank(probe) == reference.rank(probe)


def _chain_batches(seed: int, shape: str) -> list[np.ndarray]:
    """200 append-sized batches of one column shape, from one seed."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(200):
        size = int(rng.integers(1, 65))
        if shape == "constant":
            batch = np.full(size, 3.0)
        elif shape == "ties":
            batch = rng.integers(0, 4, size=size).astype(np.float64)
        else:
            batch = rng.normal(size=size)
            if shape == "non_finite":
                batch[rng.random(size) < 0.10] = np.nan
                batch[rng.random(size) < 0.05] = np.inf
                batch[rng.random(size) < 0.05] = -np.inf
        batches.append(batch)
    return batches


class TestRankErrorAfterMergeChain:
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["continuous", "ties", "constant", "non_finite"]),
           epsilon=st.sampled_from([0.01, 0.05]),
           base_rows=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_summary_answers_every_rank_within_epsilon_n(
            self, seed, shape, epsilon, base_rows):
        """The ingest path in miniature: a base build, then 200 copy-and-
        merge steps of small partials.  Afterwards the summary is still an
        ε-approximate one — every stored value's true rank lies inside the
        ``[min_rank, max_rank]`` the summary claims for it, no claim is
        wider than ``2·ε·n``, and so every rank has a stored value within
        ``ε·n`` of it."""
        batches = _chain_batches(seed, shape)
        base = np.random.default_rng(seed + 1).normal(size=base_rows)
        sketch = QuantileSketch(epsilon)
        sketch.update_array(base)
        for batch in batches:
            partial = QuantileSketch(epsilon)
            partial.update_array(batch)
            merged = sketch.copy()
            merged.merge(partial)
            sketch = merged
        data = np.sort(np.concatenate([base, *batches]))
        data = data[~np.isnan(data)]
        n = int(data.size)
        assert sketch.count == n
        assert sketch.n_tuples <= 12 / epsilon  # still a summary

        min_rank = np.cumsum(sketch._g)
        max_rank = min_rank + sketch._delta
        # A stored value is one occurrence of itself: with ties its true
        # rank is anywhere from the first to the last equal value.
        first = np.searchsorted(data, sketch._value, side="left") + 1
        last = np.searchsorted(data, sketch._value, side="right")
        assert np.all(min_rank <= last) and np.all(first <= max_rank)
        assert np.all(sketch._g + sketch._delta <= max(2 * epsilon * n, 1))

        for target in np.linspace(1, n, 41):
            miss = np.maximum(target - min_rank, max_rank - target)
            best = int(miss.argmin())
            assert miss[best] <= epsilon * n + 1
            assert first[best] - epsilon * n - 1 <= target <= last[best] + epsilon * n + 1

        # quantile() takes the first stored value whose claimed ranks come
        # within ε·n of the target, so it adds its own ε·n margin and up
        # to one claim's width on top.
        for q in (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            if epsilon * n < 1:
                break
            estimate = sketch.quantile(q)
            target = q * (n - 1) + 1
            low = np.searchsorted(data, estimate, side="left") + 1
            high = np.searchsorted(data, estimate, side="right")
            assert low - 3 * epsilon * n - 1 <= target <= high + 3 * epsilon * n + 1


# ---------------------------------------------------------------------------
# Count-fed builds
# ---------------------------------------------------------------------------
LABELS = [f"label-{i}" for i in range(40)]
#: ``(value, count)`` pairs over distinct values, in feeding order.
value_counts = st.lists(
    st.tuples(st.sampled_from(LABELS), st.integers(1, 300)),
    min_size=1, max_size=len(LABELS), unique_by=lambda pair: pair[0],
)


def _grouped_stream(pairs):
    return [value for value, count in pairs for _ in range(count)]


def _sketch_state(sketch):
    if isinstance(sketch, QuantileSketch):
        return _state(sketch)
    if isinstance(sketch, MomentSketch):
        return sorted(vars(sketch._moments).items())
    if isinstance(sketch, CountMinSketch):
        return sketch._table.tolist(), sketch.count
    if isinstance(sketch, MisraGriesSketch):
        return list(sketch._counters.items()), sketch.count
    if isinstance(sketch, SpaceSavingSketch):
        return list(sketch._counts.items()), list(sketch._errors.items()), sketch.count
    return (_sketch_state(sketch._head), sorted(sketch._distinct_tracker),
            sketch.count)


MAKERS = {
    "countmin": lambda capacity: CountMinSketch(width=64, depth=4, seed=3),
    "misra_gries": lambda capacity: MisraGriesSketch(capacity=capacity),
    "space_saving": lambda capacity: SpaceSavingSketch(capacity=capacity),
    "entropy": lambda capacity: EntropySketch(capacity=max(capacity, 2), seed=3),
}


class TestCountFedBuilds:
    @given(pairs=value_counts, capacity=st.sampled_from([2, 5, 16, 64]),
           kind=st.sampled_from(sorted(MAKERS)))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_row_build_of_the_grouped_stream(self, pairs, capacity, kind):
        """A weighted update is ``count`` single updates in a row, exactly
        — dictionary order included — at any capacity."""
        fed, per_row = MAKERS[kind](capacity), MAKERS[kind](capacity)
        fed.update_counts(*zip(*pairs))
        per_row.update_many(_grouped_stream(pairs))
        assert _sketch_state(fed) == _sketch_state(per_row)

    @given(pairs=value_counts, kind=st.sampled_from(sorted(MAKERS)),
           seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_equals_per_row_build_in_any_order_within_capacity(self, pairs, kind, seed):
        """With every distinct value tracked, row order does not matter:
        the count-fed build answers what a build over the shuffled rows
        answers."""
        fed, per_row = MAKERS[kind](64), MAKERS[kind](64)
        fed.update_counts(*zip(*pairs))
        rows = _grouped_stream(pairs)
        np.random.default_rng(seed).shuffle(rows)
        per_row.update_many(rows)
        assert fed.count == per_row.count == len(rows)
        if kind == "entropy":
            assert fed.estimate_entropy() == per_row.estimate_entropy()
            assert fed.distinct_estimate() == per_row.distinct_estimate()
        else:
            for value, _ in pairs:
                assert fed.estimate(value) == per_row.estimate(value)

    @given(pairs=value_counts, capacity=st.sampled_from([1, 2, 5, 16]))
    @settings(max_examples=100, deadline=None)
    def test_misra_gries_bound_above_capacity(self, pairs, capacity):
        sketch = MisraGriesSketch(capacity=capacity)
        sketch.update_counts(*zip(*pairs))
        n = sum(count for _, count in pairs)
        assert sketch.count == n
        assert len(sketch._counters) <= capacity
        for value, count in pairs:
            assert count - n / capacity <= sketch.estimate(value) <= count

    @given(pairs=value_counts, capacity=st.sampled_from([1, 2, 5, 16]))
    @settings(max_examples=100, deadline=None)
    def test_space_saving_bound_above_capacity(self, pairs, capacity):
        sketch = SpaceSavingSketch(capacity=capacity)
        sketch.update_counts(*zip(*pairs))
        n = sum(count for _, count in pairs)
        assert sketch.count == n
        assert len(sketch._counts) <= capacity
        for value, count in pairs:
            if value in sketch._counts:
                assert count <= sketch.estimate(value) <= count + n / capacity
                assert sketch.guaranteed_count(value) <= count
            else:
                assert count <= n / capacity  # heavy values are never dropped

    @given(pairs=value_counts)
    @settings(max_examples=100, deadline=None)
    def test_count_min_never_under_and_at_most_epsilon_n_over(self, pairs):
        sketch = CountMinSketch.from_error_bounds(epsilon=0.02, delta=0.01, seed=5)
        sketch.update_counts(*zip(*pairs))
        n = sum(count for _, count in pairs)
        assert sketch.count == n
        assert sketch.error_bound() <= 0.02 * n
        truth = dict(pairs)
        for value in LABELS:
            estimate = sketch.estimate(value)
            assert truth.get(value, 0) <= estimate <= truth.get(value, 0) + 0.02 * n


# ---------------------------------------------------------------------------
# copy()
# ---------------------------------------------------------------------------
COPYABLE = {
    **MAKERS,
    "quantile": lambda capacity: QuantileSketch(0.05),
    "moments": lambda capacity: MomentSketch(),
}


class TestCopy:
    @given(kind=st.sampled_from(sorted(COPYABLE)),
           rows=st.lists(st.integers(0, 30), min_size=1, max_size=200),
           more=st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_copy_is_equal_and_independent(self, kind, rows, more):
        """A copy starts out state for state equal, and nothing done to it
        afterwards — single updates, a merge — reaches the original."""
        numeric = kind in ("quantile", "moments")
        convert = float if numeric else LABELS.__getitem__
        original, other = COPYABLE[kind](4), COPYABLE[kind](4)
        original.update_many(convert(row) for row in rows)
        other.update_many(convert(row) for row in more)
        before = _sketch_state(original)
        clone = original.copy()
        assert type(clone) is type(original)
        assert _sketch_state(clone) == before
        clone.update_many(convert(row) for row in more)
        clone.merge(other)
        assert _sketch_state(clone) != before
        assert _sketch_state(original) == before
