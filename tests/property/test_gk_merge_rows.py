"""Every pair's GK merge in one pass equals the pair-at-a-time merge.

``QuantileSketch.merge_rows(lefts, rights)`` merges the summaries of many
columns at once: one ``searchsorted`` per side over ``column + 1j*value``
keys places every tuple and finds its next tuple on the other side, one
vectorised test picks the compress candidates, and only the banding walk
is a Python loop.  :func:`pairwise_merge` below is the per-pair merge it
replaced, kept as the oracle: over generated summaries — empty ones and
ones of fewer than three tuples, heavy ties within and across sides,
equal values at the extremes, two epsilons, 1–30 columns and chains of
50+ merges — every result must equal the oracle's tuple for tuple.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SketchMergeError
from repro.sketch.quantile import QuantileSketch

_NO_SPAN = np.zeros(1, dtype=np.int64)


def _span_above(sketch: QuantileSketch, values: np.ndarray, side: str) -> np.ndarray:
    span = np.concatenate((sketch._g + sketch._delta - 1, _NO_SPAN))
    return span[sketch._value.searchsorted(values, side)]


def pairwise_merge(left: QuantileSketch, right: QuantileSketch) -> QuantileSketch:
    """The per-pair GK merge: stable interleave (ties keep the left tuples
    first), each delta widened by the other side's next ``g + delta - 1``,
    then the greedy compress against ``2*epsilon*n``."""
    value = np.concatenate((left._value, right._value))
    order = value.argsort(kind="stable")
    delta = np.concatenate((
        left._delta + _span_above(right, left._value, "left"),
        right._delta + _span_above(left, right._value, "right"),
    ))[order]
    g = np.concatenate((left._g, right._g))[order]
    value = value[order]
    count = left._count + right._count
    threshold = 2.0 * left.epsilon * count
    if value.size >= 3:
        span = g[2:-1] + delta[2:-1]
        span += g[1:-2]
        candidates = (span <= threshold).nonzero()[0] + 2
        walked, absorbed = g.tolist(), []
        for index in candidates.tolist():
            total = walked[index - 1] + walked[index]
            if total + delta[index] <= threshold:
                walked[index] = total
                absorbed.append(index - 1)
        if absorbed:
            keep = np.ones(value.size, dtype=bool)
            keep[absorbed] = False
            value, delta = value[keep], delta[keep]
            g = np.array(walked, dtype=np.int64)[keep]
    return left._clone(_value=value, _g=g, _delta=delta, _count=count)


def _state(sketch: QuantileSketch):
    return (sketch._value.tolist(), sketch._g.tolist(), sketch._delta.tolist(),
            sketch._count, sketch._g.dtype, sketch._delta.dtype)


@st.composite
def summaries(draw, epsilon: float) -> QuantileSketch:
    """A summary built the ways the store builds them: a batch, a stream of
    single updates, or empty; values from a pool small enough to tie."""
    pool = draw(st.sampled_from(("ties", "few", "wide")))
    if pool == "ties":
        values = st.sampled_from([0.0, 1.0, 1.0, 1.0, 2.0])
    elif pool == "few":
        values = st.sampled_from([-3.0, 0.0, 0.5, 7.0])
    else:
        values = st.floats(-1e6, 1e6, width=64)
    cells = draw(st.lists(values, max_size=draw(st.sampled_from([0, 1, 2, 5, 40, 300]))))
    sketch = QuantileSketch(epsilon)
    if draw(st.booleans()):
        sketch.update_array(np.array(cells, dtype=np.float64))
    else:
        for cell in cells:
            sketch.update(cell)
    return sketch


@settings(max_examples=60, deadline=None)
@given(data=st.data(), epsilon=st.sampled_from([0.01, 0.05]),
       columns=st.integers(1, 30), steps=st.integers(1, 8))
def test_merge_rows_equals_the_pairwise_merge(data, epsilon, columns, steps):
    lefts = [data.draw(summaries(epsilon)) for _ in range(columns)]
    oracle = list(lefts)
    for _ in range(steps):
        rights = [data.draw(summaries(epsilon)) for _ in range(columns)]
        lefts = QuantileSketch.merge_rows(lefts, rights)
        oracle = [pairwise_merge(a, b) for a, b in zip(oracle, rights)]
        assert [_state(s) for s in lefts] == [_state(s) for s in oracle]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), epsilon=st.sampled_from([0.01, 0.05]),
       columns=st.integers(1, 30))
def test_a_chain_of_merges_equals_the_pairwise_chain(seed, epsilon, columns):
    """50+ merges of small deltas into grown summaries (the append path),
    with the extremes repeated so equal values sit at both ends."""
    rng = np.random.default_rng(seed)
    lefts = []
    for column in range(columns):
        sketch = QuantileSketch(epsilon)
        sketch.update_array(np.round(rng.normal(size=int(rng.integers(0, 400))), 1))
        lefts.append(sketch)
    oracle = list(lefts)
    for _ in range(55):
        rights = []
        for column in range(columns):
            sketch = QuantileSketch(epsilon)
            values = np.round(rng.normal(size=int(rng.integers(0, 20))), 1)
            if lefts[column].n_tuples and values.size:
                values[0] = lefts[column]._value[0]
                values[-1] = lefts[column]._value[-1]
            sketch.update_array(values)
            rights.append(sketch)
        lefts = QuantileSketch.merge_rows(lefts, rights)
        oracle = [pairwise_merge(a, b) for a, b in zip(oracle, rights)]
    assert [_state(s) for s in lefts] == [_state(s) for s in oracle]


def test_merge_and_merged_are_one_row_of_merge_rows():
    rng = np.random.default_rng(4)
    left, right = QuantileSketch(0.01), QuantileSketch(0.01)
    left.update_array(rng.normal(size=900))
    right.update_array(rng.normal(size=300))
    expected = _state(pairwise_merge(left, right))
    assert _state(left.merged(right)) == expected
    left.merge(right)
    assert _state(left) == expected


def test_merge_rows_touches_neither_input():
    rng = np.random.default_rng(5)
    lefts, rights = [], []
    for _ in range(3):
        for side in (lefts, rights):
            sketch = QuantileSketch(0.05)
            sketch.update_array(rng.normal(size=200))
            side.append(sketch)
    before = [_state(s) for s in lefts + rights]
    QuantileSketch.merge_rows(lefts, rights)
    assert [_state(s) for s in lefts + rights] == before


def test_mixed_epsilon_still_raises():
    left, right = QuantileSketch(0.01), QuantileSketch(0.05)
    with pytest.raises(SketchMergeError):
        QuantileSketch.merge_rows([QuantileSketch(0.01), left], [QuantileSketch(0.01), right])
    with pytest.raises(SketchMergeError):
        left.merge(right)
    assert math.isclose(left.epsilon, 0.01) and left.count == 0
