"""Property tests for the whole-class scoring kernels.

Five insight classes score on per-column arrays instead of per-tuple
Python loops (:mod:`repro.sketch.features`, the array functions of
:mod:`repro.stats`).  Over generated mixed tables — NaNs, missing labels,
constant columns, heavy ties, a single-level categorical, fewer than five
rows — and in both modes:

* **the ``score_all`` contract holds bit for bit**, for every class in
  ``default_registry()`` (the insight index gathers memoised scores on
  it): a candidate's value does not depend on its batch
  (``score_all(a + b) == score_all(a) + score_all(b)``) and
  ``score_all([t]) == [score(t)]``;
* **every value is the statistic it claims to be**: within 1e-9 of a
  plain per-tuple reference written here (the loops the kernels replaced)
  or of scipy's ``spearmanr`` / ``chi2_contingency`` / ``kstest``;
  sketch-mode Pearson (``linear_relationship``, read from the store's
  co-moment sums) is held to the full table's reference, not the
  sample's;
* average ranks equal ``scipy.stats.rankdata(method="average")`` exactly;
* the numpy ``ndtr`` is within 4 ULP of ``scipy.special.ndtr``, and the
  normality kernel's KS distance, skewness and kurtosis are within 1e-12
  of ``scipy.stats.kstest`` / ``skew`` / ``kurtosis``;
* the multimodality kernel's modes (locations, heights, hence score,
  ``n_modes`` and ``mode_locations``) are bit for bit those of the
  per-column ``np.histogram`` peak count it replaced, and its bimodality
  coefficient is within 1e-12 of that column's; a request calls it once
  per row block and never per column.
"""

from __future__ import annotations

import math
import struct
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro import default_registry
from repro.core.insight import MODE_APPROXIMATE, MODE_EXACT, EvaluationContext
from repro.data import CategoricalColumn, ColumnKind, DataTable, Field, NumericColumn
from repro.sketch.features import TableFeatures
from repro.sketch.store import SketchStore, SketchStoreConfig
from repro.stats import multimodality
from repro.stats.correlation import average_ranks, standardize
from repro.stats.histogram import auto_bin_count, histogram_counts
from repro.stats.multimodality import multimodality_rows
from repro.stats.normality import ndtr, normality_rows

NUMERIC = ("n0", "n1", "n2")
CATEGORICAL = ("c0", "c1", "c2")
TOLERANCE = 1e-9
REGISTRY = default_registry()


# ---------------------------------------------------------------------------
# Generated tables
# ---------------------------------------------------------------------------
@st.composite
def numeric_values(draw, n_rows: int) -> np.ndarray:
    """One numeric column: continuous, heavily tied or constant, with
    holes.  Values are small binary fractions, so a constant column's
    mean is exact and its standard deviation exactly 0."""
    shape = draw(st.sampled_from(("continuous", "ties", "constant")))
    if shape == "continuous":
        cells = st.integers(-10**6, 10**6).map(lambda k: k / 64.0)
    elif shape == "ties":
        cells = st.integers(0, 3).map(float)
    else:
        cells = st.just(float(draw(st.integers(-5, 5))))
    values = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    holes = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        values[np.array(holes, dtype=bool)] = np.nan
    return values


@st.composite
def categorical_codes(draw, n_rows: int) -> tuple[np.ndarray, int]:
    """One categorical column's codes (-1 = missing) and level count;
    one level in four draws is the single-level case."""
    n_levels = draw(st.sampled_from((1, 2, 3, 4)))
    lowest = -1 if draw(st.booleans()) else 0
    codes = draw(st.lists(st.integers(lowest, n_levels - 1),
                          min_size=n_rows, max_size=n_rows))
    return np.array(codes, dtype=np.int64), n_levels


@st.composite
def mixed_tables(draw) -> DataTable:
    n_rows = draw(st.one_of(st.integers(1, 4), st.integers(5, 40)))
    columns = [
        NumericColumn(Field(name, ColumnKind.NUMERIC), draw(numeric_values(n_rows)))
        for name in NUMERIC
    ]
    for name in CATEGORICAL:
        codes, n_levels = draw(categorical_codes(n_rows))
        columns.append(CategoricalColumn(
            Field(name, ColumnKind.CATEGORICAL), codes,
            [f"level{k}" for k in range(n_levels)]))
    return DataTable(columns, name="generated")


def _contexts(table: DataTable, sample_capacity: int):
    """``(mode, context, the table that mode scores on)`` for both modes."""
    store = SketchStore(table, SketchStoreConfig(sample_capacity=sample_capacity))
    yield MODE_EXACT, EvaluationContext(table, store, MODE_EXACT), table
    yield (MODE_APPROXIMATE, EvaluationContext(table, store, MODE_APPROXIMATE),
           store.sample_table())


_PAIRS = [(a, b) for i, a in enumerate(NUMERIC) for b in NUMERIC[i + 1:]]
CANDIDATES = {
    "linear_relationship": _PAIRS + [(b, a) for a, b in _PAIRS],
    "monotonic_relationship": _PAIRS + [(b, a) for a, b in _PAIRS],
    "dependence": (
        [(a, b) for i, a in enumerate(CATEGORICAL) for b in CATEGORICAL[i + 1:]]
        + [(c, x) for c in CATEGORICAL for x in NUMERIC]
        + [(NUMERIC[0], CATEGORICAL[0])]
    ),
    "segmentation": [(x, y, z) for x, y in _PAIRS for z in CATEGORICAL],
    "normality": [(x,) for x in NUMERIC],
    "multimodality": [(x,) for x in NUMERIC],
}


# ---------------------------------------------------------------------------
# Plain references: one tuple at a time, one row at a time
# ---------------------------------------------------------------------------
def _numeric(table: DataTable, name: str) -> list[float | None]:
    column = table.numeric_column(name)
    return [None if missing else float(value)
            for value, missing in zip(column.values, column.mask)]


def _complete(*columns: list) -> list[tuple]:
    return [row for row in zip(*columns) if None not in row]


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _sum_sq(values: list[float]) -> float:
    mean = _mean(values)
    return math.fsum((v - mean) ** 2 for v in values)


def _reference_linear(table: DataTable, attributes) -> float | None:
    rows = _complete(_numeric(table, attributes[0]), _numeric(table, attributes[1]))
    if len(rows) < 2:
        return None
    x, y = (list(side) for side in zip(*rows))
    if len(set(x)) == 1 or len(set(y)) == 1:
        return 0.0
    mean_x, mean_y = _mean(x), _mean(y)
    cross = math.fsum((a - mean_x) * (b - mean_y) for a, b in rows)
    return min(abs(cross) / math.sqrt(_sum_sq(x) * _sum_sq(y)), 1.0)


def _reference_monotonic(table: DataTable, attributes) -> float | None:
    rows = _complete(_numeric(table, attributes[0]), _numeric(table, attributes[1]))
    if len(rows) < 5:
        return None
    x, y = (np.array(side) for side in zip(*rows))
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spearman = float(scipy_stats.spearmanr(x, y).statistic)
        pearson = float(scipy_stats.pearsonr(x, y).statistic)
    return 0.0 if abs(spearman) < 1e-12 else max(abs(spearman) - abs(pearson), 0.0)


def _eta_squared_parts(values: list[float], labels: list) -> tuple[float, float]:
    """Between-group and total sums of squares, group by group."""
    overall = _mean(values)
    groups: dict[object, list[float]] = {}
    for value, label in zip(values, labels):
        groups.setdefault(label, []).append(value)
    between = math.fsum(len(members) * (_mean(members) - overall) ** 2
                        for members in groups.values())
    return between, _sum_sq(values)


def _reference_dependence(table: DataTable, attributes) -> float | None:
    first, second = attributes
    if first in NUMERIC:
        first, second = second, first
    labels = table.categorical_column(first).labels()
    if second in CATEGORICAL:
        rows = _complete(labels, table.categorical_column(second).labels())
        if not rows:
            return None
        counts = Counter(rows)
        xs = sorted({a for a, _ in rows})
        ys = sorted({b for _, b in rows})
        k = min(len(xs), len(ys)) - 1
        if k <= 0:
            return 0.0
        observed = [[counts[(a, b)] for b in ys] for a in xs]
        chi2 = scipy_stats.chi2_contingency(observed, correction=False).statistic
        return math.sqrt(chi2 / (len(rows) * k))
    rows = _complete(labels, _numeric(table, second))
    if len(rows) < 2:
        return None
    between, total = _eta_squared_parts([v for _, v in rows], [g for g, _ in rows])
    return 0.0 if total == 0 else min(max(between / total, 0.0), 1.0)


def _reference_segmentation(table: DataTable, attributes) -> float | None:
    x_name, y_name, z_name = attributes
    rows = _complete(_numeric(table, x_name), _numeric(table, y_name),
                     table.categorical_column(z_name).labels())
    if len(rows) < 4:
        return None
    labels = [row[2] for row in rows]
    between = total = 0.0
    for axis in (0, 1):
        values = [row[axis] for row in rows]
        scale = math.sqrt(_sum_sq(values) / len(values))
        if scale == 0:
            continue  # a constant axis standardises to zeros: no scatter
        part = _eta_squared_parts([v / scale for v in values], labels)
        between, total = between + part[0], total + part[1]
    if total == 0 or len(set(labels)) < 2:
        return 0.0
    return min(max(between / total, 0.0), 1.0)


def _valid(table: DataTable, name: str) -> np.ndarray:
    return np.array([v for v in _numeric(table, name) if v is not None])


def _reference_normality(table: DataTable, attributes) -> float | None:
    x = _valid(table, attributes[0])
    if x.size < 8:
        return None
    if np.ptp(x) == 0:
        distance, skew, excess = 1.0, 0.0, -3.0
    else:
        distance = scipy_stats.kstest(x, "norm", args=(x.mean(), x.std())).statistic
        skew = float(scipy_stats.skew(x))
        excess = float(scipy_stats.kurtosis(x))
    shape = 1.0 - 0.5 * (min(abs(skew) / 2.0, 1.0) + min(abs(excess) / 6.0, 1.0))
    normal = 0.5 * max(0.0, 1.0 - 2.0 * distance) + 0.5 * shape
    return 1.0 - max(0.0, min(1.0, normal))


def _smooth(counts: np.ndarray, passes: int = 2) -> np.ndarray:
    """1-2-1 smoothing of histogram counts, edge-padded, as float
    convolutions."""
    smoothed = counts.astype(np.float64)
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0
    for _ in range(passes):
        padded = np.pad(smoothed, 1, mode="edge")
        smoothed = np.convolve(padded, kernel, mode="valid")
    return smoothed


def _reference_multimodality(table: DataTable, attributes) -> float | None:
    """Peak counting bin by bin, as ``find_modes`` did before it compared
    whole arrays."""
    x = _valid(table, attributes[0])
    if x.size < 5:
        return None
    if np.ptp(x) == 0:
        return 0.0
    smoothed = _smooth(histogram_counts(x)[0]).tolist()
    heights = []
    for i, height in enumerate(smoothed):
        left = smoothed[i - 1] if i > 0 else -math.inf
        right = smoothed[i + 1] if i < len(smoothed) - 1 else -math.inf
        if height > left and height >= right and height > 0:
            heights.append(height)
    heights = sorted((h for h in heights if h >= 0.1 * max(heights)), reverse=True)
    if len(heights) < 2:
        return 0.0
    return min(1.0, 0.7 * heights[1] / heights[0]
               + 0.3 * min(len(heights) - 1, 3) / 3.0)


REFERENCES = {
    "linear_relationship": _reference_linear,
    "monotonic_relationship": _reference_monotonic,
    "dependence": _reference_dependence,
    "segmentation": _reference_segmentation,
    "normality": _reference_normality,
    "multimodality": _reference_multimodality,
}


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------
def _bits(scored) -> list[tuple]:
    """Scored candidates with the score as its eight bytes."""
    return [(c.attributes, struct.pack("<d", c.score), sorted(c.details.items()))
            for c in scored]


@settings(max_examples=60, deadline=None)
@given(table=mixed_tables(), sample_capacity=st.sampled_from((6, 2000)),
       cut=st.integers(0, 18))
def test_a_candidates_value_does_not_depend_on_its_batch(table, sample_capacity, cut):
    for _mode, context, _scored_on in _contexts(table, sample_capacity):
        for name in REGISTRY.names():
            insight_class = REGISTRY.get(name)
            own = list(insight_class.candidates(table))
            candidates = own + [attrs for attrs in CANDIDATES.get(name, ())
                                if attrs not in own]
            whole = insight_class.score_all(candidates, context)
            head, tail = candidates[:cut], candidates[cut:]
            assert _bits(whole) == _bits(
                insight_class.score_all(head, context)
                + insight_class.score_all(tail, context)), name
            one_by_one = [insight_class.score(attrs, context) for attrs in candidates]
            assert _bits(whole) == _bits(c for c in one_by_one if c is not None), name
            for attributes, alone in zip(candidates, one_by_one):
                assert _bits(insight_class.score_all([attributes], context)) == _bits(
                    [] if alone is None else [alone]), (name, attributes)


@settings(max_examples=60, deadline=None)
@given(table=mixed_tables(), sample_capacity=st.sampled_from((6, 2000)))
def test_every_value_is_within_1e_9_of_its_plain_reference(table, sample_capacity):
    for mode, context, scored_on in _contexts(table, sample_capacity):
        for name, candidates in CANDIDATES.items():
            scored = {c.attributes: c.score
                      for c in REGISTRY.get(name).score_all(candidates, context)}
            # Pearson reads the whole table's co-moment sums in sketch mode.
            on = table if name == "linear_relationship" else scored_on
            for attributes in candidates:
                expected = REFERENCES[name](on, attributes)
                got = scored.get(attributes)
                if expected is None:
                    assert got is None, (mode, name, attributes, got)
                else:
                    assert got is not None, (mode, name, attributes, expected)
                    assert abs(got - expected) <= TOLERANCE, (
                        mode, name, attributes, got, expected)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.one_of(st.integers(0, 4).map(float),
              st.floats(allow_nan=False, allow_infinity=False, width=32)),
    max_size=60))
def test_average_ranks_are_scipys_exactly(values):
    x = np.array(values, dtype=np.float64)
    assert average_ranks(x).tolist() == scipy_stats.rankdata(
        x, method="average").tolist()


def _stable_average_ranks(values: np.ndarray) -> np.ndarray:
    """``average_ranks`` on a stable sort, whatever the input holds."""
    n = values.size
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    last = np.concatenate((first[1:], [n]))
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last - 1) + 1.0, last - first)
    return ranks


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    st.lists(st.sampled_from((-1.5, -0.0, 0.0, 0.25, 2.0, 7.0)),
             min_size=0, max_size=400),
    min_size=1, max_size=4),
    nan_at=st.lists(st.integers(0, 399), max_size=3))
def test_average_ranks_do_not_depend_on_the_sort_kind(rows, nan_at):
    """Rows of a few distinct values (±0.0 among them) in long tie runs —
    where an unstable sort reorders ties — rank bit for bit as under the
    stable sort, and so do rows holding a NaN (kept on the stable sort)."""
    for row in rows:
        x = np.array(row, dtype=np.float64)
        for position in nan_at:
            if position < x.size:
                x[position] = np.nan
        got, want = average_ranks(x), _stable_average_ranks(x)
        assert got.tobytes() == want.tobytes()


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between non-negative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(-38.0, 38.0), min_size=1, max_size=64))
def test_ndtr_is_within_4_ulp_of_scipys(values):
    x = np.array(values, dtype=np.float64)
    assert _ulps(ndtr(x), scipy_special.ndtr(x)).max() <= 4


def test_ndtr_is_exact_at_the_special_values():
    x = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
    got = ndtr(x)
    assert got[:4].tolist() == [1.0, 0.0, 0.5, 0.5]
    assert np.isnan(got[4])
    assert _ulps(got[:4], scipy_special.ndtr(x[:4])).max() == 0
    assert ndtr(x.reshape(1, 5)).shape == (1, 5)


@st.composite
def numeric_tables(draw) -> DataTable:
    """Numeric columns only, around the 8-value floor: 7 and 8 rows are
    drawn as often as the rest, and holes move a column across it."""
    n_rows = draw(st.one_of(st.sampled_from((7, 8)), st.integers(1, 60)))
    return DataTable([
        NumericColumn(Field(name, ColumnKind.NUMERIC), draw(numeric_values(n_rows)))
        for name in NUMERIC
    ], name="generated")


@settings(max_examples=150, deadline=None)
@given(table=numeric_tables())
def test_normality_rows_are_scipys_kstest_skew_and_kurtosis(table):
    # The complete columns as one block, as the insight class gathers
    # them; a holey column alone, over its own values.
    features = TableFeatures(table)
    complete = [name for name in NUMERIC if name in features.complete]
    got = dict(zip(complete, normality_rows(
        features.standardized[features.numeric_rows(complete)])))
    for name in NUMERIC:
        x = _valid(table, name)
        if name not in got and x.size:
            (got[name],) = normality_rows(standardize(x[np.newaxis, :]))
        result = got.get(name)
        if x.size < 8:
            assert result is None, (name, x)
            continue
        if np.ptp(x) == 0:
            expected = (1.0, 0.0, -3.0)
        else:
            expected = (
                scipy_stats.kstest(x, "norm", args=(x.mean(), x.std())).statistic,
                scipy_stats.skew(x), scipy_stats.kurtosis(x))
        assert result.n_values == x.size
        got_values = (result.ks_statistic, result.skewness, result.excess_kurtosis)
        for value, reference in zip(got_values, expected):
            assert abs(value - reference) <= 1e-12, (name, got_values, expected)


# ---------------------------------------------------------------------------
# The multimodality kernel against the per-column peak count it replaced
# ---------------------------------------------------------------------------
def _reference_modes(x: np.ndarray, bins: int | None = None):
    """``find_modes`` and ``bimodality_coefficient`` as they ran per column
    before the kernel: the modes as ``(location, height)``, tallest first,
    and Sarle's coefficient."""
    if np.unique(x).size == 1:
        modes = [(float(x[0]), 1.0)]
    else:
        counts, edges = histogram_counts(x, bins=bins)
        smoothed = _smooth(counts)
        centers = 0.5 * (edges[:-1] + edges[1:])
        left = np.concatenate(([-np.inf], smoothed[:-1]))
        right = np.concatenate((smoothed[1:], [-np.inf]))
        found = np.flatnonzero((smoothed > left) & (smoothed >= right) & (smoothed > 0))
        if found.size == 0:
            found = np.array([int(np.argmax(smoothed))])
        peaks = [(float(centers[i]), float(smoothed[i])) for i in found]
        tallest = max(height for _location, height in peaks)
        modes = sorted((p for p in peaks if p[1] >= 0.1 * tallest),
                       key=lambda p: -p[1])
    n, sigma = x.size, np.std(x)
    if sigma == 0.0:
        return modes, 0.0
    centered = x - np.mean(x)
    skew = float(np.mean(centered**3) / sigma**3)
    kurt = float(np.mean(centered**4) / sigma**4)
    denominator = kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return modes, 0.0 if denominator == 0.0 else (skew**2 + 1.0) / denominator


def _assert_is_the_reference(result, x: np.ndarray, bins: int | None = None) -> None:
    modes, coefficient = _reference_modes(x, bins)
    assert [(_double(m.location), _double(m.height)) for m in result.modes] == [
        (_double(location), _double(height)) for location, height in modes], x
    strength = 0.0 if len(modes) < 2 else min(
        1.0, 0.7 * (modes[1][1] / modes[0][1]) + 0.3 * min(len(modes) - 1, 3) / 3.0)
    assert _double(result.strength) == _double(strength), x
    assert abs(result.bimodality_coefficient - coefficient) <= 1e-12, (
        result.bimodality_coefficient, coefficient)


def _double(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def modality_values(draw, n_rows: int) -> np.ndarray:
    """One column for the mode count: continuous, heavily tied, two
    distinct values, heavy-tailed or constant, perhaps with holes."""
    shape = draw(st.sampled_from(("continuous", "ties", "two", "heavy", "constant")))
    if shape == "continuous":
        cells = st.integers(-10**6, 10**6).map(lambda k: k / 64.0)
    elif shape == "ties":
        cells = st.integers(0, 3).map(float)
    elif shape == "two":
        cells = st.sampled_from(sorted({draw(st.integers(-9, 9)) / 4.0
                                        for _ in range(2)}) * 2)
    elif shape == "heavy":
        cells = st.one_of(st.integers(-64, 64).map(lambda k: k / 64.0),
                          st.sampled_from((-1e9, 1e9, 3e7)))
    else:
        cells = st.just(float(draw(st.integers(-5, 5))))
    values = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    holes = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        values[np.array(holes, dtype=bool)] = np.nan
    return values


@st.composite
def modality_tables(draw) -> DataTable:
    """Numeric columns around the 5-value floor: 4, 5 and 6 rows are drawn
    as often as the rest."""
    n_rows = draw(st.one_of(st.sampled_from((4, 5, 6)), st.integers(1, 80)))
    return DataTable([
        NumericColumn(Field(name, ColumnKind.NUMERIC), draw(modality_values(n_rows)))
        for name in NUMERIC
    ], name="generated")


@settings(max_examples=200, deadline=None)
@given(table=modality_tables())
def test_multimodality_rows_are_the_per_column_peak_count(table):
    # The complete columns as one block, as the insight class gathers
    # them; a holey column alone, over its own values.
    features = TableFeatures(table)
    complete = [name for name in NUMERIC if name in features.complete]
    got = dict(zip(complete, multimodality_rows(
        features.filled[features.numeric_rows(complete)])))
    for name in NUMERIC:
        x = _valid(table, name)
        if name not in got:
            (got[name],) = multimodality_rows(x.reshape(1, -1))
        if x.size < 5:
            assert got[name] is None, (name, x)
        else:
            _assert_is_the_reference(got[name], x)


@settings(max_examples=100, deadline=None)
@given(table=modality_tables(), bins=st.sampled_from((1, 2, 3, 100)))
def test_a_fixed_bin_count_is_np_histograms(table, bins):
    for name in NUMERIC:
        x = _valid(table, name)
        if x.size >= 5:
            (result,) = multimodality_rows(x.reshape(1, -1), bins=bins)
            _assert_is_the_reference(result, x, bins)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


_HEAVY = np.random.default_rng(3).standard_cauchy(2000)
#: Columns that reach each branch of the bin rule, named by it.
_BIN_RULE_CASES = {
    "one bin": (_column([0.0, 0.0, 0.5, 1.0, 1.0]), 1),
    "the cap": (_HEAVY, 100),
    "scott, IQR 0": (_column([1.0] * 40 + [0.0, 2.0, 9.0]), None),
    "two values, five rows": (_column([2.0, 2.0, 2.0, 7.0, 7.0]), None),
    "a mixture": (np.concatenate([np.random.default_rng(4).normal(-4, 1, 1000),
                                  np.random.default_rng(5).normal(4, 1, 1000)]), None),
}


def test_the_bin_rule_branches_are_the_reference():
    block = np.array([x for x, _bins in _BIN_RULE_CASES.values() if x.size == 2000])
    rows = multimodality_rows(block)
    assert len(rows) == 2
    for label, (x, bins) in _BIN_RULE_CASES.items():
        if bins is not None:
            assert auto_bin_count(x) == bins, label
        (alone,) = multimodality_rows(x.reshape(1, -1))
        _assert_is_the_reference(alone, x)
    for result, x in zip(rows, block):
        _assert_is_the_reference(result, x)


def _off_by_one(first: float, last: float, bins: int, value: float) -> int:
    """The bin np.histogram's scaled index gives ``value``, before its
    correction against the edges."""
    return int(((value - first) / (last - first)) * bins)


def test_both_edge_corrections_of_np_histogram_are_reproduced():
    # An edge the scaled index puts one bin low (np.histogram moves it
    # up), and a value just below an edge it puts one bin high (moved
    # down): without either correction the counts differ.
    edges = np.linspace(-4.6, -4.09, 11)
    up = _column([-4.6, edges[3], edges[3], edges[3], -4.09])
    assert _off_by_one(-4.6, -4.09, 10, edges[3]) == 2
    first, last = -9.67, -9.67 + 8.15
    below = np.nextafter(np.linspace(first, last, 9)[6], -np.inf)
    down = _column([first, below, below, below, last])
    assert _off_by_one(first, last, 8, below) == 6
    for x, bins, bin_of_the_three in ((up, 10, 3), (down, 8, 5)):
        assert histogram_counts(x, bins=bins)[0][bin_of_the_three] == 3
        (result,) = multimodality_rows(x.reshape(1, -1), bins=bins)
        _assert_is_the_reference(result, x, bins)


def test_degenerate_ranges_fail_as_np_histogram_does():
    for x in (_column([0.0, 0.0, 0.0, 0.0, 5e-324]),    # the edges collapse
              _column([1.0, 2.0, 3.0, 4.0, np.inf])):   # an infinite range
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            histogram_counts(x)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            multimodality_rows(x.reshape(1, -1))
    (constant,) = multimodality_rows(_column([-0.0, 0.0, 0.0, 0.0, 0.0]).reshape(1, -1))
    assert [_double(m.location) for m in constant.modes] == [_double(-0.0)]


def test_a_request_calls_the_kernel_once_per_block_and_never_per_column(monkeypatch):
    rng = np.random.default_rng(7)
    names = [f"x{j:02d}" for j in range(16)]
    table = DataTable([NumericColumn(Field(name, ColumnKind.NUMERIC),
                                     rng.standard_normal(10_000)) for name in names],
                      name="wide")
    store = SketchStore(table)
    kernel = multimodality.multimodality_rows
    calls = []

    def spy(block, *args, **kwargs):
        calls.append(block.shape)
        return kernel(block, *args, **kwargs)

    def per_column(*args, **kwargs):
        raise AssertionError("a per-column call while scoring a request")

    monkeypatch.setattr(multimodality, "multimodality_rows", spy)
    monkeypatch.setattr(multimodality, "find_modes", per_column)
    monkeypatch.setattr(multimodality, "bimodality_coefficient", per_column)
    insight_class = REGISTRY.get("multimodality")
    for mode, n_rows in ((MODE_APPROXIMATE, 2000), (MODE_EXACT, 10_000)):
        calls.clear()
        scored = insight_class.score_all([(name,) for name in names],
                                         EvaluationContext(table, store, mode))
        assert [c.attributes[0] for c in scored] == names
        step = multimodality.ROW_BLOCK // n_rows
        assert calls == [(min(step, 16 - start), n_rows)
                         for start in range(0, 16, step)], mode
