"""Correlation from co-moment sums: exact, and the same however rows arrive.

The store keeps, for every pair of numeric columns, the row count, Σx,
Σx² and Σxy over the rows where both are present, about a per-column
shift fixed at the build (:class:`repro.sketch.comoments.CoMoments`).
An append adds its own sums.  Over generated tables — NaN holes, ±inf,
constant columns whose mean is not a binary fraction, heavy ties, a
column that is all missing in one append, and a column whose mean is
10⁸ times its spread — built over a prefix and grown by appends:

* the merged sums equal the single-pass sums of every row within float
  tolerance, whatever the split;
* sketch-mode Pearson scores of ``linear_relationship`` and its Figure 2
  overview are within 1e-9 of ``exact()`` mode, pair for pair, with the
  same pairs undefined (fewer than two shared rows) in both.

And the sums of one table are the same bits in a process pinned to one
core as in one that may use every core: a restarted primary and a
replica are such a pair.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.insight import MODE_APPROXIMATE, MODE_EXACT, EvaluationContext
from repro.data import CategoricalColumn, ColumnKind, DataTable, Field, NumericColumn
from repro.errors import SketchMergeError, SketchNotAvailableError
from repro.ingest import build_delta_partials, merge_delta
from repro.sketch.comoments import CoMoments
from repro.sketch.store import SketchStore
from repro import default_registry

NUMERIC = ("n0", "n1", "n2", "n3")
TOLERANCE = 1e-9
LINEAR = default_registry().get("linear_relationship")


@st.composite
def column_values(draw, n_rows: int) -> np.ndarray:
    shape = draw(st.sampled_from(("continuous", "ties", "constant", "offset")))
    if shape == "continuous":
        cells = st.integers(-10**6, 10**6).map(lambda k: k / 64.0)
    elif shape == "ties":
        cells = st.integers(0, 3).map(float)
    elif shape == "constant":
        # k/10 is no binary fraction: the mean of its copies is not k/10.
        cells = st.just(draw(st.integers(-9, 9)) / 10.0)
    else:
        cells = st.integers(-64, 64).map(lambda k: 1e8 + k / 8.0)
    values = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    if draw(st.booleans()):
        holes = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
        values[np.array(holes, dtype=bool)] = np.nan
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, n_rows - 1))
        values[at] = draw(st.sampled_from((np.inf, -np.inf)))
    return values


@st.composite
def grown_tables(draw) -> tuple[DataTable, list[int]]:
    """A table and its cut into a base build and appends."""
    base_rows = draw(st.integers(1, 30))
    appends = draw(st.lists(st.integers(1, 12), max_size=4))
    n_rows = base_rows + sum(appends)
    numeric = {name: draw(column_values(n_rows)) for name in NUMERIC}
    if appends and draw(st.booleans()):
        # One append leaves one column all missing.
        which = draw(st.integers(0, len(appends) - 1))
        start = base_rows + sum(appends[:which])
        numeric[draw(st.sampled_from(NUMERIC))][start:start + appends[which]] = np.nan
    return _table(numeric), [base_rows] + appends


def _table(numeric: dict[str, np.ndarray]) -> DataTable:
    columns = [NumericColumn(Field(name, ColumnKind.NUMERIC), values)
               for name, values in numeric.items()]
    n_rows = len(columns[0].values)
    columns.append(CategoricalColumn.from_raw(
        "c0", [("a", "b")[i % 2] for i in range(n_rows)]))
    return DataTable(columns, name="grown")


# Every column holds an inf, so every entry of ``square`` is infinite,
# while n3's finite sums are large enough to differ in the last bit
# between the merged and the single pass.
_ALL_SQUARES_INFINITE = (_table({
    name: np.array([np.inf] + [0.0] * 19) for name in NUMERIC[:3]} | {
    "n3": np.array([np.inf] + [0.0] * 9 + [-2176.265625, 0.0, -0.03125] + [0.0] * 7)}),
    [13, 1, 6])


def _grown_store(table: DataTable, counts: list[int]) -> SketchStore:
    store = SketchStore(table.take(np.arange(counts[0])))
    deltas = counts[1:]
    if not deltas:
        return store
    return merge_delta(store, table, list(zip(
        deltas, build_delta_partials(table, store, deltas))))


def _close(got: np.ndarray, expected: np.ndarray, sums: CoMoments) -> None:
    """Equal up to rounding, which is relative to the summands' size, not
    to the sum's; infinities in place.  A column's Σx² over its finite
    cells (the diagonal of ``cross``) bounds Σ|x| and Σ|xy| of every pair
    it is in, and is ``square``'s diagonal wherever that is finite; where
    an infinite cell makes ``square`` infinite it is the size of what was
    still added up."""
    diagonal = np.diag(sums.cross)
    scale = diagonal[np.isfinite(diagonal)].max(initial=0.0) + 1.0
    np.testing.assert_allclose(got, expected, rtol=0, atol=TOLERANCE * scale)


@settings(max_examples=80, deadline=None)
@given(grown_tables())
@example(_ALL_SQUARES_INFINITE)
def test_merged_sums_equal_the_single_pass_sums(case):
    table, counts = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        store = _grown_store(table, counts)
    merged = store.comoments
    single = CoMoments.of_columns(table.numeric_columns(), shift=merged.shift)
    assert merged.names == single.names == NUMERIC
    assert merged.count.tolist() == single.count.tolist()
    for field in ("total", "square", "cross"):
        _close(getattr(merged, field), getattr(single, field), single)


@settings(max_examples=80, deadline=None)
@given(grown_tables())
def test_sketch_mode_pearson_is_exact_mode_pearson(case):
    table, counts = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        store = _grown_store(table, counts)
        sketch = EvaluationContext(table, store, MODE_APPROXIMATE)
        exact = EvaluationContext(table, store, MODE_EXACT)
        candidates = list(LINEAR.candidates(table))
        scored = {mode: {c.attributes: c for c in LINEAR.score_all(candidates, context)}
                  for mode, context in (("sketch", sketch), ("exact", exact))}
        overviews = {mode: LINEAR.overview(context).data
                     for mode, context in (("sketch", sketch), ("exact", exact))}
    assert scored["sketch"].keys() == scored["exact"].keys()
    for attributes, expected in scored["exact"].items():
        got = scored["sketch"][attributes]
        assert got.details["source"] == "sketch"
        assert abs(got.score - expected.score) <= TOLERANCE, attributes
        assert abs(got.details["correlation"]
                   - expected.details["correlation"]) <= TOLERANCE, attributes
    for got, expected in zip(overviews["sketch"], overviews["exact"]):
        assert (got["row"], got["column"]) == (expected["row"], expected["column"])
        assert abs(got["correlation"] - expected["correlation"]) <= TOLERANCE, got


def test_a_pair_sharing_fewer_than_two_rows_is_undefined():
    x = NumericColumn(Field("x", ColumnKind.NUMERIC), np.array([1.0, 2.0, np.nan, 4.0]))
    y = NumericColumn(Field("y", ColumnKind.NUMERIC), np.array([np.nan, np.nan, 3.0, 5.0]))
    rho = CoMoments.of_columns([x, y]).correlation(["y", "x"])
    assert rho[0, 0] == rho[1, 1] == 1.0
    assert np.isnan(rho[0, 1]) and np.isnan(rho[1, 0])


def test_sums_merge_only_about_the_same_shift():
    x = NumericColumn(Field("x", ColumnKind.NUMERIC), np.arange(6.0))
    whole = CoMoments.of_columns([x])
    with pytest.raises(SketchMergeError):
        whole.merged(CoMoments.of_columns([x], slice(0, 3)))
    assert whole.memory_bytes() == 8 + 4 * 8


def test_an_unknown_column_has_no_sums(small_mixed_table):
    store = SketchStore(small_mixed_table)
    with pytest.raises(SketchNotAvailableError):
        store.approx_correlation_matrix(["nope"])


_SUMS_DIGEST = """
import hashlib
from repro.data.datasets import make_mixed_table
from repro.sketch.comoments import CoMoments
# A multi-threaded BLAS product of (8050 x 20) blocks splits by cores.
for n_rows, n_numeric in ((8050, 20), (20000, 24), (3000, 8)):
    table = make_mixed_table(n_rows=n_rows, n_numeric=n_numeric,
                             n_categorical=0, seed=7)
    sums = CoMoments.of_columns(table.numeric_columns())
    print(hashlib.sha256(b"".join(getattr(sums, field).tobytes() for field in
          ("shift", "count", "total", "square", "cross"))).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
def test_the_sums_do_not_depend_on_the_cores_a_process_may_use():
    one_core = {sorted(os.sched_getaffinity(0))[-1]}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")}

    def digest(pin: bool) -> str:
        return subprocess.run(
            [sys.executable, "-c", _SUMS_DIGEST], env=env, check=True,
            capture_output=True, text=True, timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, one_core)) if pin else None,
        ).stdout

    assert digest(pin=True) == digest(pin=False)


def _numeric(name: str, values, mask=None) -> NumericColumn:
    return NumericColumn(Field(name, ColumnKind.NUMERIC), np.asarray(values, dtype=float), mask)


def test_pearson_of_complete_columns_is_numpys():
    rng = np.random.default_rng(3)
    block = rng.normal(size=(500, 3)) @ rng.normal(size=(3, 3))
    columns = [_numeric(f"x{k}", block[:, k]) for k in range(3)]
    rho = CoMoments.of_columns(columns).correlation(["x0", "x1", "x2"])
    np.testing.assert_allclose(rho, np.corrcoef(block.T), rtol=0, atol=1e-12)


def test_a_negated_column_correlates_minus_one():
    x = np.random.default_rng(4).normal(size=200)
    rho = CoMoments.of_columns([_numeric("x", x), _numeric("y", -3.0 * x + 2.0)])
    assert rho.correlation(["x", "y"])[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_a_column_constant_over_its_rows_correlates_zero():
    # 0.1 is no binary fraction: the mean of its copies is not 0.1, and
    # what is left of the spread is rounding, not a real deviation.
    flat = _numeric("flat", np.full(37, 0.1))
    other = _numeric("other", np.arange(37.0))
    rho = CoMoments.of_columns([flat, other]).correlation(["flat", "other"])
    assert rho[0, 1] == rho[1, 0] == 0.0


def test_a_non_finite_value_makes_sum_of_squares_infinite_and_rho_zero():
    x = _numeric("x", [1.0, 2.0, np.inf, 4.0, 5.0])
    y = _numeric("y", [2.0, 1.0, 3.0, 5.0, 4.0])
    sums = CoMoments.of_columns([x, y])
    assert np.isinf(sums.square[0, 1]) and np.isinf(sums.square[0, 0])
    assert np.isfinite(sums.square[1, 1])
    rho = sums.correlation(["x", "y"])
    assert rho[0, 1] == rho[1, 0] == 0.0


def test_a_masked_cell_is_missing_even_where_its_value_is_finite():
    x = _numeric("x", [1.0, 2.0, 3.0, 100.0], mask=[False, False, False, True])
    y = _numeric("y", [1.0, 2.0, 3.0, -100.0])
    sums = CoMoments.of_columns([x, y])
    assert sums.count.tolist() == [[3.0, 3.0], [3.0, 4.0]]
    assert sums.correlation(["x", "y"])[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_count_and_cross_are_symmetric_and_count_is_the_shared_rows():
    x = _numeric("x", [1.0, np.nan, 3.0, 4.0, np.nan])
    y = _numeric("y", [np.nan, 2.0, 3.0, 1.0, 7.0])
    sums = CoMoments.of_columns([x, y])
    assert sums.count.tolist() == [[3.0, 2.0], [2.0, 4.0]]
    np.testing.assert_array_equal(sums.cross, sums.cross.T)


def test_storage_is_quadratic_in_columns_and_independent_of_rows():
    for n_rows in (10, 1000):
        columns = [_numeric(f"x{k}", np.arange(float(n_rows)) * (k + 1)) for k in range(5)]
        assert CoMoments.of_columns(columns).memory_bytes() == 8 * 5 + 32 * 5 * 5


def test_a_row_slice_gives_the_sums_of_those_rows_alone():
    rng = np.random.default_rng(5)
    full = [_numeric(f"x{k}", rng.normal(size=40)) for k in range(3)]
    cut = [_numeric(column.name, column.values[10:25]) for column in full]
    shift = np.array([0.5, -1.0, 2.0])
    got = CoMoments.of_columns(full, slice(10, 25), shift=shift)
    expected = CoMoments.of_columns(cut, shift=shift)
    for field in ("shift", "count", "total", "square", "cross"):
        np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))


def test_a_column_without_finite_values_gets_its_shift_from_the_first_rows_that_bring_some():
    x = _numeric("x", [np.nan, np.nan, 5.0, 7.0, 9.0])
    y = _numeric("y", [1.0, 2.0, 3.0, 4.0, 6.0])
    head = CoMoments.of_columns([x, y], slice(0, 2))
    assert np.isnan(head.shift[0]) and head.shift[1] == 1.5
    tail = CoMoments.of_columns([x, y], slice(2, 5), shift=head.shift)
    assert tail.shift.tolist() == [7.0, 1.5]
    merged = head.merged(tail)
    single = CoMoments.of_columns([x, y], shift=merged.shift)
    for field in ("count", "total", "square", "cross"):
        np.testing.assert_allclose(getattr(merged, field), getattr(single, field),
                                   rtol=0, atol=1e-12)


def test_merging_touches_neither_input():
    x = _numeric("x", np.arange(8.0))
    y = _numeric("y", np.arange(8.0) ** 2)
    head = CoMoments.of_columns([x, y], slice(0, 5))
    tail = CoMoments.of_columns([x, y], slice(5, 8), shift=head.shift)
    before = [getattr(sums, field).copy() for sums in (head, tail)
              for field in ("shift", "count", "total", "square", "cross")]
    head.merged(tail)
    after = [getattr(sums, field) for sums in (head, tail)
             for field in ("shift", "count", "total", "square", "cross")]
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)


def test_sums_merge_only_over_the_same_columns():
    x, y = _numeric("x", np.arange(4.0)), _numeric("y", np.arange(4.0))
    sums = CoMoments.of_columns([x, y])
    with pytest.raises(SketchMergeError):
        sums.merged(CoMoments.of_columns([y, x], shift=sums.shift))


def test_reading_columns_in_another_order_permutes_the_matrix():
    rng = np.random.default_rng(6)
    columns = [_numeric(name, rng.normal(size=60)) for name in ("a", "b", "c")]
    sums = CoMoments.of_columns(columns)
    whole = sums.correlation(["a", "b", "c"])
    np.testing.assert_array_equal(sums.correlation(["c", "a"]), whole[np.ix_([2, 0], [2, 0])])


def test_a_build_is_the_same_bits_every_time():
    rng = np.random.default_rng(8)
    columns = [_numeric(f"x{k}", rng.normal(size=300) + 1e6 * k) for k in range(4)]
    first, second = CoMoments.of_columns(columns), CoMoments.of_columns(columns)
    for field in ("shift", "count", "total", "square", "cross"):
        assert getattr(first, field).tobytes() == getattr(second, field).tobytes()


def test_no_rows_give_no_correlation():
    sums = CoMoments.of_columns([_numeric("x", []), _numeric("y", [])])
    assert sums.count.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    rho = sums.correlation(["x", "y"])
    assert rho[0, 0] == rho[1, 1] == 1.0 and np.isnan(rho[0, 1])
