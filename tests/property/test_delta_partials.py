"""A delta sketched as one block equals the delta sketched column by column.

``build_delta_partials`` stacks an append's complete numeric columns into
one ``(d, rows)`` block — all moment partials from one pass of axis-1
reductions, all GK partials from one row-wise sort — where it used to
build each column's sketches from its own 1-D array.  Over generated delta
tables (constant and heavily tied columns, NaN and ±inf, all-missing and
partly-missing columns, one row, more rows than the quantile sample cap, a
discrete numeric column, a new categorical level) every partial — read
from slices of the grown table — must equal, sketch state for sketch
state and bit for bit (Misra–Gries counters in insertion order too), the
one built from that column alone with ``numeric_sketches`` /
``value_count_sketches``.

And the memo behind the Count-Min sketch's label hashing is keyed by the
text that is hashed, not by the value: ``1``, ``1.0`` and ``True`` are
one dict key and three reprs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import CategoricalColumn, ColumnKind, DataTable, Field, NumericColumn
from repro.ingest import build_delta_partials
from repro.sketch import countmin
from repro.sketch.store import (
    ColumnSketches,
    SketchStore,
    SketchStoreConfig,
    numeric_sketches,
    value_count_sketches,
)

NUMERIC = ("n0", "n1", "n2", "n3")
#: A cap small enough that generated deltas cross it: the GK partial of a
#: longer column is of a sample drawn from that column's own RNG stream.
CONFIG = SketchStoreConfig(quantile_sample_cap=12, seed=5)


def _table(numeric: dict[str, np.ndarray], discrete: np.ndarray,
           labels: list) -> DataTable:
    columns = [NumericColumn(Field(name, ColumnKind.NUMERIC), values)
               for name, values in numeric.items()]
    columns.append(NumericColumn(Field("d0", ColumnKind.NUMERIC), discrete))
    columns.append(CategoricalColumn.from_raw("c0", labels))
    return DataTable(columns, name="t")


def _base_store() -> SketchStore:
    rng = np.random.default_rng(0)
    return SketchStore(_table(
        {name: rng.normal(size=60) for name in NUMERIC},
        rng.integers(0, 4, size=60).astype(float),  # few integers: discrete
        [["a", "b", "c"][i % 3] for i in range(60)],
    ), CONFIG)


STORE = _base_store()


# ---------------------------------------------------------------------------
# Generated deltas
# ---------------------------------------------------------------------------
@st.composite
def numeric_values(draw, n_rows: int) -> np.ndarray:
    shape = draw(st.sampled_from(
        ("any", "continuous", "ties", "constant", "all_missing")))
    if shape == "any":
        cells = st.one_of(
            st.floats(width=64, allow_nan=True, allow_infinity=True),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]))
    elif shape == "continuous":
        cells = st.floats(-1e6, 1e6, width=64)
    elif shape == "ties":
        cells = st.sampled_from([0.0, 1.0, 1.0, 2.5, math.nan])
    elif shape == "constant":
        cells = st.just(draw(st.floats(-1e3, 1e3, width=64)))
    else:
        cells = st.just(math.nan)
    return np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)),
                    dtype=np.float64)


@st.composite
def delta_tables(draw) -> DataTable:
    n_rows = draw(st.sampled_from([1, 1, 2, 3, 7, 12, 13, 30]))
    return _table(
        {name: draw(numeric_values(n_rows)) for name in NUMERIC},
        np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 9.0, math.nan]),
                               min_size=n_rows, max_size=n_rows))),
        draw(st.lists(st.sampled_from(["a", "b", "c", "a new level", None]),
                      min_size=n_rows, max_size=n_rows)),
    )


# ---------------------------------------------------------------------------
# Sketch state, comparable bit for bit (repr keeps NaN equal to NaN)
# ---------------------------------------------------------------------------
def _state(bundle: ColumnSketches):
    state = {}
    if bundle.moments is not None:
        state["moments"] = {key: repr(value) for key, value
                            in vars(bundle.moments._moments).items()}
    if bundle.quantiles is not None:
        q = bundle.quantiles
        state["quantiles"] = (
            [value.hex() for value in q._value.tolist()], q._g.tolist(),
            q._delta.tolist(), q.count, q._since_compress, q.epsilon)
    if bundle.frequent is not None:
        state["frequent"] = (list(bundle.frequent._counters.items()),
                             bundle.frequent.count)
    return state


def _column_by_column(delta: DataTable, store: SketchStore) -> dict[str, ColumnSketches]:
    config, partials = store.config, {}
    for index, name in enumerate(delta.column_names()):
        base, sketches = store.column_sketches(name), {}
        if base.moments is not None:
            values = delta.numeric_column(name).valid_values()
            (built,) = numeric_sketches(
                values[np.newaxis, :], config,
                [[config.seed, index, store.table.n_rows]])
            sketches.update(built)
        if base.frequent is not None:
            sketches.update(value_count_sketches(delta.column(name), config))
        partials[name] = ColumnSketches(name=name, **sketches)
    return partials


@settings(max_examples=150, deadline=None)
@given(delta_tables())
def test_block_partials_equal_partials_built_one_column_at_a_time(delta):
    with warnings.catch_warnings():
        # inf - inf while centring a column that holds ±inf: NaN moments,
        # the same NaN either way.
        warnings.simplefilter("ignore", RuntimeWarning)
        (partials,) = build_delta_partials(STORE.table.concat(delta), STORE,
                                           [delta.n_rows])
        block = partials.columns
        alone = _column_by_column(delta, STORE)
    assert list(block) == list(alone) == delta.column_names()
    for name in alone:
        assert _state(block[name]) == _state(alone[name]), name
    # The shape mirrors the base bundle's: d0 is discrete there, n* are not.
    assert block["d0"].frequent is not None and block["d0"].moments is not None
    assert block["n0"].frequent is None and block["c0"].moments is None


def test_a_one_row_block_and_a_wide_block_summarise_a_column_identically():
    # The pairwise sums along the contiguous axis do not depend on how many
    # other rows the block has (sizes around numpy's 8- and 128-element
    # pairwise blocking).
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 8, 9, 64, 127, 128, 129, 1000):
        block = rng.lognormal(size=(5, n))
        wide = numeric_sketches(block, STORE.config, [[0, j] for j in range(5)])
        for j in range(5):
            (alone,) = numeric_sketches(block[j][np.newaxis, :].copy(),
                                        STORE.config, [[0, j]])
            assert _state(ColumnSketches("c", **wide[j])) == _state(
                ColumnSketches("c", **alone))


def test_the_hash_memo_is_keyed_by_the_hashed_text_not_by_the_value():
    def blake2b(value, salt):
        payload = f"{salt}:{value!r}".encode("utf-8")
        return int.from_bytes(
            hashlib.blake2b(payload, digest_size=8).digest(), "big")

    values = [1, 1.0, True, "1"]
    assert len({blake2b(value, 0) for value in values}) == 4
    for order in itertools.permutations(values):
        countmin._hash_text.cache_clear()
        for salt in (0, 7):
            for value in order + order:  # asked cold, then from the memo
                assert countmin._stable_hash(value, salt) == blake2b(value, salt)
    assert countmin._hash_text.cache_info().maxsize <= 8192  # bounded
