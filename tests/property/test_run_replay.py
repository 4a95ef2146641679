"""A run of appends replays as one step, and lands where one at a time does.

``ReplayMachine.apply(records)`` replays a maximal run of delta-merging
appends as one staged step: one row parse (chunked at record boundaries
under ``MAX_BATCH_ROWS``), one table concat, each append's partials read
from slices of the grown table and merged in journal order, one store
and one engine at the end.  Over generated journals of delta-merging,
deferred, build and swap records — categorical levels first seen
mid-run, the same levels in different per-record orders, missing cells,
an all-missing numeric delta, a Misra–Gries capacity small enough to
overflow, and runs longer than a shrunken ``MAX_BATCH_ROWS`` — applying
the whole list must leave exactly the state that applying the records
one at a time leaves: the table's arrays and categories, every sketch's
state (the co-moment sums bit for bit), the row sample, the store's
delta accounting, every ingest counter and the engine's answers.  A run refused mid-way raises what its
first invalid record raises alone, and leaves the state untouched.
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, Foresight
from repro.data import (
    BooleanColumn,
    CategoricalColumn,
    ColumnKind,
    DataTable,
    Field,
    NumericColumn,
)
from repro.errors import DeltaValidationError
from repro.ingest import delta as ingest_delta
from repro.ingest.durable import (
    RECORD_APPEND,
    RECORD_BUILD,
    RECORD_SWAP,
    DatasetState,
    ReplayMachine,
)
from repro.sketch.store import SketchStoreConfig

NAME = "runs"
#: Four frequent-items counters, so a delta's value order matters; a
#: small sample and quantile cap, so appends move both.
CONFIG = EngineConfig(sketch=SketchStoreConfig(
    frequent_capacity=4, sample_capacity=25, quantile_sample_cap=30, seed=3))
#: Under a run's row count, over every record's.
MAX_ROWS = 8
LEVELS = ["a", "b", "c", "d", "e", "f", "g", None]


def _make_engine(table: DataTable) -> Foresight:
    return Foresight(table, config=CONFIG)


def _base() -> DataTable:
    rng = np.random.default_rng(1)
    n = 40
    return DataTable([
        NumericColumn(Field("x", ColumnKind.NUMERIC), rng.normal(size=n)),
        NumericColumn(Field("y", ColumnKind.NUMERIC), rng.lognormal(size=n)),
        NumericColumn(Field("k", ColumnKind.NUMERIC),
                      rng.integers(0, 4, size=n).astype(float)),
        CategoricalColumn.from_raw("c", [["a", "b", "c"][i % 3] for i in range(n)]),
        BooleanColumn.from_raw("b", [i % 4 == 0 for i in range(n)]),
    ], name=NAME)


BASE = _base()

rows = st.fixed_dictionaries({
    "x": st.one_of(st.none(), st.floats(-50, 50)),
    "y": st.one_of(st.none(), st.floats(0, 1e3)),
    "k": st.one_of(st.none(), st.sampled_from([0, 1, 2, 3, 5])),
    "c": st.sampled_from(LEVELS),
    "b": st.sampled_from([True, False, None]),
})


@st.composite
def journals(draw) -> list[dict]:
    """A record list as a primary could journal it, seq after seq."""
    records, seq, total = [], 0, BASE.n_rows
    built = draw(st.booleans())
    if built:
        records.append({"type": RECORD_BUILD, "seq": 0, "total_rows": total})
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(
            ["append"] * 6 + ["deferred", "build", "swap"]))
        if kind == "build":
            records.append({"type": RECORD_BUILD, "seq": seq,
                            "total_rows": total})
            continue
        seq += 1
        if kind == "swap":
            back = draw(st.integers(0, min(total - BASE.n_rows, 12)))
            records.append({"type": RECORD_SWAP, "seq": seq,
                            "built_from_rows": total - back,
                            "total_rows": total})
            continue
        batch = draw(st.lists(rows, min_size=1, max_size=6))
        if draw(st.integers(0, 5)) == 0:
            batch = [{**row, "x": None} for row in batch]  # all missing
        total += len(batch)
        records.append({
            "type": RECORD_APPEND, "seq": seq,
            "applied": "deferred" if kind == "deferred" else "delta_merge",
            "n_rows": len(batch), "total_rows": total, "rows": batch,
        })
    return records


def _state(value):
    """A comparable image of a table, sketch or store, bit for bit (floats
    as hex, dicts in insertion order)."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return [value.shape, [item.hex() for item in value.ravel().tolist()]]
        return value.tolist()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(_state(key), _state(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_state(item) for item in value]
    if hasattr(value, "__dict__"):
        return [type(value).__name__, _state(vars(value))]
    return value


def _answers(engine: Foresight | None) -> str | None:
    if engine is None or engine.store is None:
        return None
    return json.dumps([
        [insight.as_dict() for insight in engine.query(name, top_k=3)]
        for name in ("skew", "outliers", "heterogeneous_frequencies",
                     "linear_relationship", "dispersion")
    ], sort_keys=True, default=str)


def _image(state: DatasetState) -> dict:
    image = {
        "columns": [_state(vars(column)) for column in state.table],
        "ingest": dataclasses.asdict(state.ingest),
        "builds": state.engine_builds,
        "answers": _answers(state.engine),
    }
    store = state.engine.store if state.engine is not None else None
    if store is not None:
        stats = store.stats
        image["store"] = {
            "columns": _state(store.column_map()),
            "comoments": _state(store.comoments),
            "sample": store.sample_indices.tolist(),
            "rows": (stats.n_rows, stats.delta_rows, stats.delta_batches,
                     stats.total_sketch_bytes),
        }
    return image


def _fresh() -> DatasetState:
    return DatasetState(table=BASE)


@settings(max_examples=40, deadline=None)
@given(journals())
def test_a_run_replays_to_the_state_one_record_at_a_time_reaches(records):
    with mock.patch.object(ingest_delta, "MAX_BATCH_ROWS", MAX_ROWS):
        whole = _fresh()
        ReplayMachine(NAME, whole, _make_engine).apply(records)
        one_by_one = _fresh()
        machine = ReplayMachine(NAME, one_by_one, _make_engine)
        for record in records:
            machine.apply([record])
    assert _image(whole) == _image(one_by_one)


def test_a_run_longer_than_the_batch_limit_is_parsed_in_chunks():
    batch = [{"x": float(i), "c": LEVELS[i % 7]} for i in range(5)]
    records = [{"type": RECORD_BUILD, "seq": 0, "total_rows": BASE.n_rows}] + [
        {"type": RECORD_APPEND, "seq": seq, "applied": "delta_merge",
         "n_rows": 5, "total_rows": BASE.n_rows + 5 * seq, "rows": batch}
        for seq in range(1, 7)
    ]
    parsed = []
    original = ingest_delta.DeltaBatch.from_records.__func__

    def counted(cls, dataset, rows, schema):
        parsed.append(len(rows))
        return original(cls, dataset, rows, schema)

    with mock.patch.object(ingest_delta, "MAX_BATCH_ROWS", 12), \
            mock.patch.object(ingest_delta.DeltaBatch, "from_records",
                              classmethod(counted)):
        state = _fresh()
        ReplayMachine(NAME, state, _make_engine).apply(records)
    # Cut only between records: 2 + 2 + 2 of 5 rows, each chunk ≤ 12.
    assert parsed == [10, 10, 10]
    assert state.table.n_rows == BASE.n_rows + 30
    assert state.engine.store.stats.delta_batches == 6
    assert state.ingest.seq == 6 and state.ingest.delta_merges == 6


@pytest.mark.parametrize("bad", [1, 2, 3])
def test_an_invalid_record_mid_run_raises_its_own_error_and_changes_nothing(bad):
    records = [{"type": RECORD_BUILD, "seq": 0, "total_rows": BASE.n_rows}] + [
        {"type": RECORD_APPEND, "seq": seq, "applied": "delta_merge",
         "n_rows": 2, "total_rows": BASE.n_rows + 2 * seq,
         "rows": [{"x": 1.0, "c": "new"}, {"x": 2.0, "c": "a"}]}
        for seq in range(1, 5)
    ]
    records[bad] = {**records[bad], "rows": [
        {"x": 1.0, "c": "a"}, {"x": "abc", "y": "?", "c": "z"}]}
    with pytest.raises(DeltaValidationError) as alone:
        ingest_delta.DeltaBatch.from_records(NAME, records[bad]["rows"],
                                             BASE.schema)
    state = _fresh()
    machine = ReplayMachine(NAME, state, _make_engine)
    machine.apply(records[:1])
    before = _image(state)
    table, engine = state.table, state.engine
    with pytest.raises(DeltaValidationError) as raised:
        machine.apply(records[1:])
    assert str(raised.value) == str(alone.value)
    assert raised.value.problems == alone.value.problems
    assert state.table is table and state.engine is engine
    assert _image(state) == before
