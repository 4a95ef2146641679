"""``DeltaBatch.from_records`` reads a batch once; this is what it must equal.

The append path classifies every cell exactly once — a numeric column of
plain ``int`` / ``float`` values in one ``np.array`` call, anything else
through the column type's ``from_raw`` — where it used to check each cell
(``_check_value``) and then parse it again.  Over generated batches mixing
ints, floats, bools, numeric strings (``"1,5"``, ``" 3 "``), missing
tokens, ``None``, absent keys, NaN / ±inf, ints beyond the float range,
containers, unknown keys and rows that are not records, the one-pass
result must equal a cell-by-cell reference written here from
``is_missing_token`` / ``parse_number`` / ``parse_boolean``: the same table
(values, masks, codes, categories), or the same ``problems`` in the same
row-major order.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.schema import (
    ColumnKind,
    Field,
    Schema,
    is_missing_token,
    parse_boolean,
    parse_number,
)
from repro.errors import DeltaValidationError
from repro.ingest import DeltaBatch

SCHEMA = Schema([
    Field("x", ColumnKind.NUMERIC),
    Field("label", ColumnKind.CATEGORICAL),
    Field("y", ColumnKind.NUMERIC),
    Field("flag", ColumnKind.BOOLEAN),
])
NAMES = SCHEMA.names()


# ---------------------------------------------------------------------------
# The reference: one cell at a time, row-major
# ---------------------------------------------------------------------------
def reference(records):
    """``(problems, columns)``: per column, a list of parsed cells with
    ``None`` for missing (numbers, labels or booleans)."""
    problems: list[str] = []
    columns: dict[str, list] = {name: [] for name in NAMES}
    for index, record in enumerate(records):
        if not isinstance(record, Mapping):
            problems.append(f"row {index}: not a record object")
            continue
        unknown = [key for key in record if key not in NAMES]
        if unknown:
            problems.append(f"row {index}: unknown column(s) {sorted(unknown)}")
            continue
        for name in NAMES:
            value, kind = record.get(name), SCHEMA[name].kind
            where = f"row {index}, column {name!r}: "
            if is_missing_token(value):
                columns[name].append(None)
            elif kind is ColumnKind.NUMERIC:
                number = parse_number(value)
                if number is None:
                    problems.append(where + f"value {value!r} is not numeric")
                columns[name].append(number)
            elif kind is ColumnKind.BOOLEAN:
                boolean = parse_boolean(value)
                if boolean is None:
                    problems.append(where + f"value {value!r} is not boolean")
                columns[name].append(boolean)
            elif isinstance(value, (list, tuple, dict, set)):
                problems.append(where + f"value of type {type(value).__name__} "
                                "is not a categorical label")
                columns[name].append(None)
            else:
                columns[name].append(str(value).strip())
    return problems, columns


def check_equal(table, columns) -> None:
    for name in ("x", "y"):
        column, expected = table.numeric_column(name), columns[name]
        assert column.mask.tolist() == [cell is None for cell in expected]
        # Bit for bit: a plain number converts as float() converts it.
        assert [None if missing else value.hex() for value, missing
                in zip(column.values.tolist(), column.mask.tolist())] == [
            None if cell is None else cell.hex() for cell in expected]
        assert np.isnan(column.values[column.mask]).all()
    labels = columns["label"]
    categories = list(dict.fromkeys(cell for cell in labels if cell is not None))
    column = table.categorical_column("label")
    assert column.categories == categories
    assert column.codes.tolist() == [
        -1 if cell is None else categories.index(cell) for cell in labels]
    assert table.categorical_column("flag").codes.tolist() == [
        -1 if cell is None else int(cell) for cell in columns["flag"]]


# ---------------------------------------------------------------------------
# Generated batches
# ---------------------------------------------------------------------------
plain_numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, 2**53 + 1, 2**70, -(2**70) - 1]),
)
odd_cells = st.sampled_from([
    None, "", " ", "NA", " nan ", "?", "null", "None", "missing", "n/a",
    math.nan, math.inf, -math.inf, "inf", "-Infinity", "NaN",
    True, False, "true", " Yes", "F", "no", "0", "1", "t", "maybe",
    "1,5", " 3 ", "2.5", "-1e3", "1e999", "1_000", "0x10", "abc", " Oslo ",
    "Oslo", "oslo", ",", "1,,2",
    10**400, -(10**400), 2**1024,
    [1], [], (1, 2), {"a": 1}, {1, 2}, b"bytes", 1 + 2j,
])
cells = st.one_of(plain_numbers, odd_cells)


@st.composite
def records(draw):
    rows = []
    # Mostly-plain batches must be generated too: they are the fast path.
    cell = draw(st.sampled_from([cells, plain_numbers, cells]))
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["record"] * 8 + ["unknown", "other"]))
        if kind == "other":
            rows.append(draw(st.sampled_from([None, 3, "row", [1, 2], ("x", 1)])))
            continue
        present = draw(st.lists(st.sampled_from(NAMES), unique=True))
        row = {name: draw(cell) for name in present}
        if kind == "unknown":
            for key in draw(st.lists(st.sampled_from(["zip", "X", "labels", ""]),
                                     min_size=1, unique=True)):
                row[key] = draw(cell)
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(records())
def test_one_pass_validation_equals_the_cell_by_cell_reference(batch):
    problems, columns = reference(batch)
    if problems:
        with pytest.raises(DeltaValidationError) as info:
            DeltaBatch.from_records("d", batch, SCHEMA)
        assert info.value.problems == problems
    else:
        table = DeltaBatch.from_records("d", batch, SCHEMA).table
        assert table.n_rows == len(batch) and table.column_names() == NAMES
        check_equal(table, columns)


def test_the_plain_number_path_and_the_cell_path_build_the_same_column():
    # One string forces the cell path; the numbers are the same numbers.
    numbers = [1, 2.5, -0.0, 2**53 + 1, 2**70, math.inf, math.nan, 7]
    fast = DeltaBatch.from_records(
        "d", [{"x": value} for value in numbers], SCHEMA).table
    slow = DeltaBatch.from_records(
        "d", [{"x": value} for value in numbers] + [{"x": " 3 "}], SCHEMA).table
    a, b = fast.numeric_column("x"), slow.numeric_column("x")
    assert a.mask.tolist() == b.mask.tolist()[:-1]
    assert [v.hex() for v in a.values.tolist()] == [
        v.hex() for v in b.values.tolist()[:-1]]
