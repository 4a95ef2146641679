"""Validated append batches: the unit of live ingestion.

A :class:`DeltaBatch` is a set of appended rows checked against the
target dataset's schema *before* anything touches the serving path:

* **arity** — every record must be a mapping whose keys are a subset of
  the schema's columns; unknown columns reject the batch (a typo'd
  column name must not silently create a hole of missing values);
* **types** — values must parse under the column's
  :class:`~repro.data.schema.ColumnKind` rules (``parse_number`` for
  numeric columns, ``parse_boolean`` for boolean ones); a numeric column
  receiving ``"abc"`` rejects the batch rather than coercing to NaN;
* **missing values** — ``None``, absent keys and the standard missing
  tokens (:data:`repro.data.schema.MISSING_TOKENS`) are allowed and
  become masked entries, exactly as a fresh load would treat them.

Validation is all-or-nothing: one bad record rejects the whole batch
with a :class:`~repro.errors.DeltaValidationError` listing the per-row
problems, so a client can fix and resubmit without wondering which rows
landed.  A validated batch materialises as a
:class:`~repro.data.table.DataTable` with the dataset's exact schema
(kinds forced, never re-inferred — a delta of integer-looking strings in
a categorical column stays categorical).

What validation costs: the batch is read **once**.  Records are checked
as mappings over known keys (a set comparison each), gathered column by
column, and every cell is then classified exactly once: a numeric column
holding only plain ``int`` / ``float`` values — what a JSON client sends
— becomes its array in one ``np.array`` call (NaN marks missing, as
:class:`~repro.data.column.NumericColumn` defines it), and any other
column goes through the column type's ``from_raw``, which parses each
cell and reports the ones it could not in the same step.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import DeltaValidationError
from repro.data.column import Column, NumericColumn, column_from_raw
from repro.data.schema import ColumnKind, Field, Schema
from repro.data.table import DataTable

#: Refuse pathologically large single batches; callers should chunk.
MAX_BATCH_ROWS = 100_000


@dataclass(frozen=True)
class DeltaBatch:
    """A schema-validated batch of rows to append to one dataset.

    Build via :meth:`from_records`; the ``table`` attribute holds the
    rows as a :class:`DataTable` whose schema matches the target
    dataset's column names and kinds, ready for
    :meth:`DataTable.concat`.
    """

    dataset: str
    table: DataTable

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @classmethod
    def from_records(
        cls,
        dataset: str,
        records: Sequence[Mapping[str, Any]],
        schema: Schema,
    ) -> "DeltaBatch":
        """Validate ``records`` against ``schema`` and materialise them.

        Raises :class:`DeltaValidationError` carrying every problem found
        (not just the first), so clients get one round trip of feedback.
        """
        if not isinstance(records, Sequence) or isinstance(records, (str, bytes)):
            raise DeltaValidationError(
                dataset, ["rows must be a list of record objects"]
            )
        if not records:
            raise DeltaValidationError(dataset, ["batch contains no rows"])
        if len(records) > MAX_BATCH_ROWS:
            raise DeltaValidationError(
                dataset,
                [f"batch has {len(records)} rows; the per-batch limit is "
                 f"{MAX_BATCH_ROWS} (split into smaller appends)"],
            )
        known = set(schema.names())
        # (row, column position, text): sorted into row-major order — a
        # row-level problem (position -1) first — before they are reported.
        problems: list[tuple[int, int, str]] = []
        rows: list[int] = []
        accepted: list[Mapping[str, Any]] = []
        for index, record in enumerate(records):
            if not isinstance(record, Mapping):
                problems.append((index, -1, f"row {index}: not a record object"))
            elif not record.keys() <= known:
                unknown = sorted(key for key in record if key not in known)
                problems.append(
                    (index, -1, f"row {index}: unknown column(s) {unknown}")
                )
            else:
                rows.append(index)
                accepted.append(record)
        built: list[Column] = []
        for position, field in enumerate(schema):
            name, kind = field.name, field.kind
            values = [record.get(name) for record in accepted]
            rejected: list[int] = []
            built.append(_parse_column(name, kind, values, rejected))
            problems += [
                (rows[i], position,
                 f"row {rows[i]}, column {name!r}: {_problem(kind, values[i])}")
                for i in rejected
            ]
        if problems:
            # Any problem rejects the whole batch: nothing materialises.
            raise DeltaValidationError(
                dataset, [text for _, _, text in sorted(problems)]
            )
        return cls(dataset=dataset, table=DataTable(built, name=f"{dataset}-delta"))

    def to_records(self) -> list[dict[str, Any]]:
        """The validated rows (None marks missing values)."""
        return self.table.to_records()


#: The exact types one ``np.array`` call converts as ``float()`` would
#: (``bool`` is an ``int`` subclass but not a plain number; a ``str`` needs
#: parsing; ``None`` is missing).
_PLAIN_NUMBERS = frozenset({int, float})


def _parse_column(name: str, kind: ColumnKind, values: list[Any],
                  rejected: list[int]) -> Column:
    """One column of the batch; inadmissible cells' positions go to
    ``rejected`` (and are stored as missing — the batch will be refused)."""
    if kind is ColumnKind.NUMERIC and _PLAIN_NUMBERS.issuperset(map(type, values)):
        try:
            array = np.array(values, dtype=np.float64)
        except OverflowError:
            pass  # an int beyond the float range: the cell path names it
        else:
            return NumericColumn(Field(name=name, kind=kind), array)
    return column_from_raw(name, values, kind, rejected)


def _problem(kind: ColumnKind, value: Any) -> str:
    """Why ``from_raw`` rejected ``value`` under ``kind``."""
    if kind is ColumnKind.NUMERIC:
        return f"value {value!r} is not numeric"
    if kind is ColumnKind.BOOLEAN:
        return f"value {value!r} is not boolean"
    return f"value of type {type(value).__name__} is not a categorical label"


__all__ = ["DeltaBatch", "MAX_BATCH_ROWS"]
