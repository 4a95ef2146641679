"""Column kinds, field descriptors and schema inference.

The paper models the input as a matrix ``A(n x d)`` whose columns are either
numeric (set ``B``) or categorical (set ``C``).  This module provides the
typed schema layer on top of which :class:`repro.data.table.DataTable` is
built: a :class:`ColumnKind` enumeration, a :class:`Field` descriptor
(name, kind, metadata) and :class:`Schema`, an ordered collection of fields.

Schema inference (:func:`infer_kind`, :func:`infer_schema`) converts raw
string/object values (e.g. read from CSV) into the most specific kind that
represents them: boolean, numeric, or categorical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, UnknownColumnError

#: Values treated as missing during inference and parsing.
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "missing", "?"})

#: Values treated as boolean true / false during inference.
TRUE_TOKENS = frozenset({"true", "t", "yes", "y", "1"})
FALSE_TOKENS = frozenset({"false", "f", "no", "n", "0"})


class ColumnKind(enum.Enum):
    """The kind of a column, which decides which insights apply to it.

    ``NUMERIC`` columns belong to the paper's set ``B`` and participate in
    dispersion, skew, heavy-tails, outlier, correlation and related
    insights.  ``CATEGORICAL`` columns belong to the set ``C`` and
    participate in heterogeneous-frequency, dependence and segmentation
    insights.  ``BOOLEAN`` columns are treated as categorical with two
    levels but keep their own kind so visualizations can special-case them.
    """

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"

    @property
    def is_numeric(self) -> bool:
        return self is ColumnKind.NUMERIC

    @property
    def is_categorical(self) -> bool:
        return self in (ColumnKind.CATEGORICAL, ColumnKind.BOOLEAN)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Field:
    """A named, typed column descriptor.

    Parameters
    ----------
    name:
        Column name, unique within a schema.
    kind:
        The :class:`ColumnKind` of the column.
    description:
        Optional human readable description (surfaced in visualizations).
    unit:
        Optional unit of measure (e.g. ``"hours"``, ``"USD"``).
    tags:
        Optional free-form metadata tags; reserved for the future-work
        metadata constraints mentioned in the paper (currency, dates, ...).
    """

    name: str
    kind: ColumnKind
    description: str = ""
    unit: str = ""
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be a non-empty string")
        if not isinstance(self.kind, ColumnKind):
            raise SchemaError(f"field kind must be a ColumnKind, got {self.kind!r}")

    def with_description(self, description: str) -> "Field":
        """Return a copy of this field with a new description."""
        return replace(self, description=description)

    def with_tags(self, *tags: str) -> "Field":
        """Return a copy of this field with the given tags appended."""
        return replace(self, tags=self.tags + tuple(tags))


class Schema:
    """An ordered, name-indexed collection of :class:`Field` objects."""

    def __init__(self, fields: Iterable[Field] = ()):
        self._fields: list[Field] = []
        self._index: dict[str, int] = {}
        for f in fields:
            self.add(f)

    # -- construction -----------------------------------------------------
    def add(self, field_: Field) -> None:
        """Append a field; names must be unique."""
        if field_.name in self._index:
            raise SchemaError(f"duplicate column name {field_.name!r}")
        self._index[field_.name] = len(self._fields)
        self._fields.append(field_)

    def replace(self, field_: Field) -> None:
        """Replace the field with the same name as ``field_``."""
        if field_.name not in self._index:
            raise UnknownColumnError(field_.name, self.names())
        self._fields[self._index[field_.name]] = field_

    def drop(self, name: str) -> None:
        """Remove a field by name."""
        if name not in self._index:
            raise UnknownColumnError(name, self.names())
        position = self._index.pop(name)
        del self._fields[position]
        for other, idx in list(self._index.items()):
            if idx > position:
                self._index[other] = idx - 1

    # -- lookup -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Field:
        if name not in self._index:
            raise UnknownColumnError(name, self.names())
        return self._fields[self._index[name]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def index_of(self, name: str) -> int:
        """Return the ordinal position of a column."""
        if name not in self._index:
            raise UnknownColumnError(name, self.names())
        return self._index[name]

    def names(self) -> list[str]:
        """Return all column names in order."""
        return [f.name for f in self._fields]

    def numeric_names(self) -> list[str]:
        """Names of columns in the paper's numeric set ``B``."""
        return [f.name for f in self._fields if f.kind.is_numeric]

    def categorical_names(self) -> list[str]:
        """Names of columns in the paper's categorical set ``C``."""
        return [f.name for f in self._fields if f.kind.is_categorical]

    def select(self, names: Sequence[str]) -> "Schema":
        """Return a new schema restricted to ``names`` (in the given order)."""
        return Schema(self[name] for name in names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{f.name}:{f.kind.value}" for f in self._fields)
        return f"Schema({parts})"


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def is_missing_token(value: object) -> bool:
    """Return True if a raw value should be treated as missing."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str):
        return value.strip().lower() in MISSING_TOKENS
    return False


def parse_number(value: object) -> float | None:
    """Parse a raw value as a float, returning None if it is not numeric."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        try:
            value_f = float(value)
        except OverflowError:  # an int beyond the float range
            return None
        return None if math.isnan(value_f) else value_f
    if isinstance(value, str):
        text = value.strip().replace(",", "")
        if not text:
            return None
        try:
            return float(text)
        except ValueError:
            return None
    return None


def parse_boolean(value: object) -> bool | None:
    """Parse a raw value as a boolean, returning None if it is not boolean."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        text = value.strip().lower()
        if text in TRUE_TOKENS:
            return True
        if text in FALSE_TOKENS:
            return False
    return None


def infer_kind(values: Iterable[object], categorical_threshold: int = 20) -> ColumnKind:
    """Infer the :class:`ColumnKind` of a sequence of raw values.

    The inference rules follow common EDA-tool behaviour:

    * if every non-missing value parses as boolean -> ``BOOLEAN``;
    * else if every non-missing value parses as a number -> ``NUMERIC``,
      unless the column is integer-valued with at most
      ``categorical_threshold`` distinct values *and* the values look like
      codes (small non-negative integers), in which case it stays NUMERIC —
      the insight classes themselves decide whether to treat low-cardinality
      numeric columns as discrete;
    * otherwise -> ``CATEGORICAL``.
    """
    saw_value = False
    all_boolean = True
    all_numeric = True
    for value in values:
        if is_missing_token(value):
            continue
        saw_value = True
        if all_boolean and parse_boolean(value) is None:
            all_boolean = False
        if all_numeric and parse_number(value) is None:
            all_numeric = False
        if not all_boolean and not all_numeric:
            return ColumnKind.CATEGORICAL
    if not saw_value:
        # An all-missing column defaults to categorical; it carries no
        # numeric information and categorical handling is the safest.
        return ColumnKind.CATEGORICAL
    if all_boolean:
        return ColumnKind.BOOLEAN
    if all_numeric:
        return ColumnKind.NUMERIC
    return ColumnKind.CATEGORICAL


def infer_schema(
    names: Sequence[str],
    rows: Sequence[Sequence[object]],
    overrides: Mapping[str, ColumnKind] | None = None,
) -> Schema:
    """Infer a :class:`Schema` for tabular raw data.

    Parameters
    ----------
    names:
        Column names, in order.
    rows:
        Row-major raw values (each row a sequence aligned with ``names``).
    overrides:
        Optional explicit kinds that bypass inference for specific columns.
    """
    overrides = dict(overrides or {})
    schema = Schema()
    for j, name in enumerate(names):
        if name in overrides:
            kind = overrides[name]
        else:
            kind = infer_kind(row[j] for row in rows)
        schema.add(Field(name=name, kind=kind))
    return schema
