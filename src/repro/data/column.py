"""Typed column containers backed by NumPy arrays.

A column couples a :class:`repro.data.schema.Field` with a value array and a
missing-value mask.  Three concrete column types exist:

* :class:`NumericColumn` — float64 values (the paper's set ``B``);
* :class:`CategoricalColumn` — string labels stored as integer codes plus a
  category list (the paper's set ``C``);
* :class:`BooleanColumn` — a two-level categorical column specialised for
  booleans.

Columns are immutable from the caller's perspective: all transforming
operations return new column objects, and ``values``/``mask`` accessors
return read-only views.

``from_raw`` parses raw cells under the column's kind.  A cell that is
neither missing nor parseable becomes missing — the lenient policy of a
file load — and, when the caller passes a ``rejected`` list, its position
is appended there, so a strict caller (the append path's
:class:`~repro.ingest.delta.DeltaBatch`) validates and parses in one pass.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ColumnTypeError, EmptyColumnError, SchemaError
from repro.obs.resources import record_rows
from repro.data.schema import (
    ColumnKind,
    Field,
    is_missing_token,
    parse_boolean,
    parse_number,
)


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Column:
    """Abstract base class for typed columns."""

    def __init__(self, field: Field, mask: np.ndarray):
        self._field = field
        self._mask = np.asarray(mask, dtype=bool)

    # -- schema ----------------------------------------------------------
    @property
    def field(self) -> Field:
        """The schema field describing this column."""
        return self._field

    @property
    def name(self) -> str:
        return self._field.name

    @property
    def kind(self) -> ColumnKind:
        return self._field.kind

    # -- missing values ----------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        """Boolean array; True where the value is missing."""
        return _readonly(self._mask)

    def missing_count(self) -> int:
        """Number of missing values."""
        return int(self._mask.sum())

    def missing_fraction(self) -> float:
        """Fraction of missing values (0.0 for an empty column)."""
        if len(self) == 0:
            return 0.0
        return self.missing_count() / len(self)

    def valid_count(self) -> int:
        """Number of non-missing values."""
        return len(self) - self.missing_count()

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return int(self._mask.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, n={len(self)}, "
            f"missing={self.missing_count()})"
        )

    # -- to be provided by subclasses ---------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column containing the rows at ``indices``."""
        raise NotImplementedError

    def rename(self, name: str) -> "Column":
        """Return a copy of this column with a new name."""
        raise NotImplementedError

    def to_list(self) -> list[object]:
        """Return the column as a Python list with None for missing values."""
        raise NotImplementedError

    def concat(self, *others: "Column") -> "Column":
        """Return a new column with ``others``' rows appended after this
        one's, in order.

        All columns must have the same name and kind; the result keeps
        this column's field metadata.  Used by the live-ingestion path to
        extend a dataset with validated delta batches.
        """
        raise NotImplementedError

    def _require_concat_compatible(self, others: "tuple[Column, ...]") -> None:
        for other in others:
            if type(self) is not type(other):
                raise ColumnTypeError(
                    f"cannot concat {type(other).__name__} onto "
                    f"{type(self).__name__} (column {self.name!r})"
                )
            if self.name != other.name:
                raise SchemaError(
                    f"cannot concat column {other.name!r} onto column {self.name!r}"
                )
            if self.kind is not other.kind:
                raise SchemaError(
                    f"cannot concat column {self.name!r}: kind {other.kind} "
                    f"!= {self.kind}"
                )


class NumericColumn(Column):
    """A numeric column stored as float64 with an explicit missing mask."""

    def __init__(self, field: Field, values: np.ndarray, mask: np.ndarray | None = None):
        if not field.kind.is_numeric:
            raise ColumnTypeError(
                f"NumericColumn requires a NUMERIC field, got {field.kind}"
            )
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise SchemaError("column values must be one-dimensional")
        missing = np.isnan(values)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != values.shape:
                raise SchemaError("mask shape must match values shape")
            # Normalise: every NaN is missing even if the caller's mask says not.
            missing |= mask
        super().__init__(field, missing)
        self._values = values

    @classmethod
    def _validated(cls, field: Field, values: np.ndarray, mask: np.ndarray) -> "NumericColumn":
        """A column over arrays that already satisfy ``__init__``'s checks
        (float64 values, a boolean mask of their shape covering every NaN):
        what indexing or concatenating existing columns' arrays yields."""
        column = object.__new__(cls)
        Column.__init__(column, field, mask)
        column._values = values
        return column

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_raw(cls, name: str, raw_values: Sequence[object],
                 rejected: list[int] | None = None, **field_kwargs) -> "NumericColumn":
        """Build a numeric column from raw (possibly string) values."""
        parsed = np.full(len(raw_values), np.nan)
        for i, value in enumerate(raw_values):
            if is_missing_token(value):
                continue
            number = parse_number(value)
            if number is not None:
                parsed[i] = number
            elif rejected is not None:
                rejected.append(i)
        field = Field(name=name, kind=ColumnKind.NUMERIC, **field_kwargs)
        return cls(field, parsed)

    # -- accessors ----------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """All values as float64 (missing entries hold NaN)."""
        return _readonly(self._values)

    def valid_values(self) -> np.ndarray:
        """Only the non-missing values, as a new float64 array.

        Every exact (non-sketch) metric evaluation funnels through here,
        so this is where scanned rows bill to the ambient cost recorder.
        """
        record_rows(len(self))
        return self._values[~self._mask].copy()

    def require_valid_values(self, minimum: int = 1) -> np.ndarray:
        """Return non-missing values, raising if fewer than ``minimum`` exist."""
        values = self.valid_values()
        if values.size < minimum:
            raise EmptyColumnError(
                f"column {self.name!r} has {values.size} usable values; "
                f"{minimum} required"
            )
        return values

    def is_discrete(self, max_distinct: int = 20) -> bool:
        """True if the column is integer-valued with few distinct values.

        The heterogeneous-frequencies insight applies to categorical columns
        *and* discrete numeric columns (paper section 2.2, insight 5); this
        predicate is how the engine decides that a numeric column qualifies.
        """
        values = self.valid_values()
        if values.size == 0:
            return False
        if not np.all(np.isclose(values, np.round(values))):
            return False
        return np.unique(values).size <= max_distinct

    # -- transformations ------------------------------------------------------
    def take(self, indices: np.ndarray) -> "NumericColumn":
        indices = np.asarray(indices)
        return NumericColumn._validated(
            self._field, self._values[indices], self._mask[indices]
        )

    def rename(self, name: str) -> "NumericColumn":
        field = Field(
            name=name,
            kind=self._field.kind,
            description=self._field.description,
            unit=self._field.unit,
            tags=self._field.tags,
        )
        return NumericColumn(field, self._values.copy(), self._mask.copy())

    def to_list(self) -> list[object]:
        values = self._values.tolist()
        for index in np.flatnonzero(self._mask).tolist():
            values[index] = None
        return values

    def concat(self, *others: "Column") -> "NumericColumn":
        self._require_concat_compatible(others)
        parts = (self, *others)
        return NumericColumn._validated(
            self._field,
            np.concatenate([part._values for part in parts]),
            np.concatenate([part._mask for part in parts]),
        )


class CategoricalColumn(Column):
    """A categorical column stored as integer codes plus category labels."""

    #: Code used for missing entries.
    MISSING_CODE = -1

    def __init__(self, field: Field, codes: np.ndarray, categories: Sequence[str]):
        if not field.kind.is_categorical:
            raise ColumnTypeError(
                f"CategoricalColumn requires a categorical field, got {field.kind}"
            )
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise SchemaError("column codes must be one-dimensional")
        categories = [str(c) for c in categories]
        if len(set(categories)) != len(categories):
            raise SchemaError("categories must be unique")
        if codes.size and codes.max(initial=self.MISSING_CODE) >= len(categories):
            raise SchemaError("code out of range for category list")
        if codes.size and codes.min(initial=0) < self.MISSING_CODE:
            raise SchemaError("negative code other than the missing code")
        mask = codes == self.MISSING_CODE
        super().__init__(field, mask)
        self._codes = codes
        self._categories = list(categories)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_raw(
        cls,
        name: str,
        raw_values: Sequence[object],
        kind: ColumnKind = ColumnKind.CATEGORICAL,
        rejected: list[int] | None = None,
        **field_kwargs,
    ) -> "CategoricalColumn":
        """Build a categorical column from raw values (labels).

        Any scalar is a label; a container almost always indicates a
        malformed payload, so a strict caller has it ``rejected``.
        """
        labels: list[str] = []
        label_index: dict[str, int] = {}
        # Raw string cell -> code: a column repeats few labels many times,
        # and a str key equals only the same str (1, 1.0 and True would
        # share a slot; they take the full path every time).
        seen: dict[str, int] = {}
        codes = np.full(len(raw_values), cls.MISSING_CODE, dtype=np.int64)
        for i, value in enumerate(raw_values):
            is_text = type(value) is str
            if is_text and value in seen:
                codes[i] = seen[value]
                continue
            if is_missing_token(value):
                code = cls.MISSING_CODE
            elif rejected is not None and isinstance(value, (list, tuple, dict, set)):
                rejected.append(i)
                continue
            else:
                label = str(value).strip()
                if label not in label_index:
                    label_index[label] = len(labels)
                    labels.append(label)
                code = codes[i] = label_index[label]
            if is_text:
                seen[value] = code
        field = Field(name=name, kind=kind, **field_kwargs)
        return cls(field, codes, labels)

    # -- accessors ----------------------------------------------------------
    @property
    def codes(self) -> np.ndarray:
        """Integer codes; ``MISSING_CODE`` marks missing entries."""
        return _readonly(self._codes)

    @property
    def categories(self) -> list[str]:
        """The category labels, indexed by code."""
        return list(self._categories)

    def n_categories(self) -> int:
        return len(self._categories)

    def labels(self) -> list[str | None]:
        """All values as labels, with None for missing entries."""
        return [
            None if code == self.MISSING_CODE else self._categories[code]
            for code in self._codes
        ]

    def valid_labels(self) -> list[str]:
        """Only the non-missing labels."""
        return [self._categories[code] for code in self._codes if code != self.MISSING_CODE]

    def valid_codes(self) -> np.ndarray:
        """Only the non-missing codes, as a new int64 array."""
        record_rows(len(self))
        return self._codes[~self._mask].copy()

    def value_counts(self) -> dict[str, int]:
        """Frequency of each category among non-missing values, descending."""
        record_rows(len(self))
        counts = np.bincount(
            self._codes[~self._mask], minlength=len(self._categories)
        )
        pairs = sorted(
            zip(self._categories, counts.tolist()), key=lambda p: (-p[1], p[0])
        )
        return {label: count for label, count in pairs if count > 0}

    # -- transformations ------------------------------------------------------
    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        indices = np.asarray(indices)
        return CategoricalColumn(self._field, self._codes[indices], self._categories)

    def rename(self, name: str) -> "CategoricalColumn":
        field = Field(
            name=name,
            kind=self._field.kind,
            description=self._field.description,
            unit=self._field.unit,
            tags=self._field.tags,
        )
        return CategoricalColumn(field, self._codes.copy(), self._categories)

    def to_list(self) -> list[object]:
        return self.labels()

    def concat(self, *others: "Column") -> "CategoricalColumn":
        self._require_concat_compatible(others)
        categories = list(self._categories)
        category_index = {label: code for code, label in enumerate(categories)}
        parts = [self._codes]
        for other in others:
            remap = np.empty(len(other._categories) + 1, dtype=np.int64)
            remap[-1] = self.MISSING_CODE
            for code, label in enumerate(other._categories):
                if label not in category_index:
                    category_index[label] = len(categories)
                    categories.append(label)
                remap[code] = category_index[label]
            parts.append(remap[other._codes])
        return CategoricalColumn(self._field, np.concatenate(parts), categories)


class BooleanColumn(CategoricalColumn):
    """A boolean column, represented as a two-level categorical column."""

    TRUE_LABEL = "true"
    FALSE_LABEL = "false"

    def __init__(self, field: Field, codes: np.ndarray):
        if field.kind is not ColumnKind.BOOLEAN:
            raise ColumnTypeError(
                f"BooleanColumn requires a BOOLEAN field, got {field.kind}"
            )
        super().__init__(field, codes, [self.FALSE_LABEL, self.TRUE_LABEL])

    @classmethod
    def from_raw(cls, name: str, raw_values: Sequence[object],
                 rejected: list[int] | None = None, **field_kwargs) -> "BooleanColumn":
        codes = np.full(len(raw_values), cls.MISSING_CODE, dtype=np.int64)
        for i, value in enumerate(raw_values):
            if is_missing_token(value):
                continue
            parsed = parse_boolean(value)
            if parsed is not None:
                codes[i] = int(parsed)
            elif rejected is not None:
                rejected.append(i)
        field = Field(name=name, kind=ColumnKind.BOOLEAN, **field_kwargs)
        return cls(field, codes)

    def take(self, indices: np.ndarray) -> "BooleanColumn":
        indices = np.asarray(indices)
        return BooleanColumn(self._field, self._codes[indices])

    def rename(self, name: str) -> "BooleanColumn":
        field = Field(
            name=name,
            kind=self._field.kind,
            description=self._field.description,
            unit=self._field.unit,
            tags=self._field.tags,
        )
        return BooleanColumn(field, self._codes.copy())

    def to_bool_array(self) -> np.ndarray:
        """Return a boolean array over non-missing entries."""
        return self.valid_codes().astype(bool)

    def concat(self, *others: "Column") -> "BooleanColumn":
        self._require_concat_compatible(others)
        return BooleanColumn(self._field, np.concatenate(
            [self._codes, *(other._codes for other in others)]))


def column_from_raw(name: str, raw_values: Sequence[object], kind: ColumnKind,
                    rejected: list[int] | None = None) -> Column:
    """Build the appropriate column type for ``kind`` from raw values
    (``rejected`` collects the positions of unparseable cells)."""
    if kind is ColumnKind.NUMERIC:
        return NumericColumn.from_raw(name, raw_values, rejected=rejected)
    if kind is ColumnKind.BOOLEAN:
        return BooleanColumn.from_raw(name, raw_values, rejected=rejected)
    if kind is ColumnKind.CATEGORICAL:
        return CategoricalColumn.from_raw(name, raw_values, rejected=rejected)
    raise ColumnTypeError(f"unsupported column kind {kind!r}")


def numeric_column(name: str, values: Iterable[float], **field_kwargs) -> NumericColumn:
    """Convenience constructor for a numeric column from an iterable."""
    array = np.asarray(list(values), dtype=np.float64)
    field = Field(name=name, kind=ColumnKind.NUMERIC, **field_kwargs)
    return NumericColumn(field, array)


def categorical_column(name: str, labels: Iterable[object], **field_kwargs) -> CategoricalColumn:
    """Convenience constructor for a categorical column from labels."""
    return CategoricalColumn.from_raw(name, list(labels), **field_kwargs)
