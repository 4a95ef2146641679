"""The :class:`DataTable`: Foresight's input matrix ``A(n x d)``.

A ``DataTable`` is an ordered collection of typed columns of equal length.
It supports the operations the insight engine needs:

* schema access (numeric set ``B`` and categorical set ``C``);
* column selection and row filtering / sampling;
* export of the numeric block as a dense matrix (for sketch construction);
* construction from column dicts, from row records and from raw values with
  schema inference.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError, UnknownColumnError
from repro.data.column import (
    BooleanColumn,
    CategoricalColumn,
    Column,
    NumericColumn,
    column_from_raw,
)
from repro.data.schema import ColumnKind, Field, Schema, infer_schema


class DataTable:
    """An immutable, columnar table of typed columns.

    Parameters
    ----------
    columns:
        The columns, all of the same length.  Order is preserved and
        determines attribute indices (used e.g. by the overview heat map).
    name:
        Optional dataset name, surfaced in visualizations and sessions.
    """

    def __init__(self, columns: Iterable[Column], name: str = "dataset"):
        self._columns: list[Column] = list(columns)
        self._name = name
        if not self._columns:
            self._n_rows = 0
        else:
            lengths = {len(c) for c in self._columns}
            if len(lengths) != 1:
                raise SchemaError(
                    f"all columns must have the same length, got lengths {sorted(lengths)}"
                )
            self._n_rows = lengths.pop()
        self._index: dict[str, int] = {}
        for i, column in enumerate(self._columns):
            if column.name in self._index:
                raise SchemaError(f"duplicate column name {column.name!r}")
            self._index[column.name] = i

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls, columns: Mapping[str, Sequence[object]], name: str = "dataset",
        kinds: Mapping[str, ColumnKind] | None = None,
    ) -> "DataTable":
        """Build a table from a mapping of column name -> raw values.

        Column kinds are inferred unless overridden via ``kinds``.
        """
        kinds = dict(kinds or {})
        names = list(columns.keys())
        rows = list(zip(*columns.values())) if columns else []
        schema = infer_schema(names, rows, overrides=kinds)
        built = [
            column_from_raw(field.name, list(columns[field.name]), field.kind)
            for field in schema
        ]
        return cls(built, name=name)

    @classmethod
    def from_records(
        cls, records: Sequence[Mapping[str, object]], name: str = "dataset",
        kinds: Mapping[str, ColumnKind] | None = None,
    ) -> "DataTable":
        """Build a table from a list of row dictionaries."""
        if not records:
            return cls([], name=name)
        names: list[str] = []
        for record in records:
            for key in record:
                if key not in names:
                    names.append(key)
        columns = {key: [record.get(key) for record in records] for key in names}
        return cls.from_columns(columns, name=name, kinds=kinds)

    @classmethod
    def from_numeric_matrix(
        cls, matrix: np.ndarray, column_names: Sequence[str] | None = None,
        name: str = "dataset",
    ) -> "DataTable":
        """Build an all-numeric table from a dense ``(n, d)`` matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise SchemaError("matrix must be two-dimensional")
        d = matrix.shape[1]
        if column_names is None:
            column_names = [f"x{j}" for j in range(d)]
        if len(column_names) != d:
            raise SchemaError("column_names length must match matrix width")
        columns = [
            NumericColumn(Field(name=column_names[j], kind=ColumnKind.NUMERIC), matrix[:, j])
            for j in range(d)
        ]
        return cls(columns, name=name)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_columns) — the paper's (n, d)."""
        return (self._n_rows, len(self._columns))

    @property
    def schema(self) -> Schema:
        return Schema(column.field for column in self._columns)

    def column_names(self) -> list[str]:
        return [column.name for column in self._columns]

    def numeric_names(self) -> list[str]:
        """Names of the numeric columns (the paper's set ``B``)."""
        return [c.name for c in self._columns if c.kind.is_numeric]

    def categorical_names(self) -> list[str]:
        """Names of the categorical/boolean columns (the paper's set ``C``)."""
        return [c.name for c in self._columns if c.kind.is_categorical]

    def discrete_names(self, max_distinct: int = 20) -> list[str]:
        """Categorical columns plus low-cardinality integer numeric columns.

        These are the columns eligible for the heterogeneous-frequencies
        insight (paper section 2.2, insight 5).
        """
        names = self.categorical_names()
        for column in self._columns:
            if isinstance(column, NumericColumn) and column.is_discrete(max_distinct):
                names.append(column.name)
        return names

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def column(self, name: str) -> Column:
        """Return a column by name."""
        if name not in self._index:
            raise UnknownColumnError(name, self.column_names())
        return self._columns[self._index[name]]

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def numeric_column(self, name: str) -> NumericColumn:
        """Return a column by name, requiring it to be numeric."""
        column = self.column(name)
        if not isinstance(column, NumericColumn):
            raise SchemaError(f"column {name!r} is not numeric (kind={column.kind})")
        return column

    def categorical_column(self, name: str) -> CategoricalColumn:
        """Return a column by name, requiring it to be categorical."""
        column = self.column(name)
        if not isinstance(column, CategoricalColumn):
            raise SchemaError(f"column {name!r} is not categorical (kind={column.kind})")
        return column

    def columns(self) -> list[Column]:
        return list(self._columns)

    def numeric_columns(self) -> list[NumericColumn]:
        return [c for c in self._columns if isinstance(c, NumericColumn)]

    def categorical_columns(self) -> list[CategoricalColumn]:
        return [
            c for c in self._columns
            if isinstance(c, CategoricalColumn)
        ]

    # ------------------------------------------------------------------
    # Table transformations (all return new tables)
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str], name: str | None = None) -> "DataTable":
        """Return a new table with only the named columns, in that order."""
        return DataTable(
            [self.column(n) for n in names], name=name or self._name
        )

    def drop(self, names: Sequence[str]) -> "DataTable":
        """Return a new table without the named columns."""
        to_drop = set(names)
        for n in names:
            if n not in self._index:
                raise UnknownColumnError(n, self.column_names())
        return DataTable(
            [c for c in self._columns if c.name not in to_drop], name=self._name
        )

    def rename(self, mapping: Mapping[str, str]) -> "DataTable":
        """Return a new table with columns renamed via ``mapping``."""
        for old in mapping:
            if old not in self._index:
                raise UnknownColumnError(old, self.column_names())
        return DataTable(
            [
                c.rename(mapping[c.name]) if c.name in mapping else c
                for c in self._columns
            ],
            name=self._name,
        )

    def take(self, indices: Sequence[int] | np.ndarray, name: str | None = None) -> "DataTable":
        """Return a new table containing the rows at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return DataTable(
            [c.take(indices) for c in self._columns], name=name or self._name
        )

    def head(self, n: int = 10) -> "DataTable":
        """Return the first ``n`` rows."""
        n = min(n, self._n_rows)
        return self.take(np.arange(n))

    def filter_rows(self, predicate: Callable[[dict[str, object]], bool]) -> "DataTable":
        """Return rows for which ``predicate(row_dict)`` is truthy."""
        keep = [i for i, row in enumerate(self.iter_records()) if predicate(row)]
        return self.take(np.asarray(keep, dtype=np.int64))

    def sample(self, n: int, seed: int | None = None, replace: bool = False) -> "DataTable":
        """Return a uniform random sample of ``n`` rows."""
        rng = np.random.default_rng(seed)
        if not replace:
            n = min(n, self._n_rows)
        indices = rng.choice(self._n_rows, size=n, replace=replace)
        return self.take(indices)

    def split(self, fraction: float, seed: int | None = None) -> tuple["DataTable", "DataTable"]:
        """Randomly split rows into two tables (``fraction``, ``1 - fraction``)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(self._n_rows)
        cut = int(round(fraction * self._n_rows))
        return self.take(permutation[:cut]), self.take(permutation[cut:])

    def concat(self, *others: "DataTable", name: str | None = None) -> "DataTable":
        """Return a new table with ``others``' rows appended after this
        one's, in order — one array concatenation per column.

        Each of ``others`` must carry exactly this table's columns (same
        names and kinds; order may differ — columns are matched by name).
        New categorical levels extend the category lists in order of
        appearance, part by part, as chained concats would.  This is the
        row-append primitive behind the live-ingestion path.
        """
        if self.n_columns == 0:
            raise SchemaError("cannot concat onto a table with no columns")
        for other in others:
            missing = [n for n in self.column_names() if n not in other]
            extra = [n for n in other.column_names() if n not in self._index]
            if missing or extra:
                raise SchemaError(
                    f"cannot concat tables with different columns "
                    f"(missing: {missing}, unexpected: {extra})"
                )
        return DataTable(
            [column.concat(*(other.column(column.name) for other in others))
             for column in self._columns],
            name=name or self._name,
        )

    def with_column(self, column: Column) -> "DataTable":
        """Return a new table with ``column`` appended (or replaced)."""
        if len(column) != self._n_rows and self._columns:
            raise SchemaError(
                f"column length {len(column)} does not match table length {self._n_rows}"
            )
        if column.name in self._index:
            replaced = [
                column if c.name == column.name else c for c in self._columns
            ]
            return DataTable(replaced, name=self._name)
        return DataTable(self._columns + [column], name=self._name)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def numeric_matrix(self, names: Sequence[str] | None = None) -> tuple[np.ndarray, list[str]]:
        """Return the numeric block as an ``(n, |B|)`` float matrix.

        Missing values are returned as NaN; callers decide the policy.
        Returns the matrix and the column names in matrix order.
        """
        if names is None:
            names = self.numeric_names()
        arrays = []
        for name in names:
            column = self.numeric_column(name)
            values = column.values.copy()
            values[column.mask] = np.nan
            arrays.append(values)
        if not arrays:
            return np.empty((self._n_rows, 0), dtype=np.float64), []
        return np.column_stack(arrays), list(names)

    def iter_records(self) -> Iterator[dict[str, object]]:
        """Iterate over rows as dictionaries (None marks missing values)."""
        materialised = [column.to_list() for column in self._columns]
        names = self.column_names()
        for i in range(self._n_rows):
            yield {name: materialised[j][i] for j, name in enumerate(names)}

    def to_records(self) -> list[dict[str, object]]:
        """Return all rows as a list of dictionaries."""
        return list(self.iter_records())

    def to_columns(self) -> dict[str, list[object]]:
        """Return the table as a mapping of column name -> list of values."""
        return {column.name: column.to_list() for column in self._columns}

    def summary(self) -> dict[str, object]:
        """A small structural summary used by examples and the engine."""
        return {
            "name": self._name,
            "n_rows": self._n_rows,
            "n_columns": self.n_columns,
            "numeric_columns": self.numeric_names(),
            "categorical_columns": self.categorical_names(),
            "missing_cells": int(sum(c.missing_count() for c in self._columns)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataTable(name={self._name!r}, n_rows={self._n_rows}, "
            f"n_columns={self.n_columns})"
        )
