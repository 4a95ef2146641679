"""Per-column arrays of one table, the input of the whole-class kernels.

The kernel-scored insight classes score every candidate of a request with
one :mod:`repro.stats` array kernel instead of one Python call per tuple.
The kernels read a :class:`TableFeatures`: the numeric block with one
variable per row — ``(d, n)``, C-contiguous, so a pair is two row gathers
and every reduction runs along the contiguous axis — raw, standardised,
rank-transformed and standardised again, plus one one-hot block per
categorical column.
Every array is derived from its own column alone, on first use.

In sketch mode the features are of the store's row sample and live as long
as the store (:meth:`repro.sketch.store.SketchStore.sample_features`); in
exact mode they are derived from the full table for one call.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.data.missing import drop_missing
from repro.data.table import DataTable
from repro.obs.resources import record_rows
from repro.stats.correlation import average_ranks, standardize
from repro.stats.dependence import one_hot


class TableFeatures:
    """Lazily derived kernel inputs over ``table`` (treated as immutable)."""

    def __init__(self, table: DataTable):
        self.table = table
        self.n_rows = table.n_rows
        self._numeric_index = {
            column.name: j for j, column in enumerate(table.numeric_columns())}
        #: The columns with no missing entry.
        self.complete = frozenset(
            column.name for column in table if not column.mask.any())
        self._onehot: dict[str, np.ndarray] = {}
        # The one scan of these rows: what is derived from here on is
        # arithmetic on arrays, whoever asks and however often.
        record_rows(table.n_rows)

    def on_complete_rows(self, names: Sequence[str]) -> "TableFeatures":
        """Features of the named columns over the rows where all of them
        are present: what gives a tuple touching a column with missing
        entries its pairwise-complete value from the same kernels."""
        return TableFeatures(drop_missing(self.table.select(names)))

    def numeric_rows(self, names: Iterable[str]) -> np.ndarray:
        """Row indices of the named numeric columns in the (d, n) arrays."""
        return np.array([self._numeric_index[name] for name in names], dtype=np.intp)

    def valid_values(self, name: str) -> np.ndarray:
        """The non-missing values of one numeric column."""
        column = self.table.numeric_column(name)
        return column.values[~column.mask]

    @cached_property
    def filled(self) -> np.ndarray:
        """The (d, n) block of raw numeric values the other arrays are
        derived from, zero where missing so nothing downstream meets a NaN.
        Rows of incomplete columns are never read: see
        ``on_complete_rows``."""
        filled = np.zeros((len(self._numeric_index), self.n_rows), dtype=np.float64)
        for j, column in enumerate(self.table.numeric_columns()):
            np.copyto(filled[j], column.values, where=~column.mask)
        return filled

    @cached_property
    def standardized(self) -> np.ndarray:
        """Every numeric column to zero mean, unit variance."""
        return standardize(self.filled)

    @cached_property
    def rank_standardized(self) -> np.ndarray:
        """Every numeric column's average ranks, standardised (Pearson on
        these is Spearman)."""
        ranks = np.empty(self.filled.shape, dtype=np.float64)
        for j, row in enumerate(self.filled):
            ranks[j] = average_ranks(row)
        return standardize(ranks)

    def onehot(self, name: str) -> np.ndarray:
        """The (levels present, n) one-hot block of a categorical column."""
        block = self._onehot.get(name)
        if block is None:
            codes = self.table.categorical_column(name).codes
            block = self._onehot[name] = one_hot(codes)
        return block
