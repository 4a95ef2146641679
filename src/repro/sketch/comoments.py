"""Pairwise-complete co-moment sums: Pearson correlation that merges by addition.

The Linear-Relationship insight ranks numeric pairs by |Pearson ρ| (paper
section 2.2, insight 6).  ρ of a pair needs five sums over the rows where
both values are present — the row count, Σx, Σy, Σx², Σy² and Σxy — so
:class:`CoMoments` keeps them for every pair of a table's numeric
columns at once, as four ``(d, d)`` arrays.  Entry ``[i, j]`` is taken
over the rows where columns ``i`` and ``j`` are both present:

==========  ===============================================
``count``   the number of those rows (symmetric)
``total``   Σ (x_i − c_i)
``square``  Σ (x_i − c_i)²
``cross``   Σ (x_i − c_i)(x_j − c_j) (symmetric)
==========  ===============================================

Every sum is taken about a fixed per-column shift ``c`` (the building
table's column mean, kept in the state), so a column whose mean is far
from zero loses nothing to cancellation.  Sums of disjoint row sets about
the same shift add, so an append's own sums (:meth:`CoMoments.of_columns`
with the store's shift) merge into a store by addition
(:meth:`CoMoments.merged`) and the result is exact, not an estimate: ρ
read from the sums equals the full-data statistic up to float rounding.
A column with no finite value yet has no shift (NaN): every sum that
would depend on it is an empty sum, so the first rows to bring finite
values fix it to their own mean.
A fresh build is four matrix products over the numeric block; storage is
32·d² bytes whatever the row count.

A value that is not finite makes ``square`` infinite over every row set
holding it, which is what Σx² of such a column is; ρ of such a pair is
0, as the exact statistic's standardisation gives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.column import NumericColumn
from repro.errors import SketchMergeError

#: A column whose spread about its mean over a pair's rows is below this
#: share of its sum of squares about the shift is constant there (what
#: is left is rounding): ρ with it is 0, as for an exactly constant one.
FLAT = 1e-10


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right.T``, summed by numpy's own single-threaded loops.

    Not BLAS: a multi-threaded BLAS splits a long reduction by the
    number of cores the process may use, so a restarted server pinned to
    one core and a replica on two would add the same rows in a different
    order and disagree in the last bits.
    """
    return np.einsum("ik,jk->ij", left, right, optimize=False)


@dataclass(frozen=True)
class CoMoments:
    """Co-moment sums of named numeric columns (see the module docstring)."""

    names: tuple[str, ...]
    shift: np.ndarray
    count: np.ndarray
    total: np.ndarray
    square: np.ndarray
    cross: np.ndarray

    @classmethod
    def of_columns(
        cls,
        columns: Sequence[NumericColumn],
        rows: slice | None = None,
        shift: np.ndarray | None = None,
    ) -> "CoMoments":
        """The sums of ``columns`` (of just ``rows``, when given) about
        ``shift``, or — where that is None or NaN — about each column's
        mean over the finite values of these rows."""
        rows = slice(None) if rows is None else rows
        shape = (len(columns), len(columns[0].values[rows]) if columns else 0)
        values, present = np.empty(shape), np.empty(shape, dtype=bool)
        for k, column in enumerate(columns):
            values[k] = column.values[rows]
            present[k] = ~column.mask[rows]
        finite = present & np.isfinite(values)
        # ``values`` is this call's own copy: centred in place, with every
        # missing or non-finite cell 0 so that it adds nothing.
        np.copyto(values, 0.0, where=~finite)
        n_finite = finite.sum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = values.sum(axis=1) / np.maximum(n_finite, 1)
            own = np.where(n_finite == 0, np.nan, np.where(np.isfinite(mean), mean, 0.0))
            shift = own if shift is None else np.where(np.isnan(shift), own, shift)
            values -= shift[:, np.newaxis]
            np.copyto(values, 0.0, where=~finite)
            weight = present.astype(np.float64)
            total = _products(values, weight)
            cross = _products(values, values)
            square = _products(np.square(values, out=values), weight)
        if not np.array_equal(finite, present):
            unbounded = _products((present & ~finite).astype(np.float64), weight)
            square[unbounded > 0] = np.inf
        return cls(
            names=tuple(column.name for column in columns),
            shift=shift,
            count=_products(weight, weight),
            total=total,
            square=square,
            cross=cross,
        )

    def merged(self, other: "CoMoments") -> "CoMoments":
        """The sums over both inputs' rows (disjoint row sets, same
        columns, and ``other`` about this shift wherever it is set);
        neither input is touched."""
        known = ~np.isnan(self.shift)
        if (self.names != other.names
                or not np.array_equal(self.shift[known], other.shift[known])):
            raise SketchMergeError(
                "co-moment sums merge only over the same columns and shift")
        return CoMoments(
            names=self.names,
            shift=np.where(known, self.shift, other.shift),
            count=self.count + other.count,
            total=self.total + other.total,
            square=self.square + other.square,
            cross=self.cross + other.cross,
        )

    def correlation(self, names: Sequence[str]) -> np.ndarray:
        """Pairwise-complete Pearson ρ among ``names``: 1 on the diagonal,
        0 where either column is constant (or not finite) over the pair's
        rows, NaN where fewer than two rows hold both.  Each entry is
        read from its own pair's sums alone."""
        index = {name: k for k, name in enumerate(self.names)}
        order = [index[name] for name in names]
        pick = np.ix_(order, order)
        count, total = self.count[pick], self.total[pick]
        square, cross = self.square[pick], self.cross[pick]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            spread = square - total * total / count
            flat = ~((spread > FLAT * square) & np.isfinite(square))
            rho = (cross - total * total.T / count) / np.sqrt(spread * spread.T)
        rho = np.where(flat | flat.T, 0.0, np.clip(rho, -1.0, 1.0))
        rho[count < 2] = np.nan
        np.fill_diagonal(rho, 1.0)
        return rho

    def memory_bytes(self) -> int:
        return sum(array.nbytes for array in (
            self.shift, self.count, self.total, self.square, self.cross))
