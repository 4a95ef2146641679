"""Incremental sketch maintenance: absorb appends without rebuilding.

The sketches in :mod:`repro.sketch` are *mergeable* — that is the whole
point of single-pass summaries (paper section 3) — and this module turns
that property into a live-update path.  For validated appends — one live
:class:`~repro.ingest.delta.DeltaBatch`, or a run of journalled ones
replayed at once — it

1. builds **sketch partials** over just each append's rows
   (:func:`build_delta_partials`: slices of the grown table, the numeric
   columns as one block, the value-count sketches column by column, and
   the co-moment sums of the numeric columns), then
2. **merges** them, append after append, into new sketches beside the
   live store's (:func:`~repro.sketch.store.merged_bundles`,
   :meth:`~repro.sketch.comoments.CoMoments.merged`) and packages the
   result as one brand-new :class:`~repro.sketch.store.SketchStore` over
   the grown table (:func:`merge_delta`).

What an append costs here: its numeric columns are stacked once into a
``(d, rows)`` block, and every moment partial comes from one pass of
axis-1 reductions, every GK partial from one row-wise sort.  Its merge is
one pass over every numeric column's GK summary
(:meth:`~repro.sketch.quantile.QuantileSketch.merge_rows`, whose compress
walks only the tuples that could merge) plus a per-column moment and
Misra–Gries merge, so the cycle no longer grows with the batch's cell
count.  The known remainder is outside this module: a live append's
``DataTable.concat`` copies the whole table (a replayed run copies it
once).

Per-sketch-type merge semantics:

=================  =========================================================
moments            running sums add exactly (merge is lossless)
quantile (GK)      stable interleave of both summaries' tuples by value +
                   greedy compress; rank error stays ≤ ε·n
Misra–Gries        counter union + (k+1)-th-largest reduction; undercount
                   bound n/capacity preserved
reservoir sample   algorithm-R advance over the appended row indices — each
                   new row enters with probability capacity/(rows so far),
                   keeping the maintained row sample uniform (correct
                   weighting) over the grown table
co-moment sums     pairwise counts, Σx, Σx² and Σxy about the base build's
                   column means add (merge is lossless); one partial per
                   append, added in journal order, so a live, a replayed
                   and a replicated store hold the same bits
=================  =========================================================

The **accuracy budget**: once the rows absorbed by delta merges since the
last full build exceed ``rebuild_fraction × base_rows``,
:func:`should_rebuild` tells the workspace to pay for one full
preprocess, which refreshes the GK summaries' compression (every other
sketch is already what a fresh build gives, up to rounding).  The
copy-on-merge discipline is what makes the swap safe: the old store's
sketch objects are never mutated, so queries holding the previous engine
snapshot keep reading a consistent view.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace as dataclass_replace

import numpy as np

from repro.data.table import DataTable
from repro.errors import IngestError
from repro.ingest.log import IngestLog
from repro.sketch.comoments import CoMoments
from repro.sketch.reservoir import advance_row_indices
from repro.sketch.store import (
    ColumnSketches, SketchStore, merged_bundles, numeric_sketches,
    value_count_sketches,
)


@dataclass(frozen=True)
class IngestConfig:
    """Tuning knobs for the live-ingestion subsystem.

    Parameters
    ----------
    rebuild_fraction:
        The accuracy budget: when the rows absorbed by delta merges since
        the last full build would exceed this fraction of the base row
        count, a full sketch rebuild is due (refreshing the quantile
        summaries' compression).  The rebuild runs off the append
        path: the triggering append still returns
        ``applied="delta_merge"`` and a worker thread rebuilds from a
        snapshot of the table, atomically swapping the fresh engine in
        (minting a sequence number of its own) while appends keep
        delta-merging.  ``0`` schedules a rebuild after every
        append; ``float("inf")`` never rebuilds.
    fsync:
        Whether the durable journal (``Workspace(data_dir=...)``)
        fsyncs every committed record before acknowledging the append.
        ``True`` (the default) means an acknowledged append survives a
        machine crash; ``False`` trades that for append throughput
        (records still survive a *process* crash — the OS page cache
        holds them).  Ignored without a ``data_dir``.
    """

    rebuild_fraction: float = 0.5
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.rebuild_fraction < 0:
            raise ValueError(
                f"rebuild_fraction must be >= 0, got {self.rebuild_fraction}"
            )


def should_rebuild(log: IngestLog, incoming_rows: int,
                   config: IngestConfig) -> bool:
    """Does absorbing ``incoming_rows`` more delta rows exhaust the budget?"""
    if log.base_rows <= 0:
        # No full build has been accounted yet (e.g. appends before the
        # engine ever built); there is nothing stale to refresh.
        return False
    budget = config.rebuild_fraction * log.base_rows
    return (log.rows_since_rebuild + incoming_rows) > budget


# ---------------------------------------------------------------------------
# Delta partials
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaPartials:
    """The sketches of one append's rows alone: a bundle per column, and
    the numeric columns' co-moment sums about the store's shift."""

    columns: dict[str, ColumnSketches]
    comoments: CoMoments


def build_delta_partials(
    table: DataTable,
    store: SketchStore,
    counts: Sequence[int],
) -> list[DeltaPartials]:
    """The sketch partials of each delta, over just its rows.

    ``table`` holds ``store``'s rows followed by the deltas' rows, the
    deltas ``counts[i]`` rows each, in order; delta ``i`` gets its own
    partials, read from slices of ``table``'s columns, exactly as if it
    had been appended alone: its RNG streams are keyed by its own stream
    position (the rows before it), and its value counts come in the
    order a parse of its rows alone gives them (Misra–Gries is
    update-order sensitive; see
    :func:`~repro.sketch.store.column_value_counts`).

    Each partial mirrors the *shape* of the base store's bundle for that
    column (a numeric column that is not discrete in the base gets no
    frequent-items partial), and is built with the base config's
    parameters so every merge passes the sketches' compatibility checks.

    A delta is sketched as a block: its numeric columns with no missing
    entry — all of them, for a well-formed append — stack into one
    ``(d, rows)`` array whose moment and quantile partials come from one
    call of the kernels a column build uses on one row
    (:func:`~repro.sketch.store.numeric_sketches`); a column with missing
    entries runs the same kernels on its valid values.  Only the
    value-count partials are per-column work.  The co-moment sums are
    one :meth:`~repro.sketch.comoments.CoMoments.of_columns` of the
    delta's rows, about the shift the store has once the deltas before
    it are merged, so that they add.
    """
    names = [name for name in table.column_names() if store.has_column(name)]
    numeric = [
        (index, table.numeric_column(name)) for index, name in enumerate(names)
        if store.column_sketches(name).moments is not None
    ]
    counted = [table.column(name) for name in names
               if store.column_sketches(name).frequent is not None]
    config, n_seen = store.config, store.table.n_rows
    shift = store.comoments.shift
    paired = [table.numeric_column(name) for name in store.comoments.names]
    deltas = []
    for count in counts:
        rows = slice(n_seen, n_seen + count)
        sketches: dict[str, dict[str, object]] = {name: {} for name in names}
        complete, rng_keys = [], []
        for index, column in numeric:
            values, mask = column.values[rows], column.mask[rows]
            # The base build's sampling policy; the stream position (rows
            # already absorbed) keys the RNG so repeated large appends
            # draw independent samples.
            rng_key = [config.seed, index, n_seen]
            if mask.any():
                (sketches[column.name],) = numeric_sketches(
                    values[~mask][np.newaxis, :], config, [rng_key]
                )
            else:
                complete.append((column.name, values))
                rng_keys.append(rng_key)
        if complete:
            block = np.array([row for _, row in complete])
            for (name, _), built in zip(
                complete, numeric_sketches(block, config, rng_keys)
            ):
                sketches[name] = built
        for column in counted:
            sketches[column.name].update(
                value_count_sketches(column, config, rows)
            )
        comoments = CoMoments.of_columns(paired, rows, shift)
        deltas.append(DeltaPartials(
            columns={name: ColumnSketches(name=name, **sketches[name])
                     for name in names},
            comoments=comoments,
        ))
        # A column's first finite values fix its shift for the deltas after.
        shift = comoments.shift
        n_seen += count
    return deltas


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------
def merge_delta(
    store: SketchStore,
    new_table: DataTable,
    deltas: Sequence[tuple[int, DeltaPartials]],
) -> SketchStore:
    """A new store over ``new_table`` with each delta's partials merged in.

    ``deltas`` are ``(rows, partials)`` in append order (the partials from
    :func:`build_delta_partials`); they fold in one after another, each
    together with its own advance of the row sample, so a run of appends
    merged at once is the store those appends merged one by one would
    leave — without a store in between.  Each delta's bundles merge in
    one pass (:func:`~repro.sketch.store.merged_bundles`: every numeric
    column's GK summaries at once), and its co-moment sums add onto the
    running ones, in order.

    Copy-on-merge: every sketch that absorbs a partial is merged into a
    new one, so the input store — possibly still being read by in-flight
    queries — is never mutated.  Bundles without a partial are shared
    between the old and new store.  The uniform row sample advances by
    algorithm R over the appended row indices, keeping it uniform over
    the grown table; an append that replaces no sampled row and adds no
    categorical level leaves the sample table exactly what it was, so
    whatever ``store`` has derived from it (the sample features) is
    handed to the new store instead of derived again.
    """
    n_seen = store.table.n_rows
    if new_table.n_rows != n_seen + sum(rows for rows, _ in deltas):
        raise IngestError(
            f"merge_delta row accounting is off: base {n_seen} + "
            f"deltas {[rows for rows, _ in deltas]} != new table "
            f"{new_table.n_rows}"
        )
    start = time.perf_counter()
    config = store.config
    columns = store.column_map()
    comoments = store.comoments
    sample_indices = store.sample_indices
    for rows, partials in deltas:
        names = [name for name in partials.columns if name in columns]
        columns.update(zip(names, merged_bundles(
            [(columns[name], partials.columns[name]) for name in names])))
        comoments = comoments.merged(partials.comoments)
        sample_indices = advance_row_indices(
            sample_indices, n_seen=n_seen, n_new=rows,
            capacity=config.sample_capacity,
            rng=np.random.default_rng([config.seed, n_seen]),
        )
        n_seen += rows
    base = store.column_map()
    sketch_bytes = store.stats.total_sketch_bytes + sum(
        bundle.memory_bytes() - base[name].memory_bytes()
        for name, bundle in columns.items() if bundle is not base[name]
    )

    stats = dataclass_replace(
        store.stats,
        per_stage_seconds=dict(store.stats.per_stage_seconds),
        n_rows=new_table.n_rows,
        delta_rows=store.stats.delta_rows + new_table.n_rows - store.table.n_rows,
        delta_batches=store.stats.delta_batches + len(deltas),
        total_sketch_bytes=sketch_bytes,
    )
    stats.per_stage_seconds["delta_merge"] = time.perf_counter() - start

    return SketchStore.from_parts(
        table=new_table,
        config=config,
        columns=columns,
        comoments=comoments,
        sample_indices=sample_indices,
        stats=stats,
        sample_from=store if (
            sample_indices is store.sample_indices
            and _same_levels(store.table, new_table)
        ) else None,
    )


def _same_levels(old: DataTable, new: DataTable) -> bool:
    """Did no categorical column gain a level?  (Levels are only ever
    appended, and a sampled column carries its table's whole list.)"""
    return all(
        new.categorical_column(column.name).n_categories()
        == column.n_categories()
        for column in old.categorical_columns()
    )


__all__ = [
    "DeltaPartials",
    "IngestConfig",
    "build_delta_partials",
    "merge_delta",
    "should_rebuild",
]
