"""Incremental sketch maintenance: absorb appends without rebuilding.

The sketches in :mod:`repro.sketch` are *mergeable* — that is the whole
point of single-pass summaries (paper section 3) — and this module turns
that property into a live-update path.  For a validated
:class:`~repro.ingest.delta.DeltaBatch` it

1. builds **per-column sketch partials** over just the delta rows
   (:func:`build_delta_partials`: the numeric columns as one block, the
   value-count sketches column by column), then
2. **merges** them into new sketches beside the live store's
   (:meth:`~repro.sketch.store.ColumnSketches.merged`) and packages the
   result as a brand-new :class:`~repro.sketch.store.SketchStore` over
   the grown table (:func:`merge_delta`).

What an append costs here: the batch's numeric columns are stacked once
into a ``(d, rows)`` block, and every moment partial comes from one pass
of axis-1 reductions, every GK partial from one row-wise sort.  What stays
per column is the merge itself — a GK interleave whose compress walks only
the tuples that could merge, a value-count update that hashes only labels
this process has not hashed before — so the cycle no longer grows with the
batch's cell count.  The known remainder is outside this module:
``DataTable.concat`` copies the whole table per append.

Per-sketch-type merge semantics:

=================  =========================================================
moments            running sums add exactly (merge is lossless)
quantile (GK)      stable sort of both summaries' tuples by value + greedy
                   compress; rank error stays ≤ ε·n
count-min          counter tables add; overestimate bound ε·n preserved
Misra–Gries        counter union + (k+1)-th-largest reduction; undercount
                   bound n/capacity preserved
entropy            Space-Saving head merge + distinct-bucket union
reservoir sample   algorithm-R advance over the appended row indices — each
                   new row enters with probability capacity/(rows so far),
                   keeping the maintained row sample uniform (correct
                   weighting) over the grown table
hyperplane         **not merged**: signatures come from one shared
                   hyperplane draw over a fixed row count, so they go
                   *stale* under appends — correlation estimates ignore
                   delta rows until the accuracy budget (below) forces a
                   full rebuild
=================  =========================================================

The **accuracy budget** bounds that staleness: once the rows absorbed by
delta merges since the last full build exceed
``rebuild_fraction × base_rows``, :func:`should_rebuild` tells the
workspace to pay for one full preprocess instead of another merge.  The
copy-on-merge discipline is what makes the swap safe: the old store's
sketch objects are never mutated, so queries holding the previous engine
snapshot keep reading a consistent view.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dataclass_replace

import numpy as np

from repro.data.table import DataTable
from repro.errors import IngestError
from repro.ingest.log import IngestLog
from repro.sketch.reservoir import advance_row_indices
from repro.sketch.store import (
    ColumnSketches, SketchStore, numeric_sketches, value_count_sketches,
)


@dataclass(frozen=True)
class IngestConfig:
    """Tuning knobs for the live-ingestion subsystem.

    Parameters
    ----------
    rebuild_fraction:
        The accuracy budget: when the rows absorbed by delta merges since
        the last full build would exceed this fraction of the base row
        count, a full sketch rebuild is due (refreshing the hyperplane
        signatures and the quantile summaries' compression).  The
        rebuild runs off the append path: the triggering append still
        returns ``applied="delta_merge"`` and a worker thread rebuilds
        from a snapshot of the table, atomically swapping the fresh
        engine in (minting a sequence number of its own) while appends
        keep delta-merging.  ``0`` schedules a rebuild after every
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
def build_delta_partials(
    delta_table: DataTable,
    store: SketchStore,
) -> dict[str, ColumnSketches]:
    """Per-column sketch partials over just the delta rows.

    Each partial mirrors the *shape* of the base store's bundle for that
    column (a numeric column that is not discrete in the base gets no
    frequent/entropy/count-min partial), and is built with the base
    config's parameters so every merge passes the sketches'
    compatibility checks.

    The batch is sketched as a block: the numeric columns with no missing
    entry in the delta — all of them, for a well-formed append — stack
    into one ``(d, rows)`` array whose moment and quantile partials come
    from one call of the kernels a column build uses on one row
    (:func:`~repro.sketch.store.numeric_sketches`); a column with missing
    entries runs the same kernels on its valid values.  Only the
    value-count partials are per-column work.
    """
    names = [
        name for name in delta_table.column_names() if store.has_column(name)
    ]
    config, n_seen = store.config, store.table.n_rows
    sketches: dict[str, dict[str, object]] = {name: {} for name in names}
    complete, rng_keys = [], []
    for index, name in enumerate(names):
        if store.column_sketches(name).moments is None:
            continue
        column = delta_table.numeric_column(name)
        # The base build's sampling policy; the stream position (rows
        # already absorbed) keys the RNG so repeated large appends draw
        # independent samples.
        rng_key = [config.seed, index, n_seen]
        if column.mask.any():
            (sketches[name],) = numeric_sketches(
                column.valid_values()[np.newaxis, :], config, [rng_key]
            )
        else:
            complete.append(column)
            rng_keys.append(rng_key)
    if complete:
        block = np.array([column.values for column in complete])
        for column, built in zip(
            complete, numeric_sketches(block, config, rng_keys)
        ):
            sketches[column.name] = built
    for name in names:
        if store.column_sketches(name).frequent is not None:
            sketches[name].update(
                value_count_sketches(delta_table.column(name), config)
            )
    return {
        name: ColumnSketches(name=name, **sketches[name]) for name in names
    }


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------
def merge_delta(
    store: SketchStore,
    new_table: DataTable,
    delta_rows: int,
    partials: dict[str, ColumnSketches],
) -> SketchStore:
    """A new store over ``new_table`` with the partials merged in.

    Copy-on-merge: every sketch that absorbs a partial is merged into a
    new one (:meth:`ColumnSketches.merged`), so the input store —
    possibly still being read by in-flight queries — is never mutated.
    Bundles without a partial (and the immutable hyperplane signatures)
    are shared between the old and new store.  The uniform row sample
    advances by algorithm R over the appended row indices, keeping it
    uniform over the grown table; an append that replaces no sampled row
    and adds no categorical level leaves the sample table exactly what
    it was, so whatever ``store`` has derived from it (PR 17's sample
    features) is handed to the new store instead of derived again.
    """
    if new_table.n_rows != store.table.n_rows + delta_rows:
        raise IngestError(
            f"merge_delta row accounting is off: base {store.table.n_rows} + "
            f"delta {delta_rows} != new table {new_table.n_rows}"
        )
    start = time.perf_counter()
    config = store.config
    columns = store.column_map()
    sketch_bytes = store.stats.total_sketch_bytes
    for name, partial in partials.items():
        base = columns.get(name)
        if base is None:
            continue
        columns[name] = merged = base.merged(partial)
        merged.hyperplane = base.hyperplane
        sketch_bytes += merged.memory_bytes() - base.memory_bytes()

    n_seen = store.table.n_rows
    rng = np.random.default_rng([config.seed, n_seen])
    sample_indices = advance_row_indices(
        store.sample_indices, n_seen=n_seen, n_new=delta_rows,
        capacity=config.sample_capacity, rng=rng,
    )

    stats = dataclass_replace(
        store.stats,
        per_stage_seconds=dict(store.stats.per_stage_seconds),
        n_rows=new_table.n_rows,
        delta_rows=store.stats.delta_rows + delta_rows,
        delta_batches=store.stats.delta_batches + 1,
        total_sketch_bytes=sketch_bytes,
    )
    stats.per_stage_seconds["delta_merge"] = time.perf_counter() - start

    return SketchStore.from_parts(
        table=new_table,
        config=config,
        columns=columns,
        sketcher=store.sketcher,
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
    "IngestConfig",
    "build_delta_partials",
    "merge_delta",
    "should_rebuild",
]
