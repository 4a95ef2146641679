"""Incremental sketch maintenance: absorb appends without rebuilding.

The sketches in :mod:`repro.sketch` are *mergeable* — that is the whole
point of single-pass summaries (paper section 3) — and this module turns
that property into a live-update path.  For a validated
:class:`~repro.ingest.delta.DeltaBatch` it

1. builds **per-column sketch partials** over just the delta rows
   (:func:`build_delta_partials`, fanned out over the engine's
   :class:`~repro.core.executor.Executor` exactly like the base
   preprocessing), then
2. **merges** them into ``copy()``s of the live store's sketches
   (:meth:`~repro.sketch.store.ColumnSketches.merged`) and packages the
   result as a brand-new :class:`~repro.sketch.store.SketchStore` over
   the grown table (:func:`merge_delta`).

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

from repro.core.executor import Executor
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
        signatures and the quantile summaries' compression).  ``0``
        rebuilds on every append; ``float("inf")`` never rebuilds.
    background_rebuild:
        How the budget-triggered rebuild is paid for.  ``True`` (the
        default) schedules it off the append path: the triggering append
        still returns ``applied="delta_merge"`` and a worker thread
        rebuilds from a snapshot of the table, atomically swapping the
        fresh engine in (minting a sequence number of its own) while
        appends keep delta-merging.  ``False`` keeps the historical
        synchronous behavior: the triggering append blocks on the
        rebuild and returns ``applied="rebuild"``.
    fsync:
        Whether the durable journal (``Workspace(data_dir=...)``)
        fsyncs every committed record before acknowledging the append.
        ``True`` (the default) means an acknowledged append survives a
        machine crash; ``False`` trades that for append throughput
        (records still survive a *process* crash — the OS page cache
        holds them).  Ignored without a ``data_dir``.
    group_commit:
        Amortize journal fsyncs across concurrent appenders.  With
        ``True`` an append writes and flushes its record under the
        dataset's entry lock as before, but the fsync happens in a
        per-dataset commit pipeline: one appender becomes the *leader*,
        issues a single fsync covering every record queued so far, and
        acknowledges all of them at once.  Durability semantics are
        unchanged — no append returns before its bytes are stable — but
        N concurrent appenders pay ~1 fsync instead of N.  Ignored
        unless ``fsync`` is also ``True`` (there is nothing to
        amortize) or without a ``data_dir``.
    max_group_delay:
        How long (seconds) a group-commit leader with no companions may
        linger before fsyncing, giving racing appenders a chance to
        join its group.  ``0`` (the default) fsyncs immediately —
        grouping then emerges naturally from fsync latency, adding no
        latency to isolated appends.  Positive values trade single
        -append latency for larger groups under bursty concurrency.
    """

    rebuild_fraction: float = 0.5
    background_rebuild: bool = True
    fsync: bool = True
    group_commit: bool = False
    max_group_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.rebuild_fraction < 0:
            raise ValueError(
                f"rebuild_fraction must be >= 0, got {self.rebuild_fraction}"
            )
        if self.max_group_delay < 0:
            raise ValueError(
                f"max_group_delay must be >= 0, got {self.max_group_delay}"
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
    executor: Executor,
) -> dict[str, ColumnSketches]:
    """Per-column sketch partials over just the delta rows.

    Each partial mirrors the *shape* of the base store's bundle for that
    column (a numeric column that is not discrete in the base gets no
    frequent/entropy/count-min partial), and is built with the base
    config's parameters so every merge passes the sketches'
    compatibility checks.  Column builds fan out over ``executor``; each
    column's work is independent, so parallel and serial builds are
    identical.
    """
    names = [
        name for name in delta_table.column_names() if store.has_column(name)
    ]
    indexed = list(enumerate(names))
    bundles = executor.map(
        lambda item: _build_column_partial(delta_table, store, item[1], item[0]),
        indexed,
    )
    return {name: bundle for name, bundle in zip(names, bundles)}


def _build_column_partial(
    delta_table: DataTable, store: SketchStore, name: str, index: int
) -> ColumnSketches:
    config, base = store.config, store.column_sketches(name)
    sketches: dict[str, object] = {}
    if base.moments is not None:
        # The base build's sampling policy; the stream position (rows
        # already absorbed) keys the RNG so repeated large appends draw
        # independent samples.
        sketches.update(numeric_sketches(
            delta_table.numeric_column(name).valid_values(), config,
            [config.seed, index, store.table.n_rows],
        ))
    if base.frequent is not None:
        sketches.update(value_count_sketches(delta_table.column(name), config))
    return ColumnSketches(name=name, **sketches)


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

    Copy-on-merge: every sketch that absorbs a partial is merged on its
    own ``copy()`` (:meth:`ColumnSketches.merged`), so the input store —
    possibly still being read by in-flight queries — is never mutated.
    Bundles without a partial (and the immutable hyperplane signatures)
    are shared between the old and new store.  The uniform row sample
    advances by algorithm R over the appended row indices, keeping it
    uniform over the grown table.
    """
    if new_table.n_rows != store.table.n_rows + delta_rows:
        raise IngestError(
            f"merge_delta row accounting is off: base {store.table.n_rows} + "
            f"delta {delta_rows} != new table {new_table.n_rows}"
        )
    start = time.perf_counter()
    config = store.config
    columns: dict[str, ColumnSketches] = {}
    for name, base in store.column_map().items():
        partial = partials.get(name)
        columns[name] = base if partial is None else dataclass_replace(
            base.merged(partial), hyperplane=base.hyperplane
        )

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
    )
    stats.total_sketch_bytes = sum(
        bundle.memory_bytes() for bundle in columns.values()
    )
    stats.per_stage_seconds["delta_merge"] = time.perf_counter() - start

    return SketchStore.from_parts(
        table=new_table,
        config=config,
        executor=store.executor,
        columns=columns,
        sketcher=store.sketcher,
        sample_indices=sample_indices,
        stats=stats,
    )


__all__ = [
    "IngestConfig",
    "build_delta_partials",
    "merge_delta",
    "should_rebuild",
]
