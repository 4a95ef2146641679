"""Live datasets: append-only ingestion and incremental sketch maintenance.

This package makes a served dataset *live* — a hybrid update/analytics
path in the spirit of HTAP designs: appends land continuously without
stalling (or invalidating) the analytical path, because every sketch the
preprocessing step builds is mergeable.

The pieces, bottom-up:

* :class:`DeltaBatch` — a batch of appended rows validated against the
  dataset schema (type / arity / missing-value rules from
  :mod:`repro.data`); rejection is all-or-nothing with per-row problems;
* :func:`build_delta_partials` / :func:`merge_delta` — sketch partials
  over just the delta rows (per-column bundles and the co-moment sums
  correlation is read from), copy-merged into a brand-new
  :class:`~repro.sketch.store.SketchStore` so in-flight readers never
  observe a mutation;
* :class:`IngestConfig` / :func:`should_rebuild` — the accuracy budget:
  once accumulated delta rows exceed ``rebuild_fraction`` of the base
  rows, the append that crosses it schedules a full rebuild (fresh GK
  compression) on a background worker, which swaps the fresh engine in
  atomically;
* :class:`IngestLog` — a generation's sequence number and ingestion
  counters (a fold over journal records), making a dataset's
  cache/provenance identity the pair ``(version, seq)``;
* :class:`DatasetJournal` / :func:`replay_state`
  (:mod:`repro.ingest.durable`) — the on-disk write-ahead journal:
  length-prefixed, checksummed, fsync-on-commit records persisting every
  append (rows included), compaction snapshots (the table packed
  column by column, :mod:`repro.ingest.snapshot_codec`), and the
  deterministic restart replay that reconstructs the exact
  ``(version, seq)`` identity and sketch state an uninterrupted process
  would hold, tolerating a torn or corrupted tail by recovering to the
  last complete record.

What a journal record does to a dataset is written once, as
:class:`~repro.ingest.durable.ReplayMachine`; ``Workspace.append``
(:mod:`repro.service.workspace`) decides, stages, journals and commits
it under the dataset's single-flight lock, and the HTTP transport exposes
them as ``PUT /v1/datasets/{name}``, ``POST /v1/datasets/{name}/rows``
and ``POST /v1/datasets/{name}/reload``.
"""

from repro.errors import DeltaValidationError, IngestError
from repro.ingest.delta import DeltaBatch, MAX_BATCH_ROWS
from repro.ingest.durable import (
    DatasetJournal,
    DurableState,
    decode_records,
    encode_record,
    replay_state,
)
from repro.ingest.snapshot_codec import (
    SnapshotDecodeError,
    decode_snapshot,
    encode_snapshot,
)
from repro.ingest.log import (
    APPLIED_DEFERRED,
    APPLIED_DELTA_MERGE,
    IngestLog,
)
from repro.ingest.maintenance import (
    IngestConfig,
    build_delta_partials,
    merge_delta,
    should_rebuild,
)

__all__ = [
    "APPLIED_DEFERRED",
    "APPLIED_DELTA_MERGE",
    "DatasetJournal",
    "DeltaBatch",
    "DeltaValidationError",
    "DurableState",
    "IngestConfig",
    "IngestError",
    "IngestLog",
    "MAX_BATCH_ROWS",
    "SnapshotDecodeError",
    "build_delta_partials",
    "decode_records",
    "decode_snapshot",
    "encode_record",
    "encode_snapshot",
    "merge_delta",
    "replay_state",
    "should_rebuild",
]
