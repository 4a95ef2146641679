"""The ingest log: a dataset generation's sequence number and counters.

Every dataset carries an :class:`IngestLog`, and a dataset's identity for
caching and provenance is the pair ``(version, seq)``:

* ``version`` bumps on reload / re-registration (a new *generation* of
  the data — the log resets with it);
* ``seq`` bumps on every accepted append, and on every background-rebuild
  swap, within a generation.

A response stamped ``(version, seq)`` therefore names the exact
ingestion state it was computed from.  The log also accumulates the
ingestion counters (rows appended, delta merges, background rebuild
swaps) and the
accuracy-budget accounting surfaced by ``Workspace.ingest_stats`` and
the server's ``/metrics``.

The log is a pure fold over journal records: the only code that mutates
one is :func:`repro.ingest.durable.fold_record` — the log half of the
dataset transition — so a live, a restarted, a still-pending and a
replicated dataset at one ``(version, seq)`` hold equal logs by
construction.  It is not thread-safe on its own: the fold runs under the
owning dataset entry's lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: How an accepted append was absorbed into the serving state.
APPLIED_DELTA_MERGE = "delta_merge"   # sketch partials merged into the store
APPLIED_DEFERRED = "deferred"         # no engine/store yet: rows concat only

#: The counters a compaction snapshot persists beside its ``seq``.
_PERSISTED = ("rows_appended", "delta_merges", "rebuilds", "bg_rebuilds",
              "rows_since_rebuild", "base_rows")


@dataclass
class IngestLog:
    """Sequence number and ingestion counters of one dataset generation."""

    #: The current sequence number (0 before any append).
    seq: int = 0
    #: Rows absorbed by delta merges since the last full build — the
    #: accuracy-budget numerator.
    rows_since_rebuild: int = 0
    #: Table size at the last full (re)build — the budget denominator.
    base_rows: int = 0
    rows_appended: int = 0
    delta_merges: int = 0
    rebuilds: int = 0
    #: Rebuilds that ran off the append path — every rebuild does, so
    #: this equals ``rebuilds``; both stay in the metrics schema.
    bg_rebuilds: int = 0

    def append(self, n_rows: int, applied: str) -> int:
        """Count one accepted append; returns its sequence number."""
        self.seq += 1
        self.rows_appended += n_rows
        if applied == APPLIED_DELTA_MERGE:
            self.delta_merges += 1
        self.rows_since_rebuild += n_rows
        return self.seq

    def record_swap(self, base_rows: int, total_rows: int) -> int:
        """Count an off-path rebuild swapping in (a background rebuild).

        Mints a sequence number of its own — the swap changes the
        serving engine, so ``(version, seq)`` must move with it or two
        different engine states would share one cache/provenance
        identity.  ``base_rows`` is the row count the fresh sketches
        were built over; the rows appended since were delta-merged onto
        them at swap time and still count against the accuracy budget.
        """
        self.seq += 1
        self.rebuilds += 1
        self.bg_rebuilds += 1
        self.rows_since_rebuild = max(0, total_rows - base_rows)
        self.base_rows = base_rows
        return self.seq

    def mark_rebuilt(self, total_rows: int) -> None:
        """Reset the accuracy budget after a cold (lazy first) build.

        The engine was built from the full table outside the append
        path, so the budget starts counting from the freshly sketched
        base.
        """
        self.rows_since_rebuild = 0
        self.base_rows = total_rows

    def counters(self) -> dict[str, int]:
        """The ingestion counters (merged into ops surfaces)."""
        return {"seq": self.seq, **self.to_payload()}

    def to_payload(self) -> dict[str, int]:
        """The counters as a snapshot persists them (``seq`` travels
        beside them, as the snapshot's own position)."""
        return {name: getattr(self, name) for name in _PERSISTED}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], seq: int) -> "IngestLog":
        """The log a snapshot at ``seq`` was written from."""
        return cls(seq=seq, **{name: int(payload.get(name, 0))
                               for name in _PERSISTED})


__all__ = [
    "APPLIED_DEFERRED",
    "APPLIED_DELTA_MERGE",
    "IngestLog",
]
