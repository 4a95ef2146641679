"""Read replicas: workspaces fed by a primary's journal stream.

A :class:`ReplicaWorkspace` is an ordinary :class:`Workspace` whose
datasets are populated not by ``register()`` calls but by **tailing a
primary's durable journal** through a :class:`FeedSource`.  Records
arrive in the exact CRC'd form the primary's
:class:`~repro.ingest.durable.DatasetJournal` wrote and are applied to
the dataset entry's own state by the dataset transition,
:class:`~repro.ingest.durable.ReplayMachine` — the code the primary
committed them with and restart replay re-runs — so a replica at
``(version, seq)`` serves query payloads **byte-identical** to the
primary, live or restarted, at that position.  That identity is the
whole correctness story: there is no replica-specific apply logic, and
no replica-side copy of the state, to diverge.

Consistency model
-----------------
* A replica is a *prefix* of the primary: it has applied every journal
  record up to its cursor and nothing else.
* Bootstrap (late join, generation change, compaction past the cursor)
  ships a full :class:`~repro.ingest.durable.DurableState`, adopted the
  same deferred way restart recovery adopts one — exact ``(version,
  seq)`` and counters immediately, table/engine replay on first use.
* A query-triggered local engine build is the one thing the journal
  never recorded.  Builds are deterministic, so it equals the engine
  the journal's next record assumes whenever it covers the same rows;
  the transition's ``deferred``-append rule drops it in the one case it
  would not.
* Writes (``append``/``register``/``reload``/``rebuild``) raise
  :class:`~repro.errors.ReplicaReadOnlyError` until :meth:`promote`.

Topology is the caller's choice: a :class:`LocalFeedSource` tails a
data directory on shared storage (or in-process, for tests and
single-host scaling); :class:`repro.replication.HttpFeedSource` tails a
remote primary over ``GET /v1/datasets/{name}/journal``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ReplicaReadOnlyError, ServiceError
from repro.ingest.durable import (
    FeedBatch,
    FeedPosition,
    JournalFeed,
    fold_records,
)
from repro.obs import events as obs_events, lockhook
from repro.obs.config import ObsConfig
from repro.obs.tracer import obs_span
from repro.service.workspace import Workspace


class FeedSource:
    """Where a replica's journal records come from (transport-agnostic)."""

    def dataset_names(self) -> list[str]:
        """Datasets the primary replicates."""
        raise NotImplementedError

    def poll(self, name: str, position: FeedPosition | None,
             max_records: int) -> FeedBatch | None:
        """Records after ``position`` (or a bootstrap reset), else None."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (idempotent)."""


class LocalFeedSource(FeedSource):
    """Tail a primary's data directory directly (same host / same process).

    Reads are safe against a live primary: the feed never writes, and a
    torn tail is simply "not yet written".
    """

    def __init__(self, data_dir: str):
        self.data_dir = data_dir
        self._feed = JournalFeed(data_dir)

    def dataset_names(self) -> list[str]:
        return self._feed.dataset_names()

    def poll(self, name: str, position: FeedPosition | None,
             max_records: int) -> FeedBatch | None:
        return self._feed.poll(name, position, max_records=max_records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalFeedSource({self.data_dir!r})"


@dataclass
class _ReplicaDataset:
    """Per-dataset replication cursor and counters (owned by the sync
    pass; the dataset's state itself lives on its workspace entry).

    ``position`` is the applied cursor; the counters feed
    ``ingest_stats()``.  Mutated only by the single sync pass; reads
    off-thread are GIL-atomic snapshots for stats.
    """

    position: FeedPosition | None = None
    primary_seq: int = 0
    applied_records: int = 0
    resets: int = 0
    last_error: str | None = None


class ReplicaWorkspace(Workspace):
    """A read-only workspace kept in sync with a primary's journal.

    Drive it manually with :meth:`sync` (tests, deterministic benches)
    or start the background tailer with :meth:`start_tailing`.  Reads —
    ``handle``/``handle_many`` and every stats surface — are inherited
    unchanged; writes raise :class:`ReplicaReadOnlyError` until
    :meth:`promote` flips the workspace into an ordinary (in-memory)
    primary.
    """

    def __init__(
        self,
        source: FeedSource,
        cache_size: int = 128,
        obs: ObsConfig | None = None,
        poll_interval: float = 0.25,
        max_batch_records: int = 512,
    ):
        super().__init__(cache_size=cache_size, obs=obs)
        self._source = source
        self._poll_interval = poll_interval
        self._max_batch_records = max_batch_records
        #: Per-dataset replication cursors/counters (registry-locked dict).
        self._rstate: dict[str, _ReplicaDataset] = {}
        #: Serialises sync passes (manual sync vs the tailer thread).
        #: The lowest level of the lock hierarchy: it wraps entry-lock
        #: and registry-lock acquisitions inside the apply path.
        self._sync_lock = lockhook.lock("replica.sync")
        self._promoted = False
        self._tailer: threading.Thread | None = None
        self._tailer_stop = threading.Event()
        self._last_sync_ok: float | None = None

    # ------------------------------------------------------------------
    # Write refusal (until promote)
    # ------------------------------------------------------------------
    def _check_writable(self, operation: str,
                        dataset: str | None = None) -> None:
        if not self._promoted:
            raise ReplicaReadOnlyError(operation, dataset)

    def register(self, name, source, engine_config=None, replace=False):
        self._check_writable("register", name)
        return super().register(name, source, engine_config=engine_config,
                                replace=replace)

    def append(self, name, rows):
        self._check_writable("append", name)
        return super().append(name, rows)

    def reload(self, name):
        self._check_writable("reload", name)
        return super().reload(name)

    def rebuild(self, name):
        self._check_writable("rebuild", name)
        return super().rebuild(name)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def sync(self) -> dict[str, int]:
        """One full pass: poll every replicated dataset until caught up.

        Returns ``{dataset: records_applied}`` (bootstrap resets count
        as one).  Per-dataset failures are recorded in that dataset's
        ``last_error`` and do not stop the pass; a failure *listing*
        the datasets (the transport is down) raises.
        """
        self._check_open()
        with self._sync_lock:
            names = set(self._source.dataset_names())
            with self._lock:
                names.update(self._rstate)
            applied: dict[str, int] = {}
            for name in sorted(names):
                rs = self._replica_state(name)
                try:
                    applied[name] = self._sync_dataset(name, rs)
                    rs.last_error = None
                except ServiceError as exc:
                    rs.last_error = str(exc)
            self._last_sync_ok = time.monotonic()
            return applied

    def _replica_state(self, name: str) -> _ReplicaDataset:
        with self._lock:
            state = self._rstate.get(name)
            if state is None:
                state = self._rstate.setdefault(name, _ReplicaDataset())
            return state

    def _sync_dataset(self, name: str, rs: _ReplicaDataset) -> int:
        applied = 0
        while True:
            with obs_span("replica.sync", dataset=name) as span:
                batch = self._source.poll(
                    name, rs.position, self._max_batch_records
                )
                if batch is None:
                    return applied
                if batch.reset is not None:
                    self._apply_reset(name, rs, batch)
                    applied += 1
                else:
                    self._apply_records(name, rs, batch)
                    applied += len(batch.records)
                span.set_attribute("records", len(batch.records))
                span.set_attribute("reset", batch.reset is not None)
                span.set_attribute("seq", batch.position.seq)
            if not batch.more:
                return applied

    def _apply_reset(self, name: str, rs: _ReplicaDataset,
                     batch: FeedBatch) -> None:
        """Adopt a full bootstrap state (late join / generation change)
        as a new generation of the dataset's entry."""
        state = batch.reset
        assert state is not None
        if (name in self and rs.position is not None
                and rs.position == batch.position):
            # The primary answered a reset for the position we already
            # hold (e.g. a fresh feed instance): nothing to redo.
            rs.primary_seq = batch.primary_seq
            return
        rs.primary_seq = batch.primary_seq
        self._adopt(name, state)
        rs.position = batch.position
        rs.resets += 1
        obs_events.emit("replica_reset", dataset=name,
                        version=state.version, seq=state.seq)

    def _apply_records(self, name: str, rs: _ReplicaDataset,
                       batch: FeedBatch) -> None:
        """Apply one incremental batch to the entry's own state — whole
        or not at all, so the cursor always names the state held."""
        # The primary's tip is news even if the batch fails to apply: a
        # replica that cannot advance must report the lag it has.
        rs.primary_seq = batch.primary_seq
        with self._locked_entry(name) as entry:
            if entry.pending is not None:
                # Not yet materialised: grow the deferred state and keep
                # the counters exact — the heavy replay stays deferred
                # to first use, exactly like restart recovery.
                ingest = fold_records(name, replace(entry.ingest),
                                      batch.records)
                entry.pending.records.extend(batch.records)
                entry.ingest = ingest
            else:
                self._machine(entry).apply(batch.records)
                self._account_entry(entry)
        if batch.records:
            self._cache.invalidate(name)
        rs.position = batch.position
        rs.applied_records += len(batch.records)

    # ------------------------------------------------------------------
    # Tailer + promotion
    # ------------------------------------------------------------------
    def start_tailing(self, interval: float | None = None,
                      promote_after: float = 0.0) -> None:
        """Poll the source on a daemon thread every ``interval`` seconds.

        ``promote_after`` > 0 arms auto-promotion: when every sync in
        that many seconds has failed (the primary is unreachable), the
        replica promotes itself and stops tailing.  0 never promotes.
        """
        if self._tailer is not None:
            raise ServiceError("replica is already tailing")
        delay = self._poll_interval if interval is None else interval
        self._tailer_stop.clear()
        self._last_sync_ok = time.monotonic()

        def _run() -> None:
            while not self._tailer_stop.wait(delay):
                try:
                    self.sync()
                except ServiceError as exc:
                    last_ok = self._last_sync_ok or 0.0
                    stalled = time.monotonic() - last_ok
                    if 0 < promote_after <= stalled:
                        obs_events.emit(
                            "replica_promoted", reason="primary_unreachable",
                            stalled_s=round(stalled, 3), error=str(exc),
                        )
                        self._promoted = True
                        return
                except Exception:  # pragma: no cover - defensive
                    # A non-ServiceError is a bug, not an outage; the
                    # tailer keeps running and the next pass retries.
                    pass

        self._tailer = threading.Thread(
            target=_run, name="repro-replica-tailer", daemon=True
        )
        self._tailer.start()

    def stop_tailing(self, timeout: float = 10.0) -> None:
        """Stop the background tailer (idempotent)."""
        tailer, self._tailer = self._tailer, None
        if tailer is None:
            return
        self._tailer_stop.set()
        tailer.join(timeout=timeout)

    def promote(self) -> None:
        """Stop tailing and accept writes (failover to this replica).

        The promoted workspace keeps serving every replicated dataset
        at its applied position and starts accepting writes *in
        memory* — give it a ``data_dir`` of its own (by rebuilding the
        topology) for durable writes.  Idempotent.
        """
        if self._promoted:
            return
        self.stop_tailing()
        self._promoted = True
        obs_events.emit("replica_promoted", reason="requested")

    @property
    def promoted(self) -> bool:
        return self._promoted

    # ------------------------------------------------------------------
    # Stats + lifecycle
    # ------------------------------------------------------------------
    def replica_lag(self) -> dict[str, int]:
        """Per-dataset replication lag in journal records (seq delta)."""
        lag: dict[str, int] = {}
        with self._lock:
            states = dict(self._rstate)
        for name, rs in states.items():
            position = rs.position
            applied_seq = position.seq if position is not None else 0
            lag[name] = max(0, rs.primary_seq - applied_seq)
        return lag

    def ingest_stats(self) -> dict[str, Any]:
        stats = super().ingest_stats()
        with self._lock:
            states = dict(self._rstate)
        datasets: dict[str, Any] = {}
        for name, rs in sorted(states.items()):
            position = rs.position
            datasets[name] = {
                "version": position.version if position is not None else 0,
                "seq": position.seq if position is not None else 0,
                "primary_seq": rs.primary_seq,
                "lag_seq": max(
                    0,
                    rs.primary_seq
                    - (position.seq if position is not None else 0),
                ),
                "applied_records": rs.applied_records,
                "resets": rs.resets,
                "last_error": rs.last_error,
            }
        stats["replica"] = {
            "promoted": self._promoted,
            "tailing": self._tailer is not None,
            "poll_interval": self._poll_interval,
            "datasets": datasets,
        }
        return stats

    def close(self) -> None:
        self.stop_tailing()
        try:
            self._source.close()
        finally:
            super().close()


__all__ = [
    "FeedSource",
    "LocalFeedSource",
    "ReplicaWorkspace",
]
