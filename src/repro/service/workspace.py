"""The Workspace: multi-dataset serving façade over the Foresight engine.

A :class:`Workspace` owns named datasets and serves
:class:`~repro.service.dto.InsightRequest` DTOs against them:

* datasets are registered as concrete tables or as zero-argument loader
  callables; loaders run lazily on first use, and each dataset gets one
  preprocessed :class:`~repro.core.engine.Foresight` engine, built once
  and reused across requests;
* every dataset carries an ingestion identity ``(version, seq)``: the
  *version* bumps on reload (a new generation, resetting the append
  journal), the *seq* bumps on every accepted :meth:`Workspace.append` —
  validated rows absorbed live by merging per-column sketch partials
  into the engine's store (see :mod:`repro.ingest`) instead of
  rebuilding it;
* responses are cached in an LRU keyed by
  ``(dataset, version, seq, canonical_request)``, with hit/miss
  provenance — and the exact ``(version, seq)`` snapshot identity —
  recorded on every response;
* requests execute on the staged query pipeline over the engine's
  insight index: each candidate domain is enumerated, and each candidate
  scored, once per published snapshot, and every later query on that
  snapshot filters and gathers;
* exploration sessions become workspace-addressable: they are created by
  dataset name and their saved state (which embeds the dataset name)
  restores through the workspace without the caller touching engines.

The workspace is safe under concurrent callers: the result cache is
internally locked, every dataset entry carries its own lock, and engine
builds are *single-flight* — when N threads race on a cold dataset,
exactly one pays for the build (``engine_builds`` in :meth:`describe`
proves it) while the rest wait and reuse it.  :meth:`handle_many`
serves a batch of requests in order on the calling thread, stamping
per-request batch provenance on each response.

Typical use::

    from repro.service import InsightRequest, Workspace
    from repro.data.datasets import load_oecd

    workspace = Workspace()
    workspace.register("oecd", load_oecd)
    response = workspace.handle(InsightRequest(
        dataset="oecd",
        insight_classes=("linear_relationship", "skew", "outliers"),
        top_k=3,
    ))
    for carousel in response.carousels:
        print(carousel["insight_class"], len(carousel["insights"]))
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import (
    ForesightError,
    ProtocolError,
    ServiceError,
    UnknownDatasetError,
    UnknownInsightClassError,
)
from repro.core.engine import EngineConfig, Foresight
from repro.core.pipeline import PipelineStats
from repro.core.query import InsightQuery
from repro.core.session import ExplorationSession
from repro.data.table import DataTable
from repro.ingest.delta import DeltaBatch
from repro.ingest.durable import (
    RECORD_APPEND,
    RECORD_BUILD,
    RECORD_SWAP,
    DatasetJournal,
    DatasetState,
    DurableState,
    ReplayMachine,
    engine_config_from_payload,
    engine_config_to_payload,
    fold_records,
    replay_state,
)
from repro.ingest.log import (
    APPLIED_DEFERRED,
    APPLIED_DELTA_MERGE,
    IngestLog,
)
# ``merge_delta`` is unused here — the delta merge lives in the transition,
# ``repro.ingest.durable``.  The import stays only because
# benchmarks/perf/test_perf_harness.py::
# test_wrappers_are_restored_and_holders_rebound reads
# ``repro.service.workspace.merge_delta`` (see ROADMAP: the next benchmark
# PR re-points that test).
from repro.ingest.maintenance import (  # noqa: F401
    IngestConfig,
    merge_delta,
    should_rebuild,
)
from repro.obs import events as obs_events, lockhook
from repro.obs.config import ObsConfig
from repro.obs.ledger import MemoryLedger, table_bytes
from repro.obs.resources import (
    CostAggregator,
    CostRecorder,
    attach_recorder,
    record_cache_probe,
)
from repro.obs.tracer import Tracer, current_span, obs_span
from repro.obs.watchdog import LockWaitWatchdog, StallDetector
from repro.service.cache import ResultCache
from repro.service.cursor import decode_cursor, encode_cursor
from repro.service.dto import (
    InsightRequest,
    InsightResponse,
    SessionState,
    error_envelope_json,
    error_reply,
)

#: An ``engine.snapshot`` on the warm path records a span only when the
#: entry-lock wait reached this (seconds): a microsecond read of an
#: already-built engine tells no story, a ≥1 ms stall behind a builder,
#: append or reload does.
_SNAPSHOT_SPAN_FLOOR = 0.001


@dataclass(kw_only=True)
class _DatasetEntry(DatasetState):
    """Registration record for one named dataset.

    The inherited :class:`~repro.ingest.durable.DatasetState` fields
    (``table``, ``engine``, ``ingest``, ``engine_builds``, ``loads``) are
    what the journal determines; they advance only through the dataset
    transition (:meth:`Workspace._machine`).  One entry serves a name for
    as long as it is registered: every new generation — registration,
    reload, replace, a restart's or a replica's adoption — is
    :meth:`Workspace._begin_generation_locked` on this same object.
    """

    name: str
    loader: Callable[[], DataTable] | None = None
    engine_config: EngineConfig | None = None
    version: int = 0
    #: Guards lazy loading/building and version bumps for this dataset,
    #: and orders its journal writes.  Reentrant because building the
    #: engine loads the table under the same lock.  Made per entry, so a
    #: lock listener installed after import (``REPRO_DEBUG_LOCKS=1``,
    #: the lock-wait watchdog) sees it too.
    lock: Any = field(
        default_factory=lambda: lockhook.rlock("workspace.entry"))
    #: True when this entry was reconstructed from the durable journal
    #: (restart replay) rather than registered fresh this process.
    restored: bool = False
    #: Durable state awaiting its (expensive) replay.  The entry's
    #: ``version`` and ``ingest`` counters are already exact — only the
    #: table/engine reconstruction is deferred, to first use, so a
    #: restart never pays replay cost for datasets nobody touches.
    pending: DurableState | None = None
    #: True while a background rebuild for this dataset is in flight.
    rebuild_running: bool = False
    #: The last background-rebuild failure, if any (surfaced in stats).
    rebuild_error: str | None = None


class _JournalFailureReport:
    """Emit ``fsync_failure`` for a journal write that failed in the block.

    Wraps the entry-lock hold of each journal writer from the outside,
    so the event goes out once the lock is released: event sinks never
    run under the entry lock.  Stateless, so one instance serves every
    call site — the slow-path read enters it without building a
    generator.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, error, traceback) -> bool:
        if isinstance(error, OSError):
            dataset = error.__dict__.pop("journal_dataset", None)
            if dataset is not None:
                obs_events.emit("fsync_failure", dataset=dataset,
                                error=repr(error))
        return False


_journal_failure_reported = _JournalFailureReport()


def _require_entry_lock(entry: _DatasetEntry) -> None:
    """Refuse a journal-writing step unless this thread holds ``entry``'s
    lock.

    The journal takes no lock of its own: the entry lock orders records
    and assigns ``seq``, and a write without it could land in a
    generation a concurrent reload or replace has already replaced.
    """
    if not entry.lock._is_owned():
        raise RuntimeError(
            f"journal write for dataset {entry.name!r} without its entry lock")


class Workspace:
    """Registers named datasets and serves insight requests against them.

    A request, an engine build and an append each run on the thread that
    asked; the workspace is safe to call from many threads at once, and
    that — requests side by side, datasets behind their own locks — is
    where its concurrency lives.

    ``data_dir`` makes ingestion **durable**: every accepted append is
    committed to an on-disk write-ahead journal (rows included,
    checksummed, fsynced per ``IngestConfig.fsync``) before it is
    acknowledged, and opening a workspace on the same directory replays
    the journal so each dataset's ``(version, seq)`` identity and sketch
    state come back exactly as an uninterrupted process would hold them
    — a torn or corrupted journal tail recovers to the last complete
    record.  Budget-triggered sketch rebuilds run off the append path on
    a background worker (``IngestConfig.rebuild_fraction``), swapping
    the fresh engine in atomically under the single-flight lock.

    ``obs`` is the workspace's :class:`~repro.obs.config.ObsConfig`
    (defaults when None): its tracer, cost windows, memory ledger and
    watchdogs are built from it, and the HTTP server reads it back from
    :attr:`obs_config` (its loop-lag threshold, the ``/healthz`` echo).
    The workspace owns the tracer — the server reuses it via
    :attr:`tracer` so request spans and workspace spans land in one
    trace — and, when ``lock_wait_ms`` is positive, its own lock-wait
    watchdog, which :meth:`close` uninstalls.
    """

    def __init__(
        self,
        cache_size: int = 128,
        ingest: IngestConfig | None = None,
        data_dir: str | None = None,
        obs: ObsConfig | None = None,
    ):
        obs_config = obs or ObsConfig()
        self._obs_config = obs_config
        # Installed before any lock is made: only locks made while the
        # opt-in lock-wait watchdog listens are hooked, so this is what
        # puts the workspace's own locks under watch.
        self._lock_wait = (
            LockWaitWatchdog(obs_config.lock_wait_ms).install()
            if obs_config.lock_wait_ms > 0 else None
        )
        self._entries: dict[str, _DatasetEntry] = {}
        #: The tracing subsystem (always present; a disabled ObsConfig
        #: makes every span a shared no-op).
        self._tracer = Tracer(obs_config)
        self._cache = ResultCache(capacity=cache_size)
        #: Per-request cost attribution (rolling windows, lifetime
        #: totals, top-K ring) and the incremental memory ledger.  Both
        #: exist unconditionally — a disabled ``resources_enabled``
        #: simply never creates recorders or touches the ledger, so the
        #: hot path pays nothing.
        self._costs = CostAggregator(window=obs_config.cost_window)
        self._ledger = MemoryLedger()
        #: Background-rebuild deadline watchdog (``rebuild_stall``
        #: events); deadline 0 disables it.
        self._stall = StallDetector(
            deadline_seconds=obs_config.rebuild_deadline_s
        )
        self._ingest_config = ingest or IngestConfig()
        #: Lifetime pipeline counters across every cache-miss request,
        #: for operational surfaces (the server's ``/metrics``).
        self._stats = PipelineStats()
        self._stats_lock = lockhook.lock("workspace.stats")
        #: Lifetime ingestion totals.  Per-dataset journals reset on
        #: reload (a new generation); these survive it, so the ops
        #: counters stay monotone the way Prometheus counters must.
        self._ingest_totals = {"appends": 0, "rows_appended": 0,
                               "delta_merges": 0, "rebuilds": 0,
                               "bg_rebuilds": 0}
        #: Guards the registry of entries (not per-dataset state).
        self._lock = lockhook.rlock("workspace.registry")
        #: Monotonic per-name version counters.  Versions must never
        #: repeat, not even across a registration that failed and left
        #: the name free: a number minted twice would make a stale cached
        #: response reachable under the new generation's key.
        self._version_counters: dict[str, int] = {}
        #: Lazily created 2-worker pool for background sketch rebuilds
        #: (the budget-triggered rebuild runs here, off the append path).
        self._maintenance: ThreadPoolExecutor | None = None
        self._closed = False
        #: The durable write-ahead journal (None = in-memory only).
        self.data_dir = data_dir
        self._journal: DatasetJournal | None = None
        #: Durable state discovered on disk for datasets that need their
        #: loader before they can replay (consumed by ``register``).
        self._pending_recovery: dict[str, DurableState] = {}
        if data_dir is not None:
            self._journal = DatasetJournal(
                data_dir, fsync=self._ingest_config.fsync
            )
            self._recover_persisted()

    def _check_open(self) -> None:
        """Refuse mutations on a closed workspace.

        close() flushes and closes the journal handles; a late append or
        registration would silently reopen them and write records no
        shutdown barrier covers.  (Writers already in flight when
        close() starts are safe without this: they hold their entry lock
        through their journal write, and close()'s flush_all waits on
        exactly that lock before the journal closes.)
        """
        if self._closed:
            raise ServiceError("workspace is closed")

    # ------------------------------------------------------------------
    # Durable recovery (restart replay)
    # ------------------------------------------------------------------
    def _recover_persisted(self) -> None:
        """Adopt every dataset the journal knows about, without replaying.

        Snapshot-backed datasets (inline registrations, compacted
        generations) are self-contained and come back as *pending*
        entries — exact ``(version, seq)`` and counters now, the
        table/engine replay deferred to first use so startup stays fast.
        Loader-backed journals are stashed and adopted when
        :meth:`register` supplies the loader.
        """
        assert self._journal is not None
        for name in self._journal.dataset_names():
            # Startup recovery runs in __init__, before the workspace is
            # visible to any other thread: the repair truncation of a
            # torn tail races nothing, so it needs no entry lock.
            state = self._journal.load(name, repair=True)
            if state is None:
                continue
            if state.snapshot is not None:
                self._adopt(name, state)
            else:
                # Versions continue past the stashed generation's.
                self._version_counters[name] = state.version
                self._pending_recovery[name] = state

    def _restored_config(
        self,
        state: DurableState,
        supplied: EngineConfig | None = None,
    ) -> EngineConfig | None:
        """The engine config a restored generation must rebuild with.

        The persisted config wins — ``DurableState.engine_config``
        arrives already resolved (snapshot copy when a snapshot exists,
        else the generation header's).  It is what produced the
        journalled delta-merge history, so replaying with anything else
        would break byte-identical restore.  Without a persisted config
        the caller-supplied one (the re-registration's) applies, exactly
        as it would have on the original registration.
        """
        if state.engine_config is not None:
            return engine_config_from_payload(state.engine_config)
        return supplied

    def _adopt(self, name: str, state: DurableState) -> None:
        """Serve durable ``state`` (a restart's snapshot, a replica's
        bootstrap) as a new generation of ``name``'s entry: exact
        ``(version, seq)`` now, the heavy replay at first use."""
        with self._claimed_entry(name) as (entry, _created):
            self._begin_generation_locked(
                entry, loader=None, table=None,
                engine_config=self._restored_config(state), pending=state)

    def _begin_generation_locked(
        self,
        entry: _DatasetEntry,
        *,
        loader: Callable[[], DataTable] | None,
        table: DataTable | None,
        engine_config: EngineConfig | None,
        pending: DurableState | None = None,
        reload: bool = False,
    ) -> int:
        """Start a new generation on ``entry`` (entry lock held).

        The one way a dataset gets one — first registration, reload,
        replace, and a restart's or a replica's adoption of ``pending``
        durable state.  Returns its version.  In order:

        1. **stage**: mint the version (or take ``pending``'s) and the
           generation's log, fresh or folded from ``pending``'s records;
        2. **disk**: a table-backed generation snapshots its rows, a
           loader-backed one starts its journal segment (adopted state
           is already on disk).  Both writes are failure-atomic, so one
           that raises leaves disk *and* memory on the old generation;
        3. **memory**: only then are the entry's fields assigned.  Every
           generation but a reload's starts the lifetime counters over,
           as a new entry would;
        4. **invalidate** the dataset's cached replies.
        """
        _require_entry_lock(entry)
        name = entry.name
        with self._lock:
            latest = self._version_counters.get(name, 0)
            version = latest + 1 if pending is None else pending.version
            self._version_counters[name] = max(latest, version)
        ingest = (IngestLog() if pending is None
                  else fold_records(name, pending.base_log(), pending.records))
        if self._journal is not None and pending is None:
            if table is not None:
                self._write_snapshot_locked(
                    entry, version, DatasetState(table=table, ingest=ingest),
                    engine_config)
            else:
                self._journal.begin_generation(name, version, engine_config=(
                    None if engine_config is None
                    else engine_config_to_payload(engine_config)))
        entry.version, entry.loader, entry.engine_config = (
            version, loader, engine_config)
        entry.table, entry.engine, entry.ingest, entry.pending = (
            table, None, ingest, pending)
        if not reload:
            entry.engine_builds = entry.loads = 0
            entry.restored = pending is not None
            entry.rebuild_error = None
        self._account_entry(entry)
        self._cache.invalidate(name)
        return version

    def _materialize(self, entry: _DatasetEntry) -> None:
        """Run the deferred journal replay (caller holds the entry lock).

        Reconstructs the exact table, engine and full ingest log an
        uninterrupted process would hold.  Nothing is journalled here —
        replay reads history, it never extends it.
        """
        state = entry.pending
        if state is None:
            return
        replayed = replay_state(
            entry.name, state, base_table=entry.loader,
            make_engine=self._make_engine(entry),
        )
        entry.table, entry.engine, entry.ingest = (
            replayed.table, replayed.engine, replayed.ingest)
        entry.engine_builds += replayed.engine_builds
        entry.loads += replayed.loads
        entry.pending = None
        self._account_entry(entry)

    def _table_locked(self, entry: _DatasetEntry) -> DataTable:
        """The entry's table — deferred replay run, loader run if it has
        not yet (caller holds the entry lock)."""
        self._materialize(entry)
        if entry.table is None:
            assert entry.loader is not None
            entry.table = entry.loader()
            entry.loads += 1
        return entry.table

    def _make_engine(
        self, entry: _DatasetEntry
    ) -> Callable[[DataTable], Foresight]:
        """A full engine build under ``entry``'s config."""
        config = entry.engine_config or EngineConfig()
        return lambda table: Foresight(table, config=config)

    def _machine(self, entry: _DatasetEntry) -> ReplayMachine:
        """The dataset transition bound to ``entry``'s own state.

        Every change to ``(table, engine, ingest)`` within a generation
        goes through it (caller holds the entry lock): this workspace's
        appends, cold builds and rebuild swaps via
        :meth:`_transition_locked`; a replica applies the primary's
        records.
        """
        return ReplayMachine(entry.name, entry, self._make_engine(entry))

    def _transition_locked(
        self,
        entry: _DatasetEntry,
        record: dict[str, Any],
        batch: DeltaBatch | None = None,
        fresh: Foresight | None = None,
    ) -> None:
        """Stage → journal → commit one decided record (entry lock held).

        Write-ahead: the record is made durable in the journal (if there
        is one — written, flushed and fsynced by
        :meth:`DatasetJournal.append <repro.ingest.durable.DatasetJournal.append>`)
        between the side-effect-free stage and the in-memory commit, so
        a record is visible only once it is durable.  A stage or journal
        write that raises fails the operation whole — the caller sees
        the error and the serving state is untouched.
        ``batch`` / ``fresh`` are work already done, handed to
        :meth:`ReplayMachine.stage <repro.ingest.durable.ReplayMachine.stage>`.
        """
        _require_entry_lock(entry)
        machine = self._machine(entry)
        staged = machine.stage([record], batch=batch, fresh=fresh)
        if self._journal is not None:
            # An ambient child (or no-op outside any trace), never a root.
            with obs_span("journal.append") as journal_span:
                if "n_rows" in record:
                    journal_span.set_attribute("n_rows", record["n_rows"])
                try:
                    self._journal.append(entry.name, record)
                except OSError as error:
                    # Marked for _journal_failure_reported, which emits
                    # the event once the entry lock is released.
                    error.journal_dataset = entry.name
                    raise
        machine.commit([record], staged)

    def _write_snapshot_locked(
        self,
        entry: _DatasetEntry,
        version: int,
        state: DatasetState,
        engine_config: EngineConfig | None,
    ) -> None:
        """Persist ``state`` as generation ``version``'s compaction
        snapshot (caller holds the entry lock).

        Only legal when the engine state is reproducible from the table
        rows plus the ``(base_rows, catch-up)`` split — i.e. right after
        a full rebuild, or while no approximate engine exists.
        """
        _require_entry_lock(entry)
        if self._journal is None or state.table is None:
            return
        name = entry.name
        log = state.ingest
        meta = {
            "type": "snapshot",
            "version": version,
            "seq": log.seq,
            "n_rows": state.table.n_rows,
            "base_rows": log.base_rows,
            "engine_built": (state.engine is not None
                             and state.engine.store is not None),
            "counters": log.to_payload(),
        }
        if engine_config is not None:
            # A custom config must survive restarts with the rows: a
            # restored dataset rebuilt under the workspace default would
            # silently serve different results than the uninterrupted
            # process.  (None, the workspace default, resolves the same.)
            meta["engine_config"] = engine_config_to_payload(engine_config)
        # An ambient child (or no-op outside any trace), never a root:
        # this runs under the entry lock, where completing a root trace
        # — the buffer drain plus a possible slow-request event — must
        # never happen.
        with obs_span("journal.snapshot", dataset=name) as span:
            span.set_attribute("seq", log.seq)
            span.set_attribute("n_rows", state.table.n_rows)
            self._journal.write_snapshot(name, meta, state.table)

    def _account_entry(self, entry: _DatasetEntry) -> None:
        """Re-size one dataset's memory-ledger rows (entry lock held).

        Called at the mutation points that change what the dataset
        pins — engine build/swap, append, rebuild, reload, journal
        rotation — never on the read path.  The table walk is
        O(columns) (numpy ``nbytes`` dominates), the sketch total and
        the journal's disk usage are already-maintained counters, so
        the whole call is noise next to the mutation it follows.
        """
        if not self._obs_config.resources_enabled:
            return
        name = entry.name
        table = entry.table
        self._ledger.set("table", table_bytes(table) if table is not None else 0,
                         dataset=name)
        engine = entry.engine
        store = engine.store if engine is not None else None
        self._ledger.set("sketches",
                         store.memory_bytes() if store is not None else 0,
                         dataset=name)
        if self._journal is not None:
            usage = self._journal.disk_usage(name)
            self._ledger.set("journal_disk", usage["journal_bytes"],
                             dataset=name)
            self._ledger.set("snapshot_disk", usage["snapshot_bytes"],
                             dataset=name)

    # ------------------------------------------------------------------
    # Dataset management
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        source: DataTable | Callable[[], DataTable],
        engine_config: EngineConfig | None = None,
        replace: bool = False,
    ) -> None:
        """Register a dataset under ``name``.

        ``source`` is either a concrete :class:`DataTable` or a
        zero-argument callable returning one; callables run lazily on
        first use and again on :meth:`reload`.  Re-registering an existing
        name requires ``replace=True``: like a reload it starts a new
        generation of the same dataset (version bump + cache
        invalidation), only from the new source, and a replace whose
        generation cannot be made durable leaves the old one serving.

        With a durable ``data_dir``, registration is restart-aware:

        * a name whose journal was already restored at startup (from a
          snapshot) *adopts* the loader for future reloads instead of
          raising "already registered";
        * a name with journalled state that needed its loader adopts
          it, and first use replays the journal to the exact ``(version,
          seq)`` and sketch state the previous process held;
        * a brand-new name starts a journal generation, and a concrete
          table is snapshotted so it survives restarts without a loader.

        A custom ``engine_config`` is persisted inside the dataset's
        snapshot and restored with it, so a restart rebuilds with the
        exact configuration the dataset was registered under.  For
        journalled state the persisted config is authoritative (it is
        what produced the journalled history); pass ``replace=True`` to
        register under a different one.
        """
        if not name:
            raise ServiceError("dataset name must be a non-empty string")
        self._check_open()
        if isinstance(source, DataTable):
            loader, table = None, source
        elif callable(source):
            loader, table = source, None
        else:
            raise ServiceError(
                "dataset source must be a DataTable or a zero-argument callable, "
                f"got {type(source).__name__}"
            )
        with self._claimed_entry(name) as (entry, created):
            # Journalled state a restart stashed for the name, waiting
            # for its loader; a replace discards it.
            stashed = entry.pending if created and not replace else None
            if stashed is not None and table is None:
                # The journal's generation continues, under the config
                # its appends were journalled with.
                self._begin_generation_locked(
                    entry, loader=loader, table=None,
                    engine_config=self._restored_config(stashed,
                                                        engine_config),
                    pending=stashed)
            elif stashed is not None and stashed.records:
                # A concrete table can't silently replace journalled rows.
                raise ServiceError(
                    f"dataset {name!r} has journalled state in the data "
                    "dir; pass replace=True to discard it"
                )
            elif created or replace:
                self._check_open()
                self._begin_generation_locked(
                    entry, loader=loader, table=table,
                    engine_config=engine_config)
            elif entry.restored and loader is not None:
                # Restart adoption: the journal already rebuilt this
                # dataset from its snapshot; the loader only serves
                # future reloads.  (The persisted engine config, when
                # the snapshot carried one, stays authoritative for the
                # restored generation.)
                if entry.loader is None:
                    entry.loader = loader
                if (entry.engine_config is None and entry.engine is None
                        and engine_config is not None):
                    entry.engine_config = engine_config
            else:
                raise ServiceError(
                    f"dataset {name!r} is already registered; pass "
                    "replace=True to override it"
                )

    def datasets(self) -> list[str]:
        """Registered dataset names, in registration order."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def version(self, name: str) -> int:
        """The current version of a dataset (bumped on every reload)."""
        return self.state(name)[0]

    def seq(self, name: str) -> int:
        """The dataset's append-journal position (0 = no appends yet)."""
        return self.state(name)[1]

    def state(self, name: str) -> tuple[int, int]:
        """The dataset's full ingestion identity ``(version, seq)``."""
        with self._locked_entry(name) as entry:
            return entry.version, entry.ingest.seq

    def table(self, name: str) -> DataTable:
        """The dataset's table, running its loader if not yet materialised.

        Loading is single-flight: concurrent callers on a cold dataset
        run the loader exactly once.
        """
        with self._locked_entry(name) as entry:
            return self._table_locked(entry)

    def engine(self, name: str) -> Foresight:
        """The dataset's preprocessed engine, built lazily and cached.

        Builds are single-flight: when N threads race on a cold dataset,
        one thread pays for preprocessing under the entry lock while the
        rest wait and reuse the finished engine (``engine_builds`` stays
        at 1).
        """
        return self._engine_snapshot(name)[0]

    def engine_builds(self, name: str) -> int:
        """How many times this dataset's engine has been built."""
        with self._locked_entry(name) as entry:
            return entry.engine_builds

    def reload(self, name: str) -> int:
        """Re-run the dataset's loader, bump its version, drop cached state.

        Returns the new version.  Datasets registered as concrete tables
        (no loader) keep their table but still get a version bump and
        cache/engine invalidation, which is the explicit way to signal
        "the underlying data changed" after in-place mutation.
        """
        with self._locked_entry(name) as entry:
            self._check_open()
            if entry.loader is None:
                # The kept rows are the new generation's base: run any
                # deferred replay that still holds them.  (A loader
                # re-runs fresh, so its pending replay is simply dropped
                # once the new generation is durable.)
                self._materialize(entry)
            version = self._begin_generation_locked(
                entry, loader=entry.loader,
                table=entry.table if entry.loader is None else None,
                engine_config=entry.engine_config, reload=True)
        obs_events.emit("generation_rotation", dataset=name, version=version,
                        durable=self._journal is not None)
        return version

    def invalidate(self, name: str | None = None) -> int:
        """Evict cached responses for one dataset (or all); returns the count."""
        if name is not None:
            self._entry(name)
        return self._cache.invalidate(name)

    # ------------------------------------------------------------------
    # Live ingestion
    # ------------------------------------------------------------------
    def append(
        self, name: str, rows: Sequence[Mapping[str, Any]]
    ) -> "AppendResult":
        """Append validated rows to a dataset, keeping its engine live.

        The whole append runs under the dataset's single-flight lock, as
        one pass through the dataset transition
        (:class:`~repro.ingest.durable.ReplayMachine`, which owns what
        each kind of append does to the table and engine):

        1. **validate** — the rows become a
           :class:`~repro.ingest.delta.DeltaBatch` against the dataset
           schema (all-or-nothing;
           :class:`~repro.errors.DeltaValidationError` on any problem);
        2. **decide** — the policy, and the only part that is this
           method's own: ``deferred`` while no approximate engine
           exists, else ``delta_merge`` (sketch partials over just the
           delta rows merged into copies of the live store's sketches).
           When the merge exhausts the accuracy budget
           (``IngestConfig.rebuild_fraction``), a full rebuild is
           scheduled off the append path (:meth:`rebuild`).  The
           journal record carries the decision;
        3. **stage → journal → commit** — the next table and engine are
           computed without touching the entry, the record (rows
           included) is written ahead, and only then does the staged
           state swap in: a query that snapshotted ``(engine, version,
           seq)`` before the swap keeps reading the old, internally
           consistent store, and a failure at either earlier step leaves
           the serving state untouched.

        Only this dataset's cached responses are invalidated; the
        version-and-seq-qualified cache key already makes them
        unreachable, invalidation just reclaims the memory eagerly.
        """
        schedule_rebuild = False
        with (self._tracer.span("workspace.append", dataset=name) as append_span,
              _journal_failure_reported):
            with self._locked_entry(name) as entry:
                self._check_open()
                table = self._table_locked(entry)
                batch = DeltaBatch.from_records(name, list(rows), table.schema)
                engine = entry.engine
                if engine is None or engine.store is None:
                    # Nothing sketched to maintain (no engine yet, or an
                    # exact-mode one): the rows simply extend the table.
                    applied = APPLIED_DEFERRED
                else:
                    # The delta-merge fast path — also taken when a
                    # rebuild is due: it runs in the background, and the
                    # append never pays for it.
                    applied = APPLIED_DELTA_MERGE
                    schedule_rebuild = should_rebuild(
                        entry.ingest, batch.n_rows, self._ingest_config
                    )
                seq = entry.ingest.seq + 1
                total_rows = table.n_rows + batch.n_rows
                record = {
                    "type": RECORD_APPEND,
                    "seq": seq,
                    "applied": applied,
                    "n_rows": batch.n_rows,
                    "total_rows": total_rows,
                    "ts": time.time(),
                }
                if self._journal is not None:
                    record["rows"] = batch.to_records()
                self._transition_locked(entry, record, batch=batch)
                version = entry.version
                self._account_entry(entry)
            append_span.set_attribute("applied", applied)
            append_span.set_attribute("seq", seq)
            append_span.set_attribute("rows", batch.n_rows)
        with self._stats_lock:
            self._ingest_totals["appends"] += 1
            self._ingest_totals["rows_appended"] += batch.n_rows
            if applied == APPLIED_DELTA_MERGE:
                self._ingest_totals["delta_merges"] += 1
        self._cache.invalidate(name)
        if schedule_rebuild:
            self._schedule_rebuild(name)
        return AppendResult(
            dataset=name,
            version=version,
            seq=seq,
            rows_appended=batch.n_rows,
            total_rows=total_rows,
            applied=applied,
        )

    def rebuild(self, name: str) -> dict[str, Any] | None:
        """Rebuild a dataset's sketches off the append path, swap atomically.

        The heavy work — a full preprocess over a snapshot of the table
        — runs **without** the dataset lock, so appends keep
        delta-merging and queries keep serving while it runs.  At swap
        time, under the lock, the fresh engine is handed to the dataset
        transition as a ``swap`` record (stage → journal → commit, see
        :class:`~repro.ingest.durable.ReplayMachine`): rows appended
        since the snapshot are delta-merged onto the fresh store, the
        engine swaps in whole (readers never observe a half-built
        engine), and the swap mints a sequence number of its own — two
        different engine states must never share one ``(version, seq)``
        identity.  A reload or re-registration racing the rebuild
        discards it (returns None).

        Returns a summary dict, or None when there was nothing to
        rebuild (no approximate engine) or the result was discarded.
        """
        if self._closed:
            return None
        # Roots its own trace: background rebuilds run on a maintenance
        # thread with no ambient request span.
        with (self._tracer.span("workspace.rebuild", dataset=name) as rebuild_span,
              _journal_failure_reported):
            with self._locked_entry(name) as entry:
                self._materialize(entry)
                engine = entry.engine
                if engine is None:
                    # Nothing built yet: the lazy cold build *is* a fresh
                    # sketch of every row.
                    self._engine_snapshot(name)
                    return {
                        "dataset": name, "version": entry.version,
                        "seq": entry.ingest.seq,
                        "built_from_rows": entry.table.n_rows,
                        "merged_rows": 0,
                    }
                if engine.store is None:
                    return None  # exact mode: nothing sketched to refresh
                base_table = entry.table
                version = entry.version
            # Full preprocess over the snapshot — off-lock, possibly
            # seconds.
            with obs_span("engine.build") as build_span:
                build_span.set_attribute("rows", base_table.n_rows)
                fresh = Foresight(base_table, registry=engine.registry,
                                  config=engine.config)
            with entry.lock:
                # A moved version means a reload or replace started a
                # new generation while the build ran: this rebuild must
                # not swap, let alone journal into or snapshot over it.
                # The version only moves under this lock, so the check
                # is atomic with the writes below.  _closed is re-checked
                # too: close() waits only on the maintenance pool and the
                # entry locks, so it may have closed the journal under a
                # direct rebuild() call's off-lock build.
                if (self._closed or entry.version != version
                        or entry.engine is None):
                    return None
                if entry.engine.store is None:  # pragma: no cover - defensive
                    return None
                n_now = entry.table.n_rows
                n_base = base_table.n_rows
                seq = entry.ingest.seq + 1
                record = {
                    "type": RECORD_SWAP,
                    "seq": seq,
                    "built_from_rows": n_base,
                    "total_rows": n_now,
                    "ts": time.time(),
                }
                self._transition_locked(entry, record, fresh=fresh)
                entry.rebuild_error = None
                self._write_snapshot_locked(
                    entry, entry.version, entry, entry.engine_config)
                self._account_entry(entry)
            with self._stats_lock:
                self._ingest_totals["rebuilds"] += 1
                self._ingest_totals["bg_rebuilds"] += 1
            self._cache.invalidate(name)
            rebuild_span.set_attribute("seq", seq)
            rebuild_span.set_attribute("built_from_rows", n_base)
            rebuild_span.set_attribute("merged_rows", n_now - n_base)
            obs_events.emit("rebuild_swap", dataset=name, version=version,
                            seq=seq, built_from_rows=n_base,
                            merged_rows=n_now - n_base)
            return {
                "dataset": name, "version": version, "seq": seq,
                "built_from_rows": n_base, "merged_rows": n_now - n_base,
            }

    def _schedule_rebuild(self, name: str) -> None:
        """Queue a background rebuild unless one is already in flight."""
        with self._locked_entry(name) as entry:
            if entry.rebuild_running or self._closed:
                return
            entry.rebuild_running = True

        def _run() -> None:
            # The deadline watchdog covers exactly the maintenance-pool
            # execution: armed when the job starts running (queue wait
            # is not a stall), disarmed however the job exits.
            token = self._stall.watch(name, kind="background_rebuild")
            try:
                self.rebuild(name)
            except Exception as exc:  # noqa: BLE001 - surfaced in stats
                with entry.lock:
                    entry.rebuild_error = f"{type(exc).__name__}: {exc}"
            finally:
                token.done()
                with entry.lock:
                    entry.rebuild_running = False

        pool = self._maintenance_pool()
        if pool is None:
            with entry.lock:
                entry.rebuild_running = False
            return
        try:
            pool.submit(_run)
        except RuntimeError:
            # close() shut the pool between our checks: drop the
            # rebuild — a closed workspace schedules nothing.
            with entry.lock:
                entry.rebuild_running = False

    def _maintenance_pool(self) -> ThreadPoolExecutor | None:
        """The background-rebuild pool, or None once the workspace closed.

        Created under the registry lock — the same lock close() takes to
        set ``_closed`` — so an append racing close() can never conjure
        a fresh pool (and journal writes) after close() returned.
        """
        with self._lock:
            if self._closed:
                return None
            if self._maintenance is None:
                self._maintenance = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="repro-maintenance",
                )
            return self._maintenance

    def wait_for_rebuilds(self, timeout: float = 30.0) -> bool:
        """Block until no background rebuild is in flight (True on success)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                entries = list(self._entries.values())
            if not any(entry.rebuild_running for entry in entries):
                return True
            time.sleep(0.005)
        return False

    # ------------------------------------------------------------------
    # Durability operations
    # ------------------------------------------------------------------
    def flush(self, name: str) -> dict[str, Any]:
        """Force a dataset's journal to stable storage.

        With fsync-on-commit (the default) every acknowledged append is
        already durable and this is a cheap no-op barrier; with
        ``IngestConfig(fsync=False)`` it is the explicit durability
        point.  Returns the dataset's current identity and whether the
        workspace is durable at all.
        """
        with self._locked_entry(name) as entry:
            if self._journal is not None:
                self._sync_locked(entry)
            return {
                "dataset": name,
                "version": entry.version,
                "seq": entry.ingest.seq,
                "durable": self._journal is not None,
            }

    def _sync_locked(self, entry: _DatasetEntry) -> None:
        _require_entry_lock(entry)
        self._journal.sync(entry.name)

    def flush_all(self) -> list[dict[str, Any]]:
        """Flush every dataset's journal (shutdown / drain hook)."""
        return [self.flush(name) for name in self.datasets()]

    def close(self) -> None:
        """Flush journals, wait out background rebuilds, release workers.

        Idempotent.  A workspace used purely in memory (no ``data_dir``,
        no background rebuild ever scheduled) has nothing to release and
        close() is free, but for uninstalling its lock-wait watchdog.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            maintenance, self._maintenance = self._maintenance, None
        if maintenance is not None:
            maintenance.shutdown(wait=True)  # waits for an in-flight rebuild
        try:
            if self._journal is not None:
                try:
                    self.flush_all()
                finally:
                    self._journal.close()
        finally:
            if self._lock_wait is not None:
                self._lock_wait.uninstall()

    def ingest_stats(self) -> dict[str, Any]:
        """Ingestion counters (lifetime totals + per-dataset) for ops.

        ``totals`` are lifetime and monotone (they survive reloads);
        each dataset's counters describe its *current generation* — the
        appends journalled since its last reload — matching the ``seq``
        its responses carry, plus the live background-rebuild state.
        """
        with self._lock:
            entries = list(self._entries.values())
        datasets = {}
        for entry in entries:
            counters = entry.ingest.counters()
            counters["rebuild_running"] = entry.rebuild_running
            if entry.rebuild_error is not None:
                counters["rebuild_error"] = entry.rebuild_error
            datasets[entry.name] = counters
        with self._stats_lock:
            totals = dict(self._ingest_totals)
        return {
            "totals": totals,
            "datasets": datasets,
            "durable": self._journal is not None,
        }

    # ------------------------------------------------------------------
    # Request serving
    # ------------------------------------------------------------------
    def handle(
        self, request: InsightRequest | Mapping[str, Any] | str
    ) -> InsightResponse:
        """Serve one insight request (DTO, dict payload, or JSON text).

        Safe to call from many threads at once.  The engine/version pair
        is snapshotted atomically, so a response's ``dataset_version``
        always matches the engine that produced it; a reload racing with
        an in-flight request at worst leaves one response cached under
        the old version, where the version-qualified key makes it
        unreachable.
        """
        return self._serve(self._coerce_request(request), self._handle_traced)

    def peek_cached(self, request: InsightRequest,
                    parent: Any = None) -> str | None:
        """The reply :meth:`handle` would send from the result cache —
        as canonical JSON — or None; never waits, never computes.

        For a caller that must not block (the server's event loop): None
        means "ask :meth:`handle`", and is the answer whenever the
        dataset's ``(version, seq)`` cannot be read without waiting — an
        append, build, reload or replace holds its entry lock — or the
        engine is cold, replay is pending, or nothing is cached under
        the key.  A None records nothing (no span, no bill, no cache
        miss: ``handle`` will count that once); a reply records exactly
        what a ``handle`` hit does, its span parented to ``parent``.
        """
        snapshot = self._peek_snapshot(request.dataset)
        if snapshot is None:
            return None
        cached = self._cache.peek(
            (request.dataset, *snapshot[1:], request.canonical_key()))
        if cached is None:
            return None
        # The cached text is the reply; only the cost echo of a ``debug``
        # request needs an object to be stamped on.
        rehydrate = request.debug
        reply = self._serve(
            request,
            lambda _request, span: self._hit_reply(cached, span, rehydrate),
            parent,
        )
        return reply.to_json() if rehydrate else reply

    def answer_warm(self, request: InsightRequest,
                    parent: Any = None) -> str | None:
        """The reply :meth:`handle` would send now — as canonical JSON —
        if computing it needs no wait, no enumeration and no score;
        otherwise None.

        For the server's event loop, after :meth:`peek_cached` said no: a
        miss whose every domain and admissible score the snapshot's
        insight index already holds is a filter and a sort.  The
        snapshot is read as :meth:`peek_cached` reads it, under a
        try-lock of the entry lock; None — recording nothing — when that
        lock is held, the engine is cold, replay is pending, a domain is
        not held or an admissible score is missing
        (:meth:`~repro.core.engine.Foresight.answers_from_index`).
        Otherwise the answer runs :meth:`handle`'s own body on that
        snapshot, so its span, cost bill, cache-miss count, pipeline
        stats and cache put are exactly a miss's.  That body enumerates
        and scores nothing, because the index of the engine read only
        ever gains domains and scores.  Like :meth:`handle`, it holds the
        entry lock only to read the snapshot: an append waits for no
        ranking.
        """
        snapshot = self._peek_snapshot(request.dataset)
        if snapshot is None:
            return None
        engine = snapshot[0]
        try:
            page = self._page_queries(request, engine)
            warm = engine.answers_from_index(page[2])
        except ForesightError:
            warm = False  # handle() reports it
        if not warm:
            return None
        return self._serve(
            request,
            lambda _request, span: self._handle_traced(
                _request, span, snapshot, page),
            parent,
        ).reply_json()

    def _peek_snapshot(self, name: str) -> tuple[Foresight, int, int] | None:
        """The dataset's engine and current ``(version, seq)``, if reading
        them needs no wait and the engine is warm."""
        entry = self._entries.get(name)
        if entry is None or not entry.lock.acquire(blocking=False):
            return None
        try:
            if entry.engine is None or entry.pending is not None:
                return None
            return entry.engine, entry.version, entry.ingest.seq
        finally:
            entry.lock.release()

    def _serve(
        self,
        request: InsightRequest,
        reply: Callable[[InsightRequest, Any], Any],
        parent: Any = None,
    ) -> Any:
        """One ``workspace.handle`` span and one cost bill around ``reply``."""
        if not self._obs_config.resources_enabled:
            with self._tracer.span("workspace.handle", parent,
                                   dataset=request.dataset) as handle_span:
                return reply(request, handle_span)
        recorder = CostRecorder()
        with self._tracer.span("workspace.handle", parent,
                               dataset=request.dataset) as handle_span:
            handle_span.set_cost(recorder)
            # The CPU window closes before the snapshot below, so the
            # handler thread's CPU is in the recorded total.
            with attach_recorder(recorder), recorder.cpu_window():
                response = reply(request, handle_span)
            snapshot = recorder.finish().snapshot()
            self._costs.record(
                snapshot,
                datasets=(request.dataset,),
                classes=request.insight_classes,
                trace_id=handle_span.trace_id,
            )
            if request.debug:
                # Stamped after the cache write inside _handle_traced:
                # the echo is per-serve diagnostics and must never enter
                # (or fork) the cached canonical payload.
                response.provenance = {**response.provenance,
                                       "cost": snapshot}
            return response

    @staticmethod
    def _hit_reply(cached: str, handle_span: Any,
                   rehydrate: bool = True) -> InsightResponse | str:
        """What a result-cache hit answers and records.

        The cache stores the canonical JSON a hit sends, so a hit is
        either that text as it stands or — rehydrated — a fresh object
        no caller can reach a cached entry through.  (No span of its
        own: a dict probe is microseconds, and the ``cache`` attribute
        on the handle span already tells the hit/miss story.)
        """
        record_cache_probe(True)
        handle_span.set_attribute("cache", "hit")
        return InsightResponse.from_json(cached) if rehydrate else cached

    @staticmethod
    def _page_queries(
        request: InsightRequest, engine: Foresight
    ) -> tuple[int, int, list[InsightQuery]]:
        """``(offset, page_size, queries)``: the request's page and the
        queries that rank through its end."""
        offset = decode_cursor(request.cursor)
        page_size = request.top_k
        return offset, page_size, request.to_queries(
            default_mode=engine.config.mode, top_k=offset + page_size)

    def _handle_traced(
        self, request: InsightRequest, handle_span: Any,
        snapshot: tuple[Foresight, int, int] | None = None,
        page: tuple[int, int, list[InsightQuery]] | None = None,
    ) -> InsightResponse:
        """The traced body of :meth:`handle` (cost accounting around it).

        ``snapshot`` and ``page`` are :meth:`answer_warm`'s: the snapshot
        read without a wait, whose index answers the request without
        enumerating or scoring, and :meth:`_page_queries` on it.
        """
        engine, version, seq = (snapshot if snapshot is not None
                                else self._engine_snapshot(request.dataset))
        key = (request.dataset, version, seq, request.canonical_key())

        cached = self._cache.get(key)
        if cached is not None:
            return self._hit_reply(cached, handle_span)
        record_cache_probe(False)
        handle_span.set_attribute("cache", "miss")

        start = time.perf_counter()
        offset, page_size, queries = (page if page is not None
                                      else self._page_queries(request, engine))
        stats = PipelineStats()
        results = engine.rank_many(queries, stats=stats)
        with self._stats_lock:
            self._stats.merge(stats)

        carousels = []
        has_more = False
        for name, result in zip(request.insight_classes, results):
            page = result.insights[offset : offset + page_size]
            carousels.append(
                {
                    "insight_class": name,
                    "label": engine.registry.get(name).label or name,
                    "insights": [insight.as_dict() for insight in page],
                    "n_admitted": result.n_admitted,
                    "truncated": result.truncated,
                }
            )
            if result.n_admitted > offset + page_size:
                has_more = True
        elapsed = time.perf_counter() - start

        response = InsightResponse(
            dataset=request.dataset,
            dataset_version=version,
            dataset_seq=seq,
            carousels=carousels,
            timing={"total_seconds": elapsed},
            # The pipeline's work counters describe how warm the index
            # was, not the answer: they go to /metrics, never the reply.
            provenance={
                "cache": "miss",
                "mode": request.mode or engine.config.mode,
            },
            next_cursor=(encode_cursor(offset + page_size)
                         if has_more else None),
        )
        # Cached as a hit will send it; this first answer differs from
        # the text just stored in that one word, and its reply is
        # derived from that text (``reply_json``).
        self._cache.put(key, response.cache_json())
        return response

    def handle_many(
        self,
        requests: Sequence[InsightRequest | Mapping[str, Any] | str],
    ) -> list[InsightResponse]:
        """Serve a batch of requests in order, on the calling thread.

        Each request runs through :meth:`handle`, so batches get the full
        machinery — result cache, single-flight engine builds, the
        snapshot's insight index — plus per-request batch provenance
        (``provenance["batch"]`` carries the request's index and the
        batch size).  The first request failure propagates, mirroring
        :meth:`handle`.
        """
        coerced = [self._coerce_request(request) for request in requests]
        responses = []
        for index, request in enumerate(coerced):
            response = self.handle(request)
            # Annotate after handle() has cached the canonical JSON, so
            # batch position never leaks into cached responses.
            response.provenance = {
                **response.provenance,
                "batch": {"index": index, "size": len(coerced)},
            }
            responses.append(response)
        return responses

    def handle_json(self, text: str) -> str:
        """JSON-in / JSON-out convenience for transport adapters.

        Library failures never raise: malformed JSON, a field of the
        wrong type, an unknown dataset or insight class, an empty
        metric range — each comes back as the structured DTO error
        envelope (``{"status": "error", "code": ..., "message": ...}``)
        with the ``code`` the HTTP server gives it
        (:func:`~repro.service.dto.error_reply`), so a transport can ship
        the payload verbatim with the matching status code.  Failures
        from outside the library (a buggy loader, say) still propagate —
        they are server faults, not request faults.
        """
        try:
            return self.handle(InsightRequest.from_json(text)).reply_json()
        except ForesightError as exc:
            _status, code, details = error_reply(exc)
            return error_envelope_json(code, str(exc), **details)

    # ------------------------------------------------------------------
    # Sessions (workspace-addressable by dataset name)
    # ------------------------------------------------------------------
    def session(self, dataset: str, name: str = "session") -> ExplorationSession:
        """Start an exploration session on a registered dataset."""
        return ExplorationSession(self.engine(dataset), name=name, dataset=dataset)

    def restore_session(
        self, state: SessionState | Mapping[str, Any] | str
    ) -> ExplorationSession:
        """Rebuild a session from saved state, resolving its dataset by name."""
        if isinstance(state, str):
            state = SessionState.from_json(state)
        elif not isinstance(state, SessionState):
            state = SessionState.from_dict(state)
        if state.dataset not in self._entries:
            raise UnknownDatasetError(state.dataset, self.datasets())
        return ExplorationSession.restore(self.engine(state.dataset), state)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the result cache."""
        return self._cache.info()

    def pipeline_stats(self) -> dict[str, Any]:
        """Lifetime pipeline counters summed over every cache-miss request.

        A consistent snapshot (taken under the accumulator lock) of
        enumerations, shared domains, score evaluations, index hits and
        elapsed seconds — the raw material for the server's ``/metrics``.
        """
        with self._stats_lock:
            return self._stats.as_dict()

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def obs_config(self) -> ObsConfig:
        """The observability configuration this workspace was built with."""
        return self._obs_config

    @property
    def tracer(self) -> Tracer:
        """The workspace's tracer (the server mounts ``/v1/traces`` on it)."""
        return self._tracer

    @property
    def costs(self) -> CostAggregator:
        """Per-request cost windows and totals (``/metrics`` reads these)."""
        return self._costs

    @property
    def ledger(self) -> MemoryLedger:
        """The incremental memory ledger (workspace-sized components)."""
        return self._ledger

    def debug_info(self, top_k: int | None = None) -> dict[str, Any]:
        """The ``/v1/debug`` document: ledger, costs, watchdog state.

        Every number here is an already-maintained counter — no object
        walking, no lock held across anything slow — so the endpoint
        stays safe to poll against a loaded server.  ``top_k`` bounds
        the most-CPU-expensive recent-request listing and defaults to
        ``ObsConfig.debug_top_k``.
        """
        if top_k is None:
            top_k = self._obs_config.debug_top_k
        tracer_stats = self._tracer.stats()
        with self._lock:
            engines = [entry.engine for entry in self._entries.values()]
        extra = {
            "result_cache": self._cache.info()["bytes"],
            "trace_ring": tracer_stats["ring_bytes"],
            "insight_index": sum(engine.index.nbytes for engine in engines
                                 if engine is not None),
        }
        watchdogs: dict[str, Any] = {"rebuild_stall": self._stall.snapshot()}
        if self._lock_wait is not None:
            watchdogs["lock_wait"] = self._lock_wait.snapshot()
        return {
            "resources_enabled": self._obs_config.resources_enabled,
            "memory": self._ledger.snapshot(extra=extra),
            "costs": self._costs.snapshot(top_k=top_k),
            "watchdogs": watchdogs,
        }

    def describe(self) -> list[dict[str, Any]]:
        """Status of every registered dataset (for ops endpoints).

        Never blocks: a dataset whose entry lock is held (a load or
        engine build in progress) is reported from a lock-free snapshot
        with ``busy=True`` instead of waiting the build out — health and
        metrics endpoints must stay responsive while a cold dataset
        preprocesses.
        """
        with self._lock:
            entries = list(self._entries.values())
        described = []
        for entry in entries:
            busy = not entry.lock.acquire(blocking=False)
            try:
                described.append(
                    {
                        "name": entry.name,
                        "version": entry.version,
                        "seq": entry.ingest.seq,
                        "loaded": entry.table is not None,
                        "engine_built": entry.engine is not None,
                        "engine_builds": entry.engine_builds,
                        "lazy": entry.loader is not None,
                        "busy": busy,
                        "rebuild_running": entry.rebuild_running,
                        "ingest": entry.ingest.counters(),
                    }
                )
            finally:
                if not busy:
                    entry.lock.release()
        return described

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace(datasets={self.datasets()!r}, "
            f"cache={self._cache.info()['size']}/{self._cache.capacity})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _entry(self, name: str) -> _DatasetEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise UnknownDatasetError(name, self.datasets()) from None

    @contextmanager
    def _locked_entry(self, name: str):
        """The dataset's entry, locked.

        Between fetching an entry and locking it, a registration whose
        first generation failed can unpublish the entry it created —
        the only way an entry ever leaves the registry, since every later
        generation reuses the object.  So one identity re-check under the
        lock suffices; a caller whose entry is gone retries on the name.
        """
        while True:
            entry = self._entry(name)
            with entry.lock:
                if self._entries.get(name) is entry:
                    yield entry
                    return

    @contextmanager
    def _claimed_entry(self, name: str):
        """``(entry, created)``: the name's entry, locked — created and
        published if the name is free.

        A new entry is published with its lock already held, taken
        before the registry lock (the declared order), so racing callers
        wait on it until its first generation is durable.  It starts out
        holding, as ``pending``, any journalled state a restart stashed
        for the name.  If the block raises, a created entry is
        unpublished — its stash put back — before its lock is released.
        The publish re-checks ``_closed`` under the lock close() sets it
        under, so nothing publishes after the shutdown flush.
        """
        while True:
            entry = _DatasetEntry(name=name)
            with entry.lock:
                with self._lock:
                    self._check_open()
                    existing = self._entries.setdefault(name, entry)
                    if existing is entry:
                        entry.pending = self._pending_recovery.pop(name, None)
                if existing is entry:
                    try:
                        yield entry, True
                    except BaseException:
                        with self._lock:
                            del self._entries[name]
                            if entry.pending is not None:
                                self._pending_recovery[name] = entry.pending
                        raise
                    return
            with existing.lock:
                if self._entries.get(name) is existing:
                    yield existing, False
                    return

    def _engine_snapshot(self, name: str) -> tuple[Foresight, int, int]:
        """The dataset's engine, version and seq, consistent under concurrency.

        Runs the single-flight build when the engine is cold: the first
        caller holds the entry lock through load + preprocess while
        racing threads block on it, then everyone reads the same built
        engine.  Taking engine, version and ingest seq under one lock
        hold keeps a response's provenance consistent even when reloads
        or appends race — the triple names exactly the snapshot the
        response is computed from.

        Tracing: the warm path (engine built, no deferred replay) is the
        cached hot path's inner loop, so it pays for no span up front — a
        synthesized ``engine.snapshot`` is recorded only when the caller
        waited ≥ ``_SNAPSHOT_SPAN_FLOOR`` on the entry lock (or a race
        built after all).  The cold path opens a real span so the
        ``engine.build`` / ``journal.append`` children nest under it.
        """
        # Lock-free peek: reading two attributes off the current entry
        # is GIL-atomic; a stale read only mis-picks the span shape,
        # never the result (the locked body below is shape-independent).
        entry = self._entries.get(name)
        if entry is not None and entry.engine is not None and entry.pending is None:
            tracer = self._tracer
            started = tracer.clock()
            result, built = self._snapshot_locked(name)
            if built or tracer.clock() - started >= _SNAPSHOT_SPAN_FLOOR:
                tracer.record_span("engine.snapshot", current_span(),
                                   started, dataset=name, built=built)
            return result
        # The span covers the single-flight wait: a thread blocked on a
        # builder's lock hold shows the wait as this span's duration with
        # built=False.
        with obs_span("engine.snapshot", dataset=name) as snapshot_span:
            result, built = self._snapshot_locked(name)
            snapshot_span.set_attribute("built", built)
        return result

    def _snapshot_locked(self, name: str):
        """The locked body of :meth:`_engine_snapshot`.

        Returns ``(result, built)`` — the engine/version/seq triple and
        whether this call paid the cold build.
        """
        with _journal_failure_reported, self._locked_entry(name) as entry:
            table = self._table_locked(entry)
            built = entry.engine is None
            if built:
                # The cold build is a ``build`` record through the
                # dataset transition: it sketches the full current table
                # (any deferred appends included) and the accuracy
                # budget counts from that freshly sketched base.
                record = {
                    "type": RECORD_BUILD,
                    "seq": entry.ingest.seq,
                    "total_rows": table.n_rows,
                    "ts": time.time(),
                }
                with obs_span("engine.build") as build_span:
                    build_span.set_attribute("rows", table.n_rows)
                    fresh = self._make_engine(entry)(table)
                # The marker says where the build froze the deferred
                # appends, so replay builds at the same point in the row
                # stream — at seq 0 too, where it is what tells a restart
                # and a replica the budget's ``base_rows``.
                self._transition_locked(entry, record, fresh=fresh)
                self._account_entry(entry)
            result = entry.engine, entry.version, entry.ingest.seq
        return result, built

    @staticmethod
    def _coerce_request(
        request: InsightRequest | Mapping[str, Any] | str
    ) -> InsightRequest:
        if isinstance(request, InsightRequest):
            return request
        if isinstance(request, str):
            return InsightRequest.from_json(request)
        if isinstance(request, Mapping):
            return InsightRequest.from_dict(request)
        raise ServiceError(
            "request must be an InsightRequest, a mapping or JSON text, "
            f"got {type(request).__name__}"
        )


@dataclass(frozen=True)
class AppendResult:
    """What one accepted append did, with its exact ingestion identity.

    ``(version, seq)`` is the dataset identity *after* the append —
    the pair every response computed from the new snapshot will carry.
    ``applied`` records how the rows were absorbed: ``"delta_merge"``
    (sketch partials merged into the live store — an exhausted accuracy
    budget additionally schedules a background rebuild) or
    ``"deferred"`` (no approximate engine built yet, or an exact-mode
    one: the rows extend the table only).
    """

    dataset: str
    version: int
    seq: int
    rows_appended: int
    total_rows: int
    applied: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset,
            "version": self.version,
            "seq": self.seq,
            "rows_appended": self.rows_appended,
            "total_rows": self.total_rows,
            "applied": self.applied,
        }
