"""Declared project invariants consumed by the rule modules.

This file is the single place where the repository's concurrency and
purity contracts are written down as data.  The rules in the sibling
modules are generic AST machinery; everything repo-specific — which
attributes are locks, what order they may nest in, which modules may
construct snapshot objects, where wall-clock reads are banned — lives
here, so adding a lock or widening a scope is a one-line config change
reviewed alongside the code it describes.

Lock hierarchy
--------------
Levels increase in the order locks may be *taken while already holding
another*; holding a lock of level L, you may only acquire locks of level
strictly greater than L (or re-enter the same reentrant lock):

====================  =====  ==========================================
role                  level  lock
====================  =====  ==========================================
``replica.sync``        5    ``ReplicaWorkspace._sync_lock`` sync pass
``workspace.entry``    10    per-dataset ``_DatasetEntry.lock`` (RLock)
``workspace.registry`` 20    ``Workspace._lock`` registry (RLock)
``workspace.stats``    30    ``Workspace._stats_lock`` counter leaf
``cache.lock``         30    ``ResultCache._lock`` leaf
``metrics.lock``       30    ``ServerMetrics._lock`` counter leaf
``obs.trace``          30    ``Tracer._drain_lock`` trace-ring leaf
``obs.cost``           30    ``CostRecorder._lock`` per-request leaf
``obs.cost_window``    30    ``CostAggregator._lock`` window leaf
``obs.ledger``         30    ``MemoryLedger._lock`` byte-counter leaf
``obs.stall``          30    ``StallDetector._lock`` watchdog leaf
``obs.lock_wait``      30    ``LockWaitWatchdog._lock`` watchdog leaf
``core.index``         30    ``InsightIndex._publish`` score-memo swap leaf
====================  =====  ==========================================

``replica.sync`` sits *below* the entry lock: a replica's sync pass
serialises whole apply passes and takes entry/registry locks inside
them, never the reverse.

``entry < registry`` matches every path: ``_locked_entry`` holders
call back into the registry (``_entry``, the version mint of
``_begin_generation_locked``) while the entry lock is held, and a registration takes its new entry's lock
*before* the registry lock it publishes the entry under
(``_claimed_entry``).  A name keeps one entry object for as long as it
is registered — a reload, a replace and a replica reset are all a new
generation on that object under its lock — so no path needs the
inverse nesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = ["LockSpec", "ProjectConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LockSpec:
    """One declared lock: where it lives and where it sits in the order."""

    lock_id: str
    level: int
    module: str  # path suffix, e.g. "service/workspace.py"
    cls: str | None  # owning class, None for module-level locks
    attr: str  # attribute name holding the lock object
    reentrant: bool = False


@dataclass(frozen=True)
class ProjectConfig:
    """Everything the six rule families need to know about this repo."""

    # ---- lock-order ------------------------------------------------------
    #: Modules whose lock usage is extracted and checked.
    lock_modules: tuple[str, ...] = ()
    locks: tuple[LockSpec, ...] = ()
    #: Calls on these ``self.<attr>`` receivers transitively acquire the
    #: mapped lock role (cross-module components used under locks).
    lock_taking_attrs: Mapping[str, str] = field(default_factory=dict)

    # ---- snapshot-immutability ------------------------------------------
    #: Published snapshot types that must never be mutated in place.
    immutable_types: tuple[str, ...] = ()
    #: Modules allowed to build/populate those types.
    builder_modules: tuple[str, ...] = ()
    #: Method names that mutate their receiver.
    mutating_methods: tuple[str, ...] = ()
    #: Modules the immutability rule scans (empty scope = everywhere).
    immutability_scopes: tuple[str, ...] = ("",)

    # ---- determinism -----------------------------------------------------
    determinism_scopes: tuple[str, ...] = ()

    # ---- durability-protocol --------------------------------------------
    durability_scopes: tuple[str, ...] = ()
    #: The only module allowed to touch files under data_dir.
    durability_owner: str = "ingest/durable.py"
    #: ``self.<attr>`` receivers that denote the journal component.
    journal_attrs: tuple[str, ...] = ("_journal",)
    #: Journal methods that write records/files.
    journal_write_methods: tuple[str, ...] = ()
    #: Lock roles that satisfy the "journal writes happen under the
    #: owning entry lock" requirement.
    journal_guard_locks: tuple[str, ...] = ()

    # ---- async-hygiene ---------------------------------------------------
    async_scopes: tuple[str, ...] = ()
    #: Fully dotted call names that block the event loop.
    async_blocking_calls: tuple[str, ...] = ()
    #: Receivers that denote a workspace, and the only methods a
    #: coroutine may call on one directly: every other call can wait on
    #: an entry lock or compute, and belongs behind ``run_in_executor``.
    workspace_receivers: tuple[str, ...] = ("_workspace", "workspace")
    workspace_loop_safe_methods: tuple[str, ...] = ()

    # ---- trace-hygiene ---------------------------------------------------
    #: Receivers whose ``.span()``/``.start_span()`` calls create spans.
    tracer_receivers: tuple[str, ...] = ("tracer", "_tracer")
    #: Bare helper functions that create context-managed spans.
    trace_span_functions: tuple[str, ...] = ("obs_span",)
    #: Modules exempt from the rule (the tracer's own internals).
    trace_exempt_modules: tuple[str, ...] = ("obs/tracer.py",)


DEFAULT_CONFIG = ProjectConfig(
    lock_modules=(
        "core/pipeline.py",
        "service/workspace.py",
        "service/replica.py",
        "service/cache.py",
        "server/metrics.py",
        "obs/tracer.py",
        "obs/resources.py",
        "obs/ledger.py",
        "obs/watchdog.py",
    ),
    locks=(
        LockSpec("workspace.entry", 10, "service/workspace.py", "_DatasetEntry", "lock", reentrant=True),
        LockSpec("workspace.registry", 20, "service/workspace.py", "Workspace", "_lock", reentrant=True),
        LockSpec("workspace.stats", 30, "service/workspace.py", "Workspace", "_stats_lock"),
        # The replica's sync serialiser wraps entry/registry work, so it
        # sits below them; the duplicate entry/registry specs teach the
        # checker that replica.py's ``self._lock`` / ``entry.lock`` uses
        # are the same inherited Workspace locks, not new ones.
        LockSpec("replica.sync", 5, "service/replica.py", "ReplicaWorkspace", "_sync_lock"),
        LockSpec("workspace.registry", 20, "service/replica.py", "ReplicaWorkspace", "_lock", reentrant=True),
        LockSpec("workspace.entry", 10, "service/replica.py", "_DatasetEntry", "lock", reentrant=True),
        LockSpec("cache.lock", 30, "service/cache.py", "ResultCache", "_lock", reentrant=True),
        LockSpec("metrics.lock", 30, "server/metrics.py", "ServerMetrics", "_lock"),
        # The tracer's drain lock: root-span completion takes it to
        # publish the trace's span bucket into the ring.  A leaf by
        # design — root spans only end after every workspace/journal
        # lock is released (child-span ends are lock-free appends).
        LockSpec("obs.trace", 30, "obs/tracer.py", "Tracer", "_drain_lock"),
        # Resource-accounting leaves: pure counter read/write under the
        # lock, no calls out — safe to take under any workspace lock.
        LockSpec("obs.cost", 30, "obs/resources.py", "CostRecorder", "_lock"),
        LockSpec("obs.cost_window", 30, "obs/resources.py", "CostAggregator", "_lock"),
        LockSpec("obs.ledger", 30, "obs/ledger.py", "MemoryLedger", "_lock"),
        LockSpec("obs.stall", 30, "obs/watchdog.py", "StallDetector", "_lock"),
        LockSpec("obs.lock_wait", 30, "obs/watchdog.py", "LockWaitWatchdog", "_lock"),
        # The insight index's publish: a merge of two score memos and one
        # slot assignment, no calls out.  Readers never take it.
        LockSpec("core.index", 30, "core/pipeline.py", "InsightIndex", "_publish"),
    ),
    # _tracer covers span creation AND root-span completion: ending a
    # root publishes its bucket under the obs.trace leaf lock, so a
    # tracer call under a level-30 lock would be an inversion.
    lock_taking_attrs={
        "_cache": "cache.lock",
        "_metrics": "metrics.lock",
        "_tracer": "obs.trace",
        "_ledger": "obs.ledger",
        "_costs": "obs.cost_window",
    },
    immutable_types=(
        "DataTable",
        "SketchStore",
        "Column",
        "NumericColumn",
        "CategoricalColumn",
        "BooleanColumn",
        "ColumnSketches",
    ),
    builder_modules=(
        "data/table.py",
        "data/column.py",
        "sketch/store.py",
    ),
    mutating_methods=(
        "merge",
        "update",
        "update_many",
        "update_counts",
        "add",
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "advance",
        "discard",
        "sort",
        "reverse",
    ),
    determinism_scopes=("repro/core/", "repro/stats/", "repro/sketch/"),
    durability_scopes=("repro/ingest/", "repro/service/", "repro/server/",
                       "repro/replication/"),
    durability_owner="ingest/durable.py",
    journal_attrs=("_journal",),
    journal_write_methods=(
        "append",
        "write_snapshot",
        "begin_generation",
        "sync",
        "load",  # only flagged when called with repair=True
        "remove",
    ),
    journal_guard_locks=("workspace.entry",),
    async_scopes=("repro/server/",),
    async_blocking_calls=(
        "time.sleep",
        "os.fsync",
        "os.replace",
        "os.rename",
    ),
    workspace_receivers=("_workspace", "workspace"),
    workspace_loop_safe_methods=(
        # The two serving calls of ``POST /v1/insights``: a try-lock and
        # a cache lookup, then a miss the snapshot read under that
        # try-lock answers from its insight index with compute
        # forbidden.  Both answer None rather than wait, enumerate or
        # score.
        "peek_cached",
        "answer_warm",
        # Counter snapshots behind /metrics, /healthz, /v1/debug and
        # /v1/datasets; ``describe`` try-locks and reports ``busy``.
        "datasets",
        "describe",
        "debug_info",
        "cache_info",
        "pipeline_stats",
        "ingest_stats",
    ),
)
