"""Declared project invariants consumed by the rule modules.

This file is the single place where the repository's purity and
durability contracts are written down as data.  The rules in the sibling
modules are generic AST machinery; everything repo-specific — which
modules may construct snapshot objects, where wall-clock reads are
banned, which module owns the data directory — lives here, so widening
a scope is a one-line config change reviewed alongside the code it
describes.

The lock hierarchy is not here: each lock is made with its role
(:func:`repro.obs.lockhook.lock`), and :data:`repro.obs.lockhook.ROLES`
holds the levels.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProjectConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class ProjectConfig:
    """Everything the rule families need to know about this repo."""

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
