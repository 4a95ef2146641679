"""``repro.obs`` — tracing, structured events, and resource accounting.

The observability substrate for the serving stack: a stdlib-only tracing
layer (:mod:`repro.obs.tracer`) whose spans thread through the HTTP
server, admission/coalescing, the workspace, the staged pipeline and the
durable WAL; a structured single-line-JSON event log
(:mod:`repro.obs.events`, logger name ``repro.obs.events``); per-request
cost attribution and rolling cost windows (:mod:`repro.obs.resources`);
the fixed-bucket duration histogram they and the server's metrics share
(:mod:`repro.obs.histogram`);
the incremental memory ledger (:mod:`repro.obs.ledger`); watchdogs for
quiet degradation (:mod:`repro.obs.watchdog`); the lock factories that
give every lock its role, and the hook the lock-wait watchdog and the
runtime lock-order tracker listen on (:mod:`repro.obs.lockhook`); and the
:class:`~repro.obs.config.ObsConfig` knobs (``REPRO_OBS_*`` env / CLI)
that switch it all on and off.

Design constraints, in order of importance:

* **Near-zero hot-path cost.**  Recording a finished span is one
  thread-local list append — no lock.  Cost attribution piggybacks on
  the same ambient channel: each ``record_*`` helper is one
  thread-local read plus a ``None`` check when no request is being
  accounted.
* **No dependencies on the layers it observes.**  ``repro.obs`` imports
  only the standard library (the ledger additionally numpy, the config
  the stdlib-only :mod:`repro.knobs`), so
  ``repro.core``, ``repro.ingest`` and ``repro.service`` can all import
  it without cycles.  Installing the lock-wait watchdog imports
  nothing more.
* **Determinism-safe.**  Spans are timed with ``perf_counter``; CPU is
  ``time.thread_time``; the wall clock appears only on root spans and
  is injectable.
"""

from repro.obs.config import ObsConfig
from repro.obs.ledger import MemoryLedger, deep_sizeof, table_bytes
from repro.obs.resources import (
    CostAggregator,
    CostRecorder,
    attach_recorder,
    current_recorder,
    record_cache_probe,
    record_candidates,
    record_journal_bytes,
    record_rows,
    record_sketch_probe,
)
from repro.obs.tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    bind,
    current_span,
    obs_span,
    trace_entry_bytes,
)
from repro.obs.watchdog import (
    LockWaitWatchdog,
    LoopLagMonitor,
    StallDetector,
)

__all__ = [
    "NOOP_SPAN",
    "CostAggregator",
    "CostRecorder",
    "LockWaitWatchdog",
    "LoopLagMonitor",
    "MemoryLedger",
    "ObsConfig",
    "Span",
    "StallDetector",
    "Tracer",
    "attach_recorder",
    "bind",
    "current_recorder",
    "current_span",
    "deep_sizeof",
    "obs_span",
    "record_cache_probe",
    "record_candidates",
    "record_journal_bytes",
    "record_rows",
    "record_sketch_probe",
    "table_bytes",
    "trace_entry_bytes",
]
