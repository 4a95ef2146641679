"""Benchmark-owned spans around the layers' public callables.

Nothing under ``src/`` is edited.  :func:`install` rebinds a timing
wrapper over each target — on the class for a method, and in *every*
loaded ``repro`` module that holds a reference for a function (so
``from x import f`` call sites are timed too) — and the returned handle
restores every binding on exit.  A span is ``(id, name, start, end,
parent id, thread id, value)`` — the spans of one op share their root —
and spans stay in memory, written out, if at all, when the benchmark
ends.

Guards, because a number that silently reads 0 is worse than no number:

* a target that no longer exists raises :class:`MissingTarget` at install
  time — a renamed function must fail loudly;
* :meth:`Tracing.check_coverage` raises :class:`CoverageError` when a
  span that a workload is supposed to exercise recorded no call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

ALL = ("explore_cold", "serve_cached", "ingest_live", "recover")
COLD_READS = ("explore_cold", "ingest_live", "recover")
WRITES = ("ingest_live", "recover")

#: The ``repro.stats`` modules reported by name: the ones sketch-mode
#: scoring runs on the row sample.  The rest of the package is traced too
#: and lands in ``stats.total_ms`` only (``stats.outliers`` among them:
#: in sketch mode the outlier class asks the store instead).
STATS_MODULES = ("normality", "correlation", "multimodality", "dependence",
                 "moments")


class MissingTarget(Exception):
    """A callable the benchmark wraps is gone (renamed, moved, removed)."""


class CoverageError(Exception):
    """A wrapped callable recorded no call on a workload that must reach it."""


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is ``"package.module"`` for a function or
    ``"package.module:Class"`` for a method; ``expect`` names the
    workloads on which the span must record at least one call.
    """

    span: str
    owner: str
    attr: str
    expect: tuple[str, ...] = ()
    value_of: Callable[[Any], float] | None = None


def _length(encoded: Any) -> float:
    return float(len(encoded))


#: The fixed targets; :func:`targets` adds the discovered groups.
_TARGETS = (
    # service
    Target("service.handle", "repro.service.workspace:Workspace", "handle", ALL),
    Target("service.handle", "repro.service.workspace:Workspace", "handle_json",
           ("explore_cold", "serve_cached", "ingest_live")),
    Target("service.cache", "repro.service.cache:ResultCache", "get", ALL),
    Target("service.cache", "repro.service.cache:ResultCache", "put", ALL),
    Target("service.dto.decode", "repro.service.dto:InsightResponse",
           "from_json", ("serve_cached",)),
    Target("service.dto.encode", "repro.service.dto:InsightResponse",
           "to_json", ALL),
    Target("service.append", "repro.service.workspace:Workspace", "append",
           ("ingest_live",)),
    Target("service.replica.sync", "repro.service.replica:ReplicaWorkspace",
           "sync", ("recover",)),
    # core
    Target("core.plan", "repro.core.pipeline:QueryPipeline", "plan", COLD_READS),
    Target("core.enumerate", "repro.core.pipeline:QueryPipeline", "enumerate",
           COLD_READS),
    Target("core.score", "repro.core.pipeline:QueryPipeline", "score",
           COLD_READS),
    Target("core.rank", "repro.core.pipeline:QueryPipeline", "rank", COLD_READS),
    # sketch
    Target("sketch.build", "repro.sketch.store:SketchStore", "__init__", ALL),
    Target("sketch.sample_table", "repro.sketch.store:SketchStore",
           "sample_table", ("explore_cold",)),
    # ingest
    Target("ingest.validate", "repro.ingest.delta:DeltaBatch", "from_records",
           WRITES),
    Target("ingest.delta_partials", "repro.ingest.maintenance",
           "build_delta_partials", WRITES),
    Target("ingest.merge_delta", "repro.ingest.maintenance", "merge_delta",
           WRITES),
    Target("ingest.journal.append", "repro.ingest.durable:DatasetJournal",
           "append", ("ingest_live",)),
    Target("ingest.journal.encode", "repro.ingest.durable", "encode_record",
           ("ingest_live",), _length),
    Target("ingest.journal.fsync", "os", "fsync", ("ingest_live",)),
    Target("ingest.journal.load", "repro.ingest.durable:DatasetJournal", "load",
           ("recover",)),
    Target("ingest.snapshot.encode", "repro.ingest.snapshot_codec",
           "encode_snapshot", ("ingest_live",), _length),
    Target("ingest.snapshot.decode", "repro.ingest.snapshot_codec",
           "decode_snapshot", ("recover",)),
    Target("ingest.replay", "repro.ingest.durable", "replay_state",
           ("recover",)),
    Target("ingest.replay.apply", "repro.ingest.durable:ReplayMachine", "apply",
           ("recover",)),
    Target("ingest.rebuild", "repro.service.workspace:Workspace", "rebuild",
           ("ingest_live",)),
    # data
    Target("data.concat", "repro.data.table:DataTable", "concat", WRITES),
    Target("data.take", "repro.data.table:DataTable", "take", ("explore_cold",)),
    # replication
    Target("replication.feed.poll", "repro.ingest.durable:JournalFeed", "poll",
           ("recover",)),
)

_MERGEABLE_SKETCHES = (
    ("repro.sketch.moments", "MomentSketch"),
    ("repro.sketch.quantile", "QuantileSketch"),
    ("repro.sketch.frequent", "MisraGriesSketch"),
    ("repro.sketch.entropy", "EntropySketch"),
    ("repro.sketch.countmin", "CountMinSketch"),
)


def _public_functions(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    return [
        name for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module_name
        and not name.startswith("_")
    ]


def targets() -> list[Target]:
    """Every callable the traced run wraps, groups expanded."""
    from repro import default_registry
    from repro.sketch.store import SketchStore
    import repro.stats

    found = list(_TARGETS)
    # Every approx_* query on the store is one sketch probe.
    found += [
        Target("sketch.probe", "repro.sketch.store:SketchStore", name, COLD_READS)
        for name in vars(SketchStore) if name.startswith("approx_")
    ]
    found += [
        Target("sketch.merge", f"{module}:{cls}", "merge", WRITES)
        for module, cls in _MERGEABLE_SKETCHES
    ]
    # One span name per insight class, on its own score_all.
    registry = default_registry()
    for name in registry.names():
        cls = type(registry.get(name))
        found.append(Target(f"core.score.by_class.{name}",
                            f"{cls.__module__}:{cls.__qualname__}", "score_all",
                            ("explore_cold",)))
    # One span name per stats module, over its public functions.
    for info in pkgutil.iter_modules(repro.stats.__path__):
        module = f"repro.stats.{info.name}"
        expect = ("explore_cold",) if info.name in STATS_MODULES else ()
        found += [Target(f"stats.{info.name}", module, name, expect)
                  for name in _public_functions(module)]
    return found


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------
class Recorder:
    """Collects spans from every thread; parents are per-thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, function: Callable,
             value_of: Callable[[Any], float] | None = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            value = None
            start = clock()
            end = None
            try:
                result = function(*args, **kwargs)
                end = clock()
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                if end is None:
                    end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              threading.get_ident(), value))

        return traced

    def window(self, start: float, end: float) -> list[tuple]:
        """Spans that started inside ``[start, end]``."""
        return [span for span in self.spans if start <= span[2] <= end]


# ---------------------------------------------------------------------------
# Installing and restoring
# ---------------------------------------------------------------------------
_ABSENT = object()


def _import_all_of_repro() -> None:
    """Load every ``repro`` module so no later import can capture a wrapper."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(target: Target) -> tuple[Any, Any]:
    """The object that owns the attribute, and the attribute's raw value."""
    module_name, _, class_name = target.owner.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        if class_name:
            for part in class_name.split("."):
                owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, target.attr)
    except (ImportError, AttributeError) as exc:
        raise MissingTarget(
            f"{target.span}: {target.owner}.{target.attr} no longer exists "
            f"({exc}); fix the target table rather than report 0 ms"
        ) from exc
    return owner, raw


class Tracing:
    """The installed wrappers; restores them on ``close`` / ``with`` exit."""

    def __init__(self, recorder: Recorder, found: list[Target],
                 undo: list[tuple[Any, str, Any]]):
        self.recorder = recorder
        self.targets = found
        self._undo = undo

    def close(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(namespace, attr)
            else:
                setattr(namespace, attr, original)

    def __enter__(self) -> "Tracing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def check_coverage(self, workload: str) -> None:
        """Every span expected on ``workload`` recorded at least one call."""
        called = {span[1] for span in self.recorder.spans}
        missing = sorted({
            target.span for target in self.targets
            if workload in target.expect and target.span not in called
        })
        if missing:
            raise CoverageError(
                f"{workload}: no call recorded for {', '.join(missing)}; the "
                "workload no longer reaches them or the wrapper is not on "
                "the path the program takes"
            )


def install(found: Iterable[Target] | None = None) -> Tracing:
    """Wrap every target; the caller must ``close`` the result."""
    _import_all_of_repro()
    found = targets() if found is None else list(found)
    recorder = Recorder()
    undo: list[tuple[Any, str, Any]] = []
    tracing = Tracing(recorder, found, undo)
    try:
        for target in found:
            owner, raw = _resolve(target)
            if inspect.isclass(owner):
                _wrap_method(recorder, undo, owner, target, raw)
            else:
                _wrap_function(recorder, undo, target, raw)
    except BaseException:
        tracing.close()
        raise
    return tracing


def _wrap_method(recorder: Recorder, undo: list, cls: type, target: Target,
                 raw: Any) -> None:
    own = vars(cls).get(target.attr, _ABSENT)
    if isinstance(raw, (classmethod, staticmethod)):
        rewrapped = type(raw)(
            recorder.wrap(target.span, raw.__func__, target.value_of))
    else:
        rewrapped = recorder.wrap(target.span, raw, target.value_of)
    undo.append((cls, target.attr, own))
    setattr(cls, target.attr, rewrapped)


def _wrap_function(recorder: Recorder, undo: list, target: Target,
                   function: Any) -> None:
    traced = recorder.wrap(target.span, function, target.value_of)
    home = sys.modules[target.owner]
    holders = [home] + [
        module for name, module in list(sys.modules.items())
        if module is not None and module is not home
        and (name == "repro" or name.startswith("repro."))
    ]
    for module in holders:
        for attr, value in list(vars(module).items()):
            if value is function:
                undo.append((module, attr, function))
                setattr(module, attr, traced)
