"""Fixture corpus for the six ``repro.analysis`` checkers.

Every rule gets at least one seeded-bad snippet it must fire on and a
good twin it must stay quiet on, plus suppression honoring and the
unused-suppression error for the engine itself.
"""

from __future__ import annotations

import json
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    AsyncHygieneRule,
    DeterminismRule,
    DurabilityRule,
    ImmutabilityRule,
    LockOrderRule,
    ProjectConfig,
    TraceHygieneRule,
    build_analyzer,
)
from repro.analysis.__main__ import main as lint_main
from repro.analysis.runtime import LockTracker
from repro.obs import lockhook


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_rule(rule, paths) -> list:
    return Analyzer([rule]).run(paths).findings


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------
class LockedService:
    """The nestings the static rule once read from source, now taken for
    real under a :class:`LockTracker`: the rule above only makes sure
    every lock carries a role, and the tracker checks how they nest."""

    def __init__(self):
        self._entry_lock = lockhook.rlock("workspace.entry")
        self._registry_lock = lockhook.lock("workspace.registry")

    def reenter_ok(self):
        with self._entry_lock:
            with self._entry_lock:
                pass

    def reenter_bad(self, other: "LockedService"):
        # Two locks of one non-reentrant role on one thread: the same
        # code running with the services swapped deadlocks.
        with self._registry_lock:
            with other._registry_lock:
                pass

    def bad(self):
        with self._registry_lock:
            with self._entry_lock:
                pass

    def _take_entry(self):
        with self._entry_lock:
            return 1

    def bad_caller(self):
        with self._registry_lock:
            return self._take_entry()

    @contextmanager
    def _held_registry(self):
        with self._registry_lock:
            yield self

    def bad_body(self):
        with self._held_registry():
            with self._entry_lock:
                pass

    def manual_bad(self):
        self._registry_lock.acquire()
        try:
            with self._entry_lock:
                pass
        finally:
            self._registry_lock.release()

    def try_lock(self):
        with self._registry_lock:
            got = self._entry_lock.acquire(blocking=False)
            if got:
                self._entry_lock.release()
            return got


@pytest.fixture()
def lock_tracker(no_lock_listeners):
    tracker = LockTracker().install()
    try:
        yield tracker
    finally:
        tracker.uninstall()


def _inversions(tracker: LockTracker) -> list[tuple[str, str]]:
    assert all(v.kind == "inversion" for v in tracker.violations)
    return [(v.held_role, v.acquired_role) for v in tracker.violations]


class TestLockOrder:
    def test_conformant_nesting_is_quiet(self, tmp_path):
        path = write(
            tmp_path,
            "repro/service/locked.py",
            """
        import threading
        from dataclasses import dataclass, field

        from repro.obs import lockhook
        from repro.obs.lockhook import rlock

        @dataclass
        class Entry:
            lock: threading.RLock = field(
                default_factory=lambda: rlock("workspace.entry"))

        class Service:
            def __init__(self):
                self._lock = lockhook.rlock("workspace.registry")
                self._done = threading.Event()

            def ok(self, entry: Entry) -> threading.Lock:
                with entry.lock:
                    with self._lock:
                        return self._lock
    """,
        )
        assert run_rule(LockOrderRule(), [path]) == []

    def test_inversion_is_flagged(self, lock_tracker):
        LockedService().bad()
        assert _inversions(lock_tracker) == [("workspace.registry", "workspace.entry")]
        with pytest.raises(AssertionError, match="inversion"):
            lock_tracker.assert_clean()

    def test_reentrancy_honored(self, lock_tracker):
        service = LockedService()
        service.reenter_ok()
        lock_tracker.assert_clean()
        service.reenter_bad(LockedService())
        [violation] = lock_tracker.violations
        assert violation.kind == "reacquire"
        assert violation.acquired_role == "workspace.registry"
        assert "reacquire" in violation.render()

    def test_interprocedural_inversion_through_helper(self, lock_tracker):
        assert LockedService().bad_caller() == 1
        assert _inversions(lock_tracker) == [("workspace.registry", "workspace.entry")]

    def test_contextmanager_yield_held_propagates(self, lock_tracker):
        LockedService().bad_body()
        assert _inversions(lock_tracker) == [("workspace.registry", "workspace.entry")]

    def test_manual_acquire_holds_to_release(self, lock_tracker):
        service = LockedService()
        service.manual_bad()
        assert _inversions(lock_tracker) == [("workspace.registry", "workspace.entry")]
        # After release() the registry lock is no longer held.
        with service._entry_lock:
            pass
        assert len(lock_tracker.violations) == 1

    def test_nonblocking_acquire_not_flagged(self, lock_tracker):
        assert LockedService().try_lock()
        lock_tracker.assert_clean()

    def test_undeclared_lock_creation_and_acquisition(self, tmp_path):
        path = write(
            tmp_path,
            "repro/service/locked.py",
            """
        import threading
        import _thread
        from dataclasses import dataclass, field
        from threading import Lock, RLock as R

        from repro.obs import lockhook

        ROLE = "cache.lock"

        @dataclass
        class Entry:
            lock: object = field(default_factory=threading.RLock)

        class Service:
            def __init__(self):
                self._a = threading.Lock()
                self._b = Lock()
                self._c = R()
                self._d = _thread.allocate_lock()
                self._e = lockhook.lock(ROLE)
                self._f = lockhook.rlock("fixture.nowhere")
                self._g = threading.Condition()
                self._h = threading.Semaphore(2)
                self._i = threading.BoundedSemaphore()
                self._j = threading.Condition(lockhook.lock("cache.lock"))
                self._k = threading.Condition(lock=self._e)
    """,
        )
        findings = run_rule(LockOrderRule(), [path])
        built = [f.line for f in findings if "outside obs/lockhook.py" in f.message]
        assert built == [13, 17, 18, 19, 20, 23, 24, 25]
        messages = [f.message for f in findings if f.line in (21, 22)]
        assert messages == [
            "a lock's role must be a string literal",
            "lock role 'fixture.nowhere' is not in lockhook.ROLES",
        ]

    def test_the_hook_itself_builds_locks(self, tmp_path):
        path = write(
            tmp_path,
            "repro/obs/lockhook.py",
            """
        import _thread
        import threading

        def lock(role):
            return _thread.allocate_lock() if role else threading.Lock()
    """,
        )
        assert run_rule(LockOrderRule(), [path]) == []


# ---------------------------------------------------------------------------
# snapshot-immutability
# ---------------------------------------------------------------------------
IMMUTABLE_CONFIG = ProjectConfig(
    immutable_types=("DataTable",),
    builder_modules=("builder.py",),
    mutating_methods=("merge", "append", "update"),
    immutability_scopes=("",),
)

MUTATOR = """
    def tamper(table: DataTable, other: DataTable):
        table.version = 2
        table.columns["x"] = None
        table.merge(other)
"""

FRESH = """
    import copy

    def combine(table: DataTable, other: DataTable):
        fresh = copy.deepcopy(table)
        fresh.merge(other)
        return fresh
"""


class TestImmutability:
    def test_mutations_flagged_outside_builders(self, tmp_path):
        path = write(tmp_path, "consumer.py", MUTATOR)
        findings = run_rule(ImmutabilityRule(IMMUTABLE_CONFIG), [path])
        assert len(findings) == 3
        kinds = {f.message.split(" on ")[0] for f in findings}
        assert "attribute assignment" in kinds
        assert "item assignment" in kinds
        assert "mutating call .merge()" in kinds

    def test_builder_module_is_exempt(self, tmp_path):
        path = write(tmp_path, "builder.py", MUTATOR)
        assert run_rule(ImmutabilityRule(IMMUTABLE_CONFIG), [path]) == []

    @pytest.mark.parametrize(
        "source", [FRESH, FRESH.replace("copy.deepcopy(table)", "table.copy()")]
    )
    def test_fresh_copy_is_sanctioned(self, tmp_path, source):
        path = write(tmp_path, "consumer.py", source)
        assert run_rule(ImmutabilityRule(IMMUTABLE_CONFIG), [path]) == []

    def test_alias_stays_tracked(self, tmp_path):
        path = write(
            tmp_path,
            "consumer.py",
            """
        def alias(table: DataTable, other: DataTable):
            same = table
            same.merge(other)
    """,
        )
        findings = run_rule(ImmutabilityRule(IMMUTABLE_CONFIG), [path])
        assert len(findings) == 1

    def test_container_of_snapshots_is_not_tracked(self, tmp_path):
        path = write(
            tmp_path,
            "consumer.py",
            """
        def build(tables: list[DataTable]):
            out: list[DataTable] = []
            out.append(tables[0])
            return out
    """,
        )
        assert run_rule(ImmutabilityRule(IMMUTABLE_CONFIG), [path]) == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
DETERMINISM_CONFIG = ProjectConfig(determinism_scopes=("",))


class TestDeterminism:
    def test_bad_sources_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import random, time
        import numpy as np

        def bad():
            a = random.random()
            b = np.random.rand(3)
            c = np.random.default_rng()
            d = time.time()
            for item in set([3, 1, 2]):
                yield item
    """,
        )
        findings = run_rule(DeterminismRule(DETERMINISM_CONFIG), [path])
        assert len(findings) == 5
        text = " ".join(f.message for f in findings)
        assert "unseeded global state" in text
        assert "legacy numpy.random" in text
        assert "without a seed" in text
        assert "wall-clock" in text
        assert "hash order" in text

    def test_good_twin_is_quiet(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import numpy as np

        def good(seed: int, names: set[str]):
            rng = np.random.default_rng(seed)
            sample = rng.normal(size=4)
            ordered = [n for n in sorted(names)]
            if "x" in names:
                ordered.append("x")
            return sample, ordered, len(names)
    """,
        )
        assert run_rule(DeterminismRule(DETERMINISM_CONFIG), [path]) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        config = ProjectConfig(determinism_scopes=("core/",))
        path = write(
            tmp_path,
            "service.py",
            """
        import time

        def stamp():
            return time.time()
    """,
        )
        assert run_rule(DeterminismRule(config), [path]) == []


# ---------------------------------------------------------------------------
# durability-protocol
# ---------------------------------------------------------------------------
DURABILITY_CONFIG = ProjectConfig(
    durability_scopes=("",),
    durability_owner="durable.py",
)


class TestDurability:
    def test_foreign_write_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "other.py",
            """
        import os

        def leak(path):
            with open(path, "w") as fh:
                fh.write("x")
            os.replace(path, path + ".bak")
    """,
        )
        findings = run_rule(DurabilityRule(DURABILITY_CONFIG), [path])
        assert len(findings) == 2
        text = " ".join(f.message for f in findings)
        assert "opened for writing" in text
        assert "os.replace" in text

    def test_reads_and_str_replace_are_quiet(self, tmp_path):
        path = write(
            tmp_path,
            "other.py",
            """
        def fine(path, label):
            with open(path) as fh:
                data = fh.read()
            return data, label.replace("_", " ")
    """,
        )
        assert run_rule(DurabilityRule(DURABILITY_CONFIG), [path]) == []

    def test_owner_rename_requires_fsync(self, tmp_path):
        path = write(
            tmp_path,
            "durable.py",
            """
        import os

        def publish_unsafe(tmp, final):
            os.replace(tmp, final)

        def publish_safe(tmp, final):
            with open(tmp, "w") as fh:
                fh.write("data")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
    """,
        )
        findings = run_rule(DurabilityRule(DURABILITY_CONFIG), [path])
        assert len(findings) == 1
        assert findings[0].line < 8  # only the unsafe publish
        assert "fsync" in findings[0].message

    def test_journal_writes_only_from_locked_helpers(self, tmp_path):
        path = write(
            tmp_path,
            "workspace.py",
            """
        class Workspace:
            def _recover_persisted(self):
                for name in self._journal.dataset_names():
                    self._journal.load(name, repair=True)

            def _append_locked(self, entry, record):
                self._journal.append(entry.name, record)

            def peek(self, name):
                return self._journal.load(name), self._journal.load(name, repair=False)

            def flush(self, name):
                self._journal.sync(name)

            def reload(self, name, version):
                def restart():
                    self._journal.begin_generation(name, version)
                restart()
                return self._journal.load(name, True)
    """,
        )
        findings = run_rule(DurabilityRule(DURABILITY_CONFIG), [path])
        assert [(f.line, f.message.split("(")[0]) for f in findings] == [
            (14, "journal sync"),
            (18, "journal begin_generation"),
            (20, "journal load"),
        ]

    def test_journal_write_requires_entry_lock(self, tmp_path):
        # A runtime precondition, not a static rule: the journal-writing
        # ``*_locked`` helpers refuse to run without the entry lock.
        from repro.data.datasets import make_numeric_table
        from repro.service.workspace import Workspace

        workspace = Workspace(data_dir=str(tmp_path))
        try:
            workspace.register("demo", make_numeric_table(
                n_rows=50, n_columns=2, seed=1))
            entry = workspace._entry("demo")
            before = workspace.state("demo")
            record = {"type": "build", "seq": entry.ingest.seq + 1}
            with pytest.raises(RuntimeError, match="without its entry lock"):
                workspace._transition_locked(entry, record)
            with pytest.raises(RuntimeError, match="without its entry lock"):
                workspace._write_snapshot_locked(
                    entry, entry.version, entry, None)
            with pytest.raises(RuntimeError, match="without its entry lock"):
                workspace._begin_generation_locked(
                    entry, loader=None, table=entry.table, engine_config=None)
            with pytest.raises(RuntimeError, match="without its entry lock"):
                workspace._sync_locked(entry)
            assert workspace.state("demo") == before
        finally:
            workspace.close()


# ---------------------------------------------------------------------------
# async-hygiene
# ---------------------------------------------------------------------------
ASYNC_CONFIG = ProjectConfig(
    async_scopes=("",),
    async_blocking_calls=("time.sleep", "os.fsync"),
    workspace_receivers=("_workspace", "workspace"),
    workspace_loop_safe_methods=("peek_cached", "describe"),
)


class TestAsyncHygiene:
    def test_blocking_calls_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "server.py",
            """
        import time

        class Handler:
            async def slow(self, request):
                time.sleep(0.1)
                self._lock.acquire()
                return self._workspace.handle(request)
    """,
        )
        findings = run_rule(AsyncHygieneRule(ASYNC_CONFIG), [path])
        assert len(findings) == 3
        text = " ".join(f.message for f in findings)
        assert "time.sleep" in text
        assert "blocking lock acquire" in text
        assert "run_in_executor" in text

    def test_good_twin_is_quiet(self, tmp_path):
        path = write(
            tmp_path,
            "server.py",
            """
        import asyncio

        class Handler:
            async def fast(self, request):
                await asyncio.sleep(0.1)
                await self._controller.acquire(request)
                got = self._lock.acquire(blocking=False)
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._pool, self._workspace.handle, request
                )
    """,
        )
        assert run_rule(AsyncHygieneRule(ASYNC_CONFIG), [path]) == []

    def test_the_peek_is_the_one_serving_call_allowed_on_the_loop(
        self, tmp_path
    ):
        path = write(
            tmp_path,
            "server.py",
            """
        class Handler:
            async def post(self, request, root):
                workspace = self._select(request)
                cached = workspace.peek_cached(request, parent=root)
                if cached is not None:
                    return cached
                self._workspace.describe()
                workspace.state(request.dataset)
                return self._workspace.handle_json(request)
    """,
        )
        findings = run_rule(AsyncHygieneRule(ASYNC_CONFIG), [path])
        # Not a list of known offenders: anything unlisted is one.
        assert [f.line for f in findings] == [9, 10]
        assert ".state()" in findings[0].message
        assert ".handle_json()" in findings[1].message

    def test_nested_sync_def_excluded(self, tmp_path):
        path = write(
            tmp_path,
            "server.py",
            """
        import time

        class Handler:
            async def dispatch(self, request):
                def on_thread():
                    time.sleep(0.1)
                    return self._workspace.handle(request)
                return await self._loop.run_in_executor(None, on_thread)
    """,
        )
        assert run_rule(AsyncHygieneRule(ASYNC_CONFIG), [path]) == []

    def test_sync_function_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "server.py",
            """
        import time

        def run(workspace, request):
            time.sleep(0.01)
            return workspace.handle(request)
    """,
        )
        assert run_rule(AsyncHygieneRule(ASYNC_CONFIG), [path]) == []


# ---------------------------------------------------------------------------
# suppressions & the engine
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression_honored(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import time

        def stamp():
            return time.time()  # repro: allow(determinism) — service boundary
    """,
        )
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        assert report.ok
        assert len(report.suppressed) == 1

    def test_own_line_suppression_covers_next_statement(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import time

        def stamp():
            # repro: allow(determinism) — service boundary timestamping
            # spread over two comment lines before the statement.
            return time.time()
    """,
        )
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        assert report.ok
        assert len(report.suppressed) == 1

    def test_unused_suppression_is_a_finding(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        def clean():
            return 1  # repro: allow(determinism) — stale excuse
    """,
        )
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        assert not report.ok
        assert report.findings[0].rule == "unused-suppression"

    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import time

        def stamp():
            return time.time()  # repro: allow(determinism)
    """,
        )
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        assert not report.ok
        assert any("must carry a reason" in f.message for f in report.findings)

    def test_suppression_for_other_rule_does_not_mask(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import time

        def stamp():
            return time.time()  # repro: allow(lock-order) — wrong rule id
    """,
        )
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        rules = {f.rule for f in report.findings}
        assert rules == {"determinism", "unused-suppression"}


# ---------------------------------------------------------------------------
# trace-hygiene
# ---------------------------------------------------------------------------
TRACE_CONFIG = ProjectConfig(
    tracer_receivers=("tracer", "_tracer"),
    trace_span_functions=("obs_span",),
    trace_exempt_modules=("obs/tracer.py",),
)


class TestTraceHygiene:
    def test_with_statement_spans_are_quiet(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        from repro.obs.tracer import obs_span

        class Service:
            def handle(self, name):
                with self._tracer.span("service.handle", dataset=name) as span:
                    span.set_attribute("cache", "hit")
                    with obs_span("engine.snapshot"):
                        pass
    """,
        )
        assert run_rule(TraceHygieneRule(TRACE_CONFIG), [path]) == []

    def test_bare_span_call_is_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        class Service:
            def handle(self):
                span = self._tracer.span("service.handle")
                return span
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1
        assert "with-statement" in findings[0].message

    def test_bare_obs_span_call_is_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        from repro.obs.tracer import obs_span

        def work():
            obs_span("engine.build")
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1

    def test_start_span_with_try_finally_is_quiet(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        class Server:
            async def handle(self, request):
                root = self.tracer.start_span("request")
                try:
                    root.set_attribute("endpoint", "insights")
                finally:
                    root.end()
    """,
        )
        assert run_rule(TraceHygieneRule(TRACE_CONFIG), [path]) == []

    def test_unassigned_start_span_is_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        class Server:
            async def handle(self, request):
                self.tracer.start_span("request")
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1
        assert "assigned" in findings[0].message

    def test_start_span_without_finally_end_is_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        class Server:
            async def handle(self, request):
                root = self.tracer.start_span("request")
                root.end()
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1
        assert "finally" in findings[0].message

    def test_end_in_nested_function_does_not_count(self, tmp_path):
        # The finally must be in the SAME function: an end() inside a
        # nested callback may never run.
        path = write(
            tmp_path,
            "instrumented.py",
            """
        class Server:
            async def handle(self, request):
                root = self.tracer.start_span("request")

                def later():
                    try:
                        pass
                    finally:
                        root.end()
                return later
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1

    def test_computed_set_attribute_key_is_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        def annotate(span, stats):
            for key, value in stats.items():
                span.set_attribute(key, value)
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1
        assert "literal string" in findings[0].message

    def test_kwargs_splat_into_span_is_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        def work(tracer, attrs):
            with tracer.span("stage", **attrs):
                pass
    """,
        )
        findings = run_rule(TraceHygieneRule(TRACE_CONFIG), [path])
        assert len(findings) == 1
        assert "**kwargs" in findings[0].message

    def test_tracer_module_is_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "obs/tracer.py",
            """
        def obs_span(name):
            tracer = _ambient_tracer()
            span = tracer.start_span(name)
            return span
    """,
        )
        assert run_rule(TraceHygieneRule(TRACE_CONFIG), [path]) == []

    def test_suppression_is_honored(self, tmp_path):
        path = write(
            tmp_path,
            "instrumented.py",
            """
        def probe(tracer):
            span = tracer.span("probe")  # repro: allow(trace-hygiene) — test probe keeps the cm open across asserts
            return span
    """,
        )
        report = Analyzer([TraceHygieneRule(TRACE_CONFIG)]).run([path])
        assert report.ok
        assert len(report.suppressed) == 1


class TestEngineAndCli:
    def test_report_json_shape(self, tmp_path):
        path = write(
            tmp_path,
            "core.py",
            """
        import time

        def stamp():
            return time.time()
    """,
        )
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        payload = json.loads(report.to_json())
        assert payload["tool"] == "repro-lint"
        assert payload["ok"] is False
        assert payload["summary"] == {"determinism": 1}
        assert payload["findings"][0]["line"] == 5

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        path = write(tmp_path, "broken.py", "def nope(:\n")
        report = Analyzer([DeterminismRule(DETERMINISM_CONFIG)]).run([path])
        assert not report.ok
        assert report.findings[0].rule == "parse-error"

    def test_cli_exit_codes_and_report_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = write(
            tmp_path,
            "repro/core/bad.py",
            """
        import time

        def stamp():
            return time.time()
    """,
        )
        assert lint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        report_file = tmp_path / "LINT_report.json"
        assert report_file.exists()
        assert json.loads(report_file.read_text())["ok"] is False

        good = write(tmp_path, "repro/core/good.py", "VALUE = 1\n")
        assert lint_main([str(good), "--format", "text"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_missing_path_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path / "missing")]) == 2

    def test_build_analyzer_runs_all_rules(self, tmp_path):
        analyzer = build_analyzer()
        assert len(analyzer.rules) == 6
