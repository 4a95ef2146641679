"""Watchdog units: loop lag, rebuild stalls, lock waits.

Thresholds are driven directly (``observe``, short deadlines, manual
contention) rather than by provoking a genuinely degraded process, so
every trip asserted here is deterministic.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.obs import lockhook
from repro.obs.watchdog import (
    LockWaitWatchdog,
    LoopLagMonitor,
    StallDetector,
)


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _events(caplog) -> list[dict]:
    return [json.loads(record.message) for record in caplog.records]


def _line_of(marker: str) -> int:
    import inspect

    source, start = inspect.getsourcelines(TestLockWaitWatchdog)
    return start + next(i for i, line in enumerate(source) if marker in line)


class TestLoopLagMonitor:
    def test_below_threshold_samples_without_tripping(self, caplog):
        monitor = LoopLagMonitor(threshold_ms=100.0)
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            monitor.observe(0.010)
            monitor.observe(0.050)
        snap = monitor.snapshot()
        assert snap["samples"] == 2
        assert snap["trips"] == 0
        assert snap["last_lag_seconds"] == 0.050
        assert snap["max_lag_seconds"] == 0.050
        assert caplog.records == []

    def test_lag_past_threshold_trips_and_emits(self, caplog):
        monitor = LoopLagMonitor(threshold_ms=100.0)
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            monitor.observe(0.250)
        assert monitor.snapshot()["trips"] == 1
        [event] = _events(caplog)
        assert event["event"] == "event_loop_lag"
        assert event["lag_ms"] == 250.0
        assert event["threshold_ms"] == 100.0

    def test_zero_threshold_never_trips(self):
        monitor = LoopLagMonitor(threshold_ms=0.0)
        monitor.observe(10.0)
        snap = monitor.snapshot()
        assert snap["samples"] == 1
        assert snap["trips"] == 0

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            LoopLagMonitor(interval=0.0)


class TestStallDetector:
    def test_job_past_deadline_fires(self, caplog):
        detector = StallDetector(deadline_seconds=0.05)
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            token = detector.watch("demo", kind="background_rebuild")
            deadline = time.monotonic() + 5.0
            while (detector.snapshot()["trips"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        snap = detector.snapshot()
        assert snap["trips"] == 1
        assert snap["stalled"] == ["demo"]
        [event] = _events(caplog)
        assert event["event"] == "rebuild_stall"
        assert event["name"] == "demo"
        assert event["kind"] == "background_rebuild"
        assert event["elapsed_seconds"] >= 0.05
        # Late completion clears the stalled listing; the trip stays.
        token.done()
        snap = detector.snapshot()
        assert snap["active"] == 0
        assert snap["stalled"] == []
        assert snap["trips"] == 1

    def test_completion_before_deadline_disarms(self, caplog):
        detector = StallDetector(deadline_seconds=0.10)
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            token = detector.watch("quick")
            token.done()
            time.sleep(0.20)
        snap = detector.snapshot()
        assert snap["trips"] == 0
        assert snap["watched_total"] == 1
        assert caplog.records == []

    def test_zero_deadline_disables(self):
        detector = StallDetector(deadline_seconds=0.0)
        token = detector.watch("demo")
        token.done()  # the shared no-op token: nothing to cancel
        assert detector.snapshot()["watched_total"] == 0


class TestLockWaitWatchdog:
    def test_contended_wait_is_counted(self, caplog):
        watchdog = LockWaitWatchdog(threshold_ms=20.0).install()
        try:
            lock = lockhook.lock("metrics.lock")
            release = threading.Event()

            def holder():
                with lock:
                    release.wait()

            thread = threading.Thread(target=holder)
            thread.start()
            while not lock.locked():
                time.sleep(0.001)
            timer = threading.Timer(0.08, release.set)
            timer.start()
            with caplog.at_level(logging.INFO, logger="repro.obs.events"):
                with lock:  # marker: contended-site
                    pass
            thread.join()
        finally:
            watchdog.uninstall()
        snap = watchdog.snapshot()
        assert snap["trips"] == 1
        [trip] = snap["recent"]
        assert trip["lock"] == "metrics.lock"
        assert trip["site"].endswith(f"test_watchdog.py:{_line_of('marker: contended-site')}")
        assert trip["wait_ms"] >= 20.0
        [event] = _events(caplog)
        assert event["event"] == "lock_wait"
        assert (event["lock"], event["site"]) == (trip["lock"], trip["site"])

    def test_a_wait_on_a_held_entry_lock_names_its_role(self):
        from repro.data.datasets import make_mixed_table
        from repro.obs.config import ObsConfig
        from repro.service import Workspace

        workspace = Workspace(obs=ObsConfig(lock_wait_ms=20.0))
        try:
            workspace.register("demo", make_mixed_table(
                n_rows=100, n_numeric=2, n_categorical=1, seed=5))
            held, release = threading.Event(), threading.Event()

            def holder():
                with workspace._locked_entry("demo"):
                    held.set()
                    release.wait()

            thread = threading.Thread(target=holder)
            thread.start()
            held.wait()
            timer = threading.Timer(0.08, release.set)
            timer.start()
            with workspace._locked_entry("demo"):
                pass
            thread.join()
            snap = workspace.debug_info()["watchdogs"]["lock_wait"]
        finally:
            workspace.close()
        entry_trips = [trip for trip in snap["recent"]
                       if trip["lock"] == "workspace.entry"]
        assert entry_trips, snap
        assert "service/workspace.py:" in entry_trips[0]["site"]
        assert entry_trips[0]["wait_ms"] >= 20.0

    def test_uncontended_acquire_records_nothing(self):
        watchdog = LockWaitWatchdog(threshold_ms=1.0).install()
        try:
            lock = lockhook.lock("metrics.lock")
            with lock:
                pass
        finally:
            watchdog.uninstall()
        snap = watchdog.snapshot()
        assert snap["trips"] == 0
        assert snap["recent"] == []

    def test_install_hooks_new_locks_and_uninstall_unhooks(self):
        before = lockhook.listeners()
        watchdog = LockWaitWatchdog(threshold_ms=50.0)
        try:
            watchdog.install()
            assert watchdog in lockhook.listeners()
            lock = lockhook.lock("metrics.lock")
            assert isinstance(lock, lockhook.HookedLock)
            with lock:  # the proxy still behaves like a lock
                assert lock.locked()
            assert not lock.locked()
        finally:
            watchdog.uninstall()
        assert lockhook.listeners() == before
        assert not isinstance(threading.Lock(), lockhook.HookedLock)

    def test_install_neither_imports_the_analyzer_nor_parses_source(self):
        # ``ast`` itself is always loaded (dataclasses imports inspect,
        # which imports ast), so the child refuses ast.parse and any
        # import of repro.analysis instead, then watches a real wait.
        script = textwrap.dedent("""
            import ast, sys, threading, time

            def refuse(*args, **kwargs):
                raise AssertionError("source parsed at install")

            class NoAnalyzer:
                def find_spec(self, name, path=None, target=None):
                    if name.startswith("repro.analysis"):
                        raise AssertionError("imported " + name)

            ast.parse = refuse
            sys.meta_path.insert(0, NoAnalyzer())
            from repro.data.datasets import make_mixed_table
            from repro.obs.config import ObsConfig
            from repro.service import Workspace

            workspace = Workspace(obs=ObsConfig(lock_wait_ms=20.0))
            workspace.register("demo", make_mixed_table(
                n_rows=60, n_numeric=2, n_categorical=1, seed=5))
            held = threading.Event()

            def holder():
                with workspace._locked_entry("demo"):
                    held.set()
                    time.sleep(0.08)

            thread = threading.Thread(target=holder)
            thread.start()
            held.wait()
            with workspace._locked_entry("demo"):
                pass
            thread.join()
            [trip] = workspace.debug_info()["watchdogs"]["lock_wait"]["recent"]
            assert trip["lock"] == "workspace.entry", trip
            assert not any(m.startswith("repro.analysis") for m in sys.modules)
            print("ok")
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_DEBUG_LOCKS", None)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            LockWaitWatchdog(threshold_ms=0.0)

    def test_workspace_lock_wait_zero_installs_nothing(self):
        from repro.service import Workspace

        before = lockhook.listeners()
        workspace = Workspace()
        try:
            assert lockhook.listeners() == before
            assert "lock_wait" not in workspace.debug_info()["watchdogs"]
        finally:
            workspace.close()

    def test_each_workspace_owns_its_watchdog(self):
        from repro.obs.config import ObsConfig
        from repro.service import Workspace

        before = lockhook.listeners()
        first = Workspace(obs=ObsConfig(lock_wait_ms=20.0))
        second = Workspace(obs=ObsConfig(lock_wait_ms=80.0))
        try:
            first_dog = first.debug_info()["watchdogs"]["lock_wait"]
            second_dog = second.debug_info()["watchdogs"]["lock_wait"]
            assert first_dog["threshold_ms"] == 20.0
            assert second_dog["threshold_ms"] == 80.0
            assert first_dog["installed"] and second_dog["installed"]
            first.close()
            assert first.debug_info()["watchdogs"]["lock_wait"] == {
                **first_dog, "installed": False}
            assert second.debug_info()["watchdogs"]["lock_wait"] == second_dog
            first.close()  # idempotent
        finally:
            first.close()
            second.close()
        assert lockhook.listeners() == before


class TestWorkspaceIntegration:
    def test_workspace_wires_configured_deadline(self):
        from repro.obs.config import ObsConfig
        from repro.service import Workspace

        workspace = Workspace(obs=ObsConfig(rebuild_deadline_s=7.5))
        try:
            watchdogs = workspace.debug_info()["watchdogs"]
            assert watchdogs["rebuild_stall"]["deadline_seconds"] == 7.5
            assert "lock_wait" not in watchdogs  # opt-in, default off
        finally:
            workspace.close()

    def test_background_rebuild_is_watched_and_completes(self):
        from repro.data.datasets import make_mixed_table
        from repro.ingest.maintenance import IngestConfig
        from repro.service import Workspace

        table = make_mixed_table(n_rows=300, n_numeric=2, n_categorical=1,
                                 seed=5)
        workspace = Workspace(ingest=IngestConfig(rebuild_fraction=0.01))
        try:
            workspace.register("demo", lambda: table)
            workspace.engine("demo")  # build: appends can delta-merge
            rows = make_mixed_table(n_rows=60, n_numeric=2, n_categorical=1,
                                    seed=6).to_records()
            workspace.append("demo", rows)
            assert workspace.wait_for_rebuilds(timeout=30.0)
            snap = workspace.debug_info()["watchdogs"]["rebuild_stall"]
            assert snap["watched_total"] >= 1
            assert snap["active"] == 0
            assert snap["trips"] == 0
        finally:
            workspace.close()
