"""Tests for the runtime lock-order shim (``repro.analysis.runtime``).

The declare()-based tests install the tracker with an empty site table
and pin roles on the locks the hook builds; the install()-based tests
prove the end-to-end path: static site table from the installed
package, patched ``threading`` factories, and a real
:class:`~repro.service.workspace.Workspace` staying violation-free.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.project import DEFAULT_CONFIG
from repro.analysis.runtime import LockTracker
from repro.obs import lockhook
from repro.obs.lockhook import HookedLock


def traced(tracker: LockTracker, role: str, rlock: bool = False) -> HookedLock:
    lock = threading.RLock() if rlock else threading.Lock()
    tracker.declare(lock, role)
    return lock


@pytest.fixture()
def tracker():
    # No site table: only the roles the tests declare resolve.
    tracker = LockTracker(DEFAULT_CONFIG).install(roots=())
    try:
        yield tracker
    finally:
        tracker.uninstall()


class TestDeclaredLocks:
    def test_conformant_order_is_clean(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        registry = traced(tracker, "workspace.registry", rlock=True)
        with entry:
            with registry:
                pass
        tracker.assert_clean()

    def test_inversion_recorded_and_raises(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        registry = traced(tracker, "workspace.registry", rlock=True)
        with registry:
            with entry:
                pass
        assert len(tracker.violations) == 1
        violation = tracker.violations[0]
        assert violation.kind == "inversion"
        assert violation.held_role == "workspace.registry"
        assert violation.acquired_role == "workspace.entry"
        with pytest.raises(AssertionError, match="lock-order violation"):
            tracker.assert_clean()

    def test_reentrant_reentry_is_clean(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        with entry:
            with entry:
                pass
        tracker.assert_clean()

    def test_nonreentrant_reentry_recorded(self, tracker):
        # Driven on an RLock so the test does not deadlock; the *role*
        # (workspace.stats) is declared non-reentrant, which is what the
        # tracker checks.
        stats = traced(tracker, "workspace.stats", rlock=True)
        with stats:
            with stats:
                pass
        assert [v.kind for v in tracker.violations] == ["reacquire"]

    def test_release_clears_held_stack(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        registry = traced(tracker, "workspace.registry", rlock=True)
        with registry:
            pass
        with entry:  # registry no longer held: not an inversion
            pass
        tracker.assert_clean()

    def test_nonblocking_acquire_not_checked_but_held(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        registry = traced(tracker, "workspace.registry", rlock=True)
        with registry:
            assert entry.acquire(blocking=False)
            entry.release()
        tracker.assert_clean()

    def test_held_stacks_are_per_thread(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        registry = traced(tracker, "workspace.registry", rlock=True)
        with registry:
            worker = threading.Thread(target=lambda: entry.acquire() and entry.release())
            worker.start()
            worker.join()
        # The worker held nothing when it took the entry lock.
        tracker.assert_clean()

    def test_violations_from_worker_threads_are_recorded(self, tracker):
        entry = traced(tracker, "workspace.entry", rlock=True)
        registry = traced(tracker, "workspace.registry", rlock=True)

        def invert():
            with registry:
                with entry:
                    pass

        worker = threading.Thread(target=invert, name="inverter")
        worker.start()
        worker.join()
        assert len(tracker.violations) == 1
        assert tracker.violations[0].thread == "inverter"


class TestInstalledTracker:
    def test_site_table_resolves_from_installed_package(self):
        tracker = LockTracker(DEFAULT_CONFIG).install()
        try:
            roles = {site.lock_id for site in tracker._resolver.sites.values()}
            # Acquisition sites for the core roles must be present, or
            # runtime checking would silently check nothing.
            assert {"workspace.entry", "workspace.registry", "cache.lock"} <= roles
        finally:
            tracker.uninstall()

    def test_patched_factories_produce_traced_locks(self):
        # Compare against the factories in place *before* this install:
        # under REPRO_DEBUG_LOCKS=1 the session fixture has already
        # patched them, and uninstall() must restore exactly that state.
        before_lock, before_rlock = threading.Lock, threading.RLock
        tracker = LockTracker(DEFAULT_CONFIG).install()
        try:
            assert isinstance(threading.Lock(), HookedLock)
            assert isinstance(threading.RLock(), HookedLock)
            assert tracker in lockhook.listeners()
        finally:
            tracker.uninstall()
        assert threading.Lock is before_lock
        assert threading.RLock is before_rlock

    def test_real_workspace_traffic_is_violation_free(self, tmp_path):
        from repro.data.datasets import make_numeric_table
        from repro.service import InsightRequest
        from repro.service.workspace import Workspace

        tracker = LockTracker(DEFAULT_CONFIG).install()
        try:
            # Durable mode exercises the journal paths (register/replace/
            # reload all write under the entry lock) on traced locks.
            workspace = Workspace(data_dir=str(tmp_path / "data"))
            workspace.register(
                "demo", lambda: make_numeric_table(n_rows=200, n_columns=4, seed=1)
            )
            request = InsightRequest(
                dataset="demo", insight_classes=("skew",), top_k=2
            )
            workspace.handle(request)
            workspace.reload("demo")
            workspace.handle(request)
            workspace.describe()
            workspace.close()
        finally:
            tracker.uninstall()
        tracker.assert_clean()

    def test_condition_bookkeeping_survives_tracing(self):
        # threading.Condition wraps its lock's private bookkeeping; the
        # proxy must delegate it untouched or waiters corrupt the lock.
        tracker = LockTracker(DEFAULT_CONFIG).install()
        try:
            condition = threading.Condition()
            results: list[int] = []

            def consumer():
                with condition:
                    condition.wait(timeout=5)
                    results.append(1)

            worker = threading.Thread(target=consumer)
            worker.start()
            with condition:
                condition.notify()
            worker.join(timeout=5)
            assert results == [1]
        finally:
            tracker.uninstall()
        tracker.assert_clean()
