"""Tests for the runtime lock-order tracker (``repro.analysis.runtime``).

Every lock names its role where it is made, so the tracker reads the
role and its level from the lock.  The seeded-defect tests make locks
with real roles and nest them wrongly; each defect must be caught.  The
traffic tests drive a real durable workspace and a replica under a
tracker: the traffic stays violation-free, and every nesting the old
static lock graph covered is observed.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.runtime import LockTracker
from repro.data.datasets import make_numeric_table
from repro.obs import lockhook
from repro.obs.lockhook import HookedLock
from repro.service import InsightRequest
from repro.service.replica import LocalFeedSource, ReplicaWorkspace
from repro.service.workspace import Workspace


def _row(value: float) -> dict:
    return {f"attr_{index:03d}": value + index for index in range(4)}


@pytest.fixture()
def tracker(no_lock_listeners):
    tracker = LockTracker().install()
    try:
        yield tracker
    finally:
        tracker.uninstall()


class TestDeclaredLocks:
    def test_conformant_order_is_clean(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        registry = lockhook.rlock("workspace.registry")
        with entry:
            with registry:
                pass
        tracker.assert_clean()
        assert ("workspace.entry", "workspace.registry") in tracker.edges

    def test_inversion_recorded_and_raises(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        registry = lockhook.rlock("workspace.registry")
        with registry:
            with entry:
                pass
        [violation] = tracker.violations
        assert violation.kind == "inversion"
        assert violation.held_role == "workspace.registry"
        assert violation.acquired_role == "workspace.entry"
        assert "test_lock_runtime.py:" in violation.acquired_site
        with pytest.raises(AssertionError, match="lock-order violation"):
            tracker.assert_clean()

    def test_nonreentrant_reentry_recorded(self, tracker):
        # Two locks of one non-reentrant role nested on one thread: a
        # second thread nesting them the other way round deadlocks.
        first = lockhook.lock("workspace.stats")
        second = lockhook.lock("workspace.stats")
        with first:
            with second:
                pass
        assert [v.kind for v in tracker.violations] == ["reacquire"]
        with pytest.raises(AssertionError, match="reacquire"):
            tracker.assert_clean()

    def test_equal_level_cycle_is_caught(self, tracker):
        cache = lockhook.rlock("cache.lock")
        metrics = lockhook.lock("metrics.lock")
        with cache:
            with metrics:
                pass
        # One direction alone is an ordering, not a deadlock.
        tracker.assert_clean()

        def other_way():
            with metrics:
                with cache:
                    pass

        worker = threading.Thread(target=other_way, name="backwards")
        worker.start()
        worker.join()
        assert tracker.violations == []
        [cycle] = tracker.cycles()
        assert cycle.kind == "cycle"
        assert {cycle.held_role, cycle.acquired_role} == {"cache.lock",
                                                          "metrics.lock"}
        with pytest.raises(AssertionError, match=r"\[cycle\]"):
            tracker.assert_clean()

    def test_reentrant_reentry_is_clean(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        with entry:
            with entry:
                pass
        tracker.assert_clean()

    def test_release_clears_held_stack(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        registry = lockhook.rlock("workspace.registry")
        with registry:
            pass
        with entry:  # registry no longer held: not an inversion
            pass
        tracker.assert_clean()

    def test_lock_released_by_another_thread(self, tracker):
        registry = lockhook.lock("workspace.registry")
        entry = lockhook.rlock("workspace.entry")
        registry.acquire()
        worker = threading.Thread(target=registry.release)
        worker.start()
        worker.join()
        with entry:  # the hand-off freed registry from this thread's stack
            pass
        tracker.assert_clean()

    def test_released_locks_leave_no_holder(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        with entry:
            with entry:
                pass
            assert id(entry) in tracker._holders
        for _ in range(3):
            with lockhook.lock("obs.cost"):
                pass
        assert tracker._holders == {}

    def test_nonblocking_acquire_not_checked_but_held(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        registry = lockhook.rlock("workspace.registry")
        cache = lockhook.rlock("cache.lock")
        with registry:
            assert entry.acquire(blocking=False)
            with cache:
                pass
            entry.release()
        tracker.assert_clean()
        assert ("workspace.entry", "cache.lock") in tracker.edges
        assert ("workspace.registry", "workspace.entry") not in tracker.edges

    def test_held_stacks_are_per_thread(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        registry = lockhook.rlock("workspace.registry")
        with registry:
            worker = threading.Thread(target=lambda: entry.acquire() and entry.release())
            worker.start()
            worker.join()
        # The worker held nothing when it took the entry lock.
        tracker.assert_clean()

    def test_violations_from_worker_threads_are_recorded(self, tracker):
        entry = lockhook.rlock("workspace.entry")
        registry = lockhook.rlock("workspace.registry")

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
    def test_workspace_locks_carry_their_roles(self, tracker, tmp_path):
        workspace = Workspace(data_dir=str(tmp_path))
        workspace.register("demo", make_numeric_table(n_rows=50, n_columns=2, seed=1))
        roles = {
            workspace._entry("demo").lock.role,
            workspace._lock.role,
            workspace._stats_lock.role,
            workspace.cache._lock.role,
            workspace.ledger._lock.role,
            workspace.tracer._drain_lock.role,
        }
        workspace.close()
        assert roles == {"workspace.entry", "workspace.registry",
                         "workspace.stats", "cache.lock", "obs.ledger",
                         "obs.trace"}

    def test_real_workspace_traffic_is_violation_free(self, tracker, tmp_path):
        # Durable mode exercises the journal paths (register/reload write
        # under the entry lock) on traced locks.
        workspace = Workspace(data_dir=str(tmp_path / "data"))
        workspace.register(
            "demo", lambda: make_numeric_table(n_rows=200, n_columns=4, seed=1)
        )
        request = InsightRequest(dataset="demo", insight_classes=("skew",), top_k=2)
        workspace.handle(request)
        workspace.reload("demo")
        workspace.handle(request)
        workspace.describe()
        workspace.close()
        tracker.assert_clean()

    def test_durable_and_replica_traffic_takes_every_static_edge(
        self, tracker, tmp_path
    ):
        # The five nestings the static lock graph derived, plus the one
        # it missed (a sync pass takes entry locks): each must be
        # executed here, and in order.
        data_dir = str(tmp_path / "data")
        primary = Workspace(data_dir=data_dir)
        primary.register("demo", make_numeric_table(n_rows=200, n_columns=4, seed=1))
        request = InsightRequest(dataset="demo", insight_classes=("skew",), top_k=2)
        primary.handle(request)
        primary.append("demo", [_row(1.0)])
        primary.reload("demo")
        primary.handle(request)
        primary.flush_all()
        replica = ReplicaWorkspace(LocalFeedSource(data_dir))
        try:
            replica.sync()
            replica.handle(request)
            primary.append("demo", [_row(2.0)])
            primary.flush_all()
            replica.sync()
            assert replica.state("demo") == primary.state("demo")
        finally:
            replica.close()
            primary.close()
        tracker.assert_clean()
        assert {
            ("workspace.entry", "workspace.registry"),
            ("workspace.entry", "cache.lock"),
            ("workspace.entry", "obs.ledger"),
            ("replica.sync", "workspace.registry"),
            ("replica.sync", "cache.lock"),
            ("replica.sync", "workspace.entry"),
        } <= set(tracker.edges)

    def test_listener_factories_produce_traced_locks(self, tracker):
        hooked = lockhook.rlock("workspace.entry")
        tracker.uninstall()
        plain = lockhook.rlock("workspace.entry")
        assert isinstance(hooked, HookedLock)
        assert hooked.role == "workspace.entry" and hooked.reentrant
        assert not isinstance(plain, HookedLock)

    def test_condition_bookkeeping_survives_tracing(self, tracker):
        # threading.Condition wraps its lock's private bookkeeping; the
        # proxy must delegate it untouched or waiters corrupt the lock.
        condition = threading.Condition(lockhook.rlock("workspace.entry"))
        results: list[int] = []

        def consumer():
            with condition:
                condition.wait(timeout=5)
                results.append(1)

        worker = threading.Thread(target=consumer)
        worker.start()
        while not results and worker.is_alive():
            with condition:
                condition.notify()
            worker.join(timeout=0.01)
        worker.join(timeout=5)
        assert results == [1]
        tracker.assert_clean()
