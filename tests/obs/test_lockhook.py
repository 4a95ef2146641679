"""The shared lock hook and its two listeners, installed together.

Every lock is made by :mod:`repro.obs.lockhook` with its role.  With no
listener the factories hand out real locks; with one, hooked locks that
carry the role.  The lock-order tracker and the lock-wait watchdog
listen on the one hook: each must see the same acquisition and the same
role, whichever was installed first, and ``threading``'s own factories
are never touched.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.runtime import LockTracker
from repro.data.datasets import make_mixed_table
from repro.obs import lockhook
from repro.obs.lockhook import HookedLock
from repro.obs.watchdog import LockWaitWatchdog
from repro.service import Workspace


class Recorder:
    """A listener that keeps every callback it gets."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_acquire(self, lock, frame, blocking, waited):
        self.events.append(("acquire", lock, frame.f_code.co_name,
                            frame.f_lineno, blocking, waited))

    def on_release(self, lock):
        locked = getattr(lock._inner, "locked", None)  # an RLock has none
        self.events.append(("release", lock, locked() if locked else None))


@pytest.fixture()
def recorder():
    listener = Recorder()
    lockhook.add_listener(listener)
    try:
        yield listener
    finally:
        lockhook.remove_listener(listener)


def _line_of(marker: str) -> int:
    import inspect

    source, start = inspect.getsourcelines(TestHookedLock)
    return start + next(i for i, line in enumerate(source) if marker in line)


class TestFactories:
    def test_no_listener_no_proxy(self, no_lock_listeners):
        lock, rlock = lockhook.lock("metrics.lock"), lockhook.rlock("cache.lock")
        assert not isinstance(lock, HookedLock)
        assert not isinstance(rlock, HookedLock)
        with rlock:
            with rlock:  # a real RLock
                assert rlock._is_owned()

    def test_a_listener_gets_proxies_carrying_role_and_reentrancy(self, recorder):
        lock, rlock = lockhook.lock("metrics.lock"), lockhook.rlock("cache.lock")
        assert (lock.role, lock.reentrant) == ("metrics.lock", False)
        assert (rlock.role, rlock.reentrant) == ("cache.lock", True)
        with rlock:
            with rlock:
                assert rlock._is_owned()
        assert "metrics.lock" in repr(lock)

    def test_an_unknown_role_is_refused(self, recorder):
        with pytest.raises(ValueError, match="unknown lock role"):
            lockhook.lock("no.such.role")
        with pytest.raises(ValueError, match="unknown lock role"):
            lockhook.rlock("no.such.role")

    def test_threading_factories_are_never_patched(self, recorder):
        assert threading.Lock.__module__ == threading.RLock().__module__ == "_thread"
        assert not isinstance(threading.Lock(), HookedLock)
        assert not isinstance(threading.RLock(), HookedLock)


class TestHookedLock:
    def test_listeners_get_the_callers_frame_once_per_acquisition(self, recorder):
        lock = lockhook.lock("metrics.lock")
        assert isinstance(lock, HookedLock)
        with lock:  # marker: with-site
            pass
        lock.acquire()  # marker: acquire-site
        lock.release()
        acquires = [e for e in recorder.events if e[0] == "acquire"]
        assert [(e[2], e[3]) for e in acquires] == [
            ("test_listeners_get_the_callers_frame_once_per_acquisition",
             _line_of("marker: with-site")),
            ("test_listeners_get_the_callers_frame_once_per_acquisition",
             _line_of("marker: acquire-site")),
        ]
        assert all(e[4] is True and e[5] == 0.0 for e in acquires)
        # A release is reported while the real lock is still held.
        releases = [e for e in recorder.events if e[0] == "release"]
        assert [e[2] for e in releases] == [True, True]

    def test_a_contended_acquisition_reports_its_wait(self, recorder):
        lock = lockhook.lock("metrics.lock")
        lock.acquire()
        threading.Timer(0.05, lock.release).start()
        with lock:
            pass
        waited = [e[5] for e in recorder.events
                  if e[0] == "acquire" and e[1] is lock]
        assert len(waited) == 2 and waited[0] == 0.0
        assert waited[1] >= 0.04

    def test_failed_acquisitions_report_nothing(self, recorder):
        lock = lockhook.lock("metrics.lock")
        lock.acquire()
        assert lock.acquire(blocking=False) is False
        assert lock.acquire(timeout=0.01) is False
        assert [e[0] for e in recorder.events] == ["acquire"]
        assert recorder.events[0][4] is True
        with pytest.raises(ValueError):
            lock.acquire(False, 1.0)  # the real lock's own argument check
        lock.release()

    def test_non_blocking_acquisitions_are_reported_as_such(self, recorder):
        lock = lockhook.rlock("cache.lock")
        assert lock.acquire(blocking=False)
        lock.release()
        assert recorder.events[0][4] is False

    def test_own_locks_are_never_reported(self, recorder):
        lock = lockhook.own_lock()
        assert not isinstance(lock, HookedLock)
        with lock:
            pass
        assert recorder.events == []

    def test_condition_bookkeeping_is_not_reported(self, recorder):
        condition = threading.Condition(lockhook.rlock("cache.lock"))
        done = threading.Event()

        def waiter():
            with condition:
                condition.wait(timeout=5)
            done.set()

        def kinds():
            return [e[0] for e in recorder.events if e[1] is condition._lock]

        worker = threading.Thread(target=waiter)
        worker.start()
        while not kinds():
            time.sleep(0.001)
        time.sleep(0.02)
        with condition:
            condition.notify()
        worker.join(timeout=5)
        assert done.is_set()
        # Two ``with`` entries and two exits; wait()'s release/re-take
        # goes through _release_save / _acquire_restore unreported.
        kinds = kinds()
        assert kinds.count("acquire") == 2
        assert kinds.count("release") == 2


class TestStackedListeners:
    @pytest.mark.parametrize("tracker_first", [True, False])
    def test_both_listeners_name_a_waiting_entry_lock(self, tracker_first):
        tracker = LockTracker()
        watchdog = LockWaitWatchdog(threshold_ms=20.0)
        order = (tracker, watchdog) if tracker_first else (watchdog, tracker)
        for listener in order:
            listener.install()
        try:
            workspace = Workspace()
            workspace.register("demo", make_mixed_table(
                n_rows=60, n_numeric=2, n_categorical=1, seed=5))
            held, release = threading.Event(), threading.Event()

            def holder():
                with workspace._locked_entry("demo"):
                    held.set()
                    release.wait()

            thread = threading.Thread(target=holder)
            thread.start()
            held.wait()
            threading.Timer(0.06, release.set).start()
            with workspace._locked_entry("demo"):
                roles = [role for _id, role, _level, _site in tracker._stack()]
            thread.join()
            workspace.close()
        finally:
            for listener in order:
                listener.uninstall()
        assert "workspace.entry" in roles
        trips = watchdog.snapshot()["recent"]
        assert [trip["lock"] for trip in trips] == ["workspace.entry"]
        assert "service/workspace.py:" in trips[0]["site"]
        tracker.assert_clean()

    @pytest.mark.parametrize("tracker_out_first", [True, False])
    def test_any_removal_order_restores_the_factories(self, tracker_out_first):
        # Under REPRO_DEBUG_LOCKS=1 the session tracker is already a
        # listener; the listeners to come back to are the ones found here.
        before = lockhook.listeners()
        tracker = LockTracker().install()
        watchdog = LockWaitWatchdog(threshold_ms=50.0).install()
        assert isinstance(lockhook.lock("metrics.lock"), HookedLock)
        assert watchdog.snapshot()["installed"]
        first, second = ((tracker, watchdog) if tracker_out_first
                         else (watchdog, tracker))
        first.uninstall()
        assert isinstance(lockhook.rlock("cache.lock"), HookedLock)
        second.uninstall()
        assert lockhook.listeners() == before
        assert isinstance(lockhook.lock("metrics.lock"), HookedLock) == bool(before)
        assert not watchdog.snapshot()["installed"]
        assert tracker not in lockhook.listeners()


def test_listeners_come_and_go_under_contention():
    """Workers hammer hooked locks while a second listener is added and
    removed over and over: the steady listener sees every acquisition
    and release, and the listeners found at the start are the ones left."""
    import sys

    before = lockhook.listeners()
    steady = Recorder()
    lockhook.add_listener(steady)
    locks = [lockhook.lock("metrics.lock"), lockhook.rlock("cache.lock")]
    n_workers, rounds = 8, 2000
    stop = threading.Event()
    errors: list[BaseException] = []

    def work():
        try:
            for index in range(rounds):
                with locks[index % 2]:
                    pass
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def churn():
        while not stop.is_set():
            visitor = Recorder()
            lockhook.add_listener(visitor)
            lockhook.remove_listener(visitor)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        churner = threading.Thread(target=churn)
        workers = [threading.Thread(target=work) for _ in range(n_workers)]
        churner.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        stop.set()
        churner.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        lockhook.remove_listener(steady)
    assert not errors
    assert not churner.is_alive()
    assert not any(worker.is_alive() for worker in workers)
    mine = [event[0] for event in steady.events if event[1] in locks]
    assert mine.count("acquire") == n_workers * rounds
    assert mine.count("release") == n_workers * rounds
    assert lockhook.listeners() == before
