"""Watchdogs: detect quiet degradation and say so on the event log.

Three independent detectors, each emitting structured events through
:mod:`repro.obs.events` when a threshold trips and exposing a
``snapshot()`` for ``/v1/debug`` and ``/metrics``:

``LoopLagMonitor``
    An asyncio task that sleeps a fixed interval and measures how late
    the loop woke it — the canonical event-loop responsiveness probe.
    Lag above the threshold emits an ``event_loop_lag`` event.  Owned
    and scheduled by the HTTP server; all state is written from the
    loop thread and read lock-free (GIL-atomic attribute reads).

``StallDetector``
    Deadline tracking for background work (the workspace's maintenance
    rebuilds).  ``watch(...)`` arms a timer; completing the returned
    token before the deadline disarms it, otherwise a ``rebuild_stall``
    event fires.  One daemon :class:`threading.Timer` per watched job —
    rebuilds are rare, so the thread cost is noise.

``LockWaitWatchdog``
    Wraps ``threading.Lock`` / ``threading.RLock`` construction (the
    same factory-patch shape as :class:`repro.analysis.runtime.
    LockTracker`) so blocking acquisitions that had to *wait* past the
    threshold are resolved against the statically extracted site table
    (:func:`repro.analysis.locks.collect_lock_sites`) and reported as
    ``lock_wait`` events naming the declared lock role.  Uncontended
    acquisitions pay one try-acquire and no clock read.  Only locks
    created after installation are timed — install it before building
    the state you want watched (the workspace does this when its
    ``ObsConfig.lock_wait_ms`` is positive).
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from collections import deque
from typing import Any

from repro.obs.events import emit

__all__ = [
    "LoopLagMonitor",
    "StallDetector",
    "LockWaitWatchdog",
    "install_lock_wait",
    "uninstall_lock_wait",
]


class LoopLagMonitor:
    """Samples event-loop scheduling lag from inside the loop."""

    def __init__(self, threshold_ms: float = 100.0, interval: float = 0.25):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.threshold_ms = float(threshold_ms)
        self.interval = float(interval)
        self.samples = 0
        self.trips = 0
        self.last_lag_seconds = 0.0
        self.max_lag_seconds = 0.0

    async def run(self) -> None:
        """Sample until cancelled (the server owns the task lifecycle)."""
        while True:
            started = time.perf_counter()
            await asyncio.sleep(self.interval)
            lag = max(0.0, time.perf_counter() - started - self.interval)
            self.observe(lag)

    def observe(self, lag_seconds: float) -> None:
        """Record one lag sample (separated from ``run`` for tests)."""
        self.samples += 1
        self.last_lag_seconds = lag_seconds
        if lag_seconds > self.max_lag_seconds:
            self.max_lag_seconds = lag_seconds
        if self.threshold_ms > 0 and lag_seconds * 1000.0 >= self.threshold_ms:
            self.trips += 1
            emit(
                "event_loop_lag",
                lag_ms=round(lag_seconds * 1000.0, 3),
                threshold_ms=self.threshold_ms,
                interval_seconds=self.interval,
            )

    def snapshot(self) -> dict[str, Any]:
        return {
            "threshold_ms": self.threshold_ms,
            "interval_seconds": self.interval,
            "samples": self.samples,
            "trips": self.trips,
            "last_lag_seconds": self.last_lag_seconds,
            "max_lag_seconds": self.max_lag_seconds,
        }


class _StallToken:
    """Handle for one watched job; ``done()`` disarms the deadline."""

    __slots__ = ("_detector", "_timer", "_name", "_completed")

    def __init__(self, detector: "StallDetector | None", timer, name: str):
        self._detector = detector
        self._timer = timer
        self._name = name
        self._completed = False

    def done(self) -> None:
        if self._completed:
            return
        self._completed = True
        if self._timer is not None:
            self._timer.cancel()
        if self._detector is not None:
            self._detector._finish(self._name)


_NOOP_TOKEN = _StallToken(None, None, "")
_NOOP_TOKEN._completed = True


class StallDetector:
    """Deadline watchdog for background jobs (maintenance rebuilds)."""

    def __init__(self, deadline_seconds: float = 30.0, event: str = "rebuild_stall"):
        self.deadline_seconds = float(deadline_seconds)
        self.event = event
        self._lock = threading.Lock()
        self._active: dict[str, float] = {}
        self._stalled: dict[str, float] = {}
        self._trips = 0
        self._watched_total = 0

    def watch(self, name: str, **details: Any) -> _StallToken:
        """Arm the deadline for one job; complete the token to disarm."""
        if self.deadline_seconds <= 0:
            return _NOOP_TOKEN
        started = time.perf_counter()
        timer = threading.Timer(
            self.deadline_seconds, self._fire, args=(name, started, details)
        )
        timer.daemon = True
        with self._lock:
            self._watched_total += 1
            self._active[name] = started
        timer.start()
        return _StallToken(self, timer, name)

    def _fire(self, name: str, started: float, details: dict[str, Any]) -> None:
        elapsed = time.perf_counter() - started
        with self._lock:
            if name not in self._active:
                return
            self._trips += 1
            self._stalled[name] = elapsed
        emit(
            self.event,
            name=name,
            elapsed_seconds=round(elapsed, 3),
            deadline_seconds=self.deadline_seconds,
            **details,
        )

    def _finish(self, name: str) -> None:
        with self._lock:
            self._active.pop(name, None)
            self._stalled.pop(name, None)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "deadline_seconds": self.deadline_seconds,
                "active": len(self._active),
                "watched_total": self._watched_total,
                "trips": self._trips,
                "stalled": sorted(self._stalled),
            }


class _WaitTimedLock:
    """Proxy over a real lock that times *contended* blocking acquires."""

    __slots__ = ("_inner", "_watchdog")

    def __init__(self, inner, watchdog: "LockWaitWatchdog"):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_watchdog", watchdog)

    def acquire(self, blocking: bool = True, timeout: float = -1):
        if not blocking:
            return self._inner.acquire(blocking, timeout)
        # Uncontended fast path: no clock read at all.
        if self._inner.acquire(False):
            return True
        started = time.perf_counter()
        ok = self._inner.acquire(True, timeout)
        waited = time.perf_counter() - started
        if ok and waited * 1000.0 >= self._watchdog.threshold_ms:
            self._watchdog._on_wait(waited)
        return ok

    def release(self):
        self._inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def locked(self):
        return self._inner.locked()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self):
        return f"<wait-timed {self._inner!r}>"


class LockWaitWatchdog:
    """Reports lock acquisitions that waited past the threshold."""

    def __init__(self, threshold_ms: float = 50.0):
        if threshold_ms <= 0:
            raise ValueError(f"threshold_ms must be > 0, got {threshold_ms}")
        self.threshold_ms = float(threshold_ms)
        # Created before install() patches the factories, so the state
        # lock itself is never one of our timed proxies (no recursion).
        self._lock = threading.Lock()
        self._trips = 0
        self._unattributed = 0
        self._recent: deque[dict[str, Any]] = deque(maxlen=8)
        # Imported here, not at module top: the analyzer stays off the
        # serving import path unless a watchdog is wanted.
        from repro.analysis.locks import LockSiteResolver

        #: Names a waiting acquisition's declared lock role; empty (so
        #: nothing resolves) until install() loads the site table.
        self._resolver = LockSiteResolver({})
        self._installed = False
        self._orig_lock = None
        self._orig_rlock = None

    # ------------------------------------------------------------------
    # Installation (same factory-patch shape as analysis.runtime)
    # ------------------------------------------------------------------
    def install(self, roots=None) -> "LockWaitWatchdog":
        from pathlib import Path

        from repro.analysis.locks import LockSiteResolver, collect_lock_sites
        from repro.analysis.project import DEFAULT_CONFIG

        if roots is None:
            import repro

            roots = [Path(repro.__file__).resolve().parent]
        self._resolver = LockSiteResolver(
            collect_lock_sites(roots, DEFAULT_CONFIG))
        if self._installed:
            return self
        self._orig_lock = threading.Lock
        self._orig_rlock = threading.RLock
        watchdog = self

        def make_lock():
            return _WaitTimedLock(watchdog._orig_lock(), watchdog)

        def make_rlock():
            return _WaitTimedLock(watchdog._orig_rlock(), watchdog)

        threading.Lock = make_lock  # type: ignore[assignment]
        threading.RLock = make_rlock  # type: ignore[assignment]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._orig_lock  # type: ignore[assignment]
        threading.RLock = self._orig_rlock  # type: ignore[assignment]
        self._installed = False

    # ------------------------------------------------------------------
    # Wait reporting
    # ------------------------------------------------------------------
    def _on_wait(self, waited: float) -> None:
        # The walk starts at the proxy's caller — acquire's, or __enter__'s
        # for a ``with`` — because this file holds lock sites of its own:
        # a walk from the proxy would stop here and name nothing.
        frame = sys._getframe(2)
        if frame.f_code is _WaitTimedLock.__enter__.__code__:
            frame = frame.f_back
        role, site = self._resolver.resolve(frame)
        if role is None:
            # Only report locks the site table can name (third-party and
            # test-helper locks stay out, mirroring the runtime tracker).
            with self._lock:
                self._unattributed += 1
            return
        trip = {
            "lock": role,
            "site": site,
            "wait_ms": round(waited * 1000.0, 3),
        }
        with self._lock:
            self._trips += 1
            self._recent.append(trip)
        emit("lock_wait", threshold_ms=self.threshold_ms, **trip)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "threshold_ms": self.threshold_ms,
                "installed": self._installed,
                "trips": self._trips,
                "unattributed": self._unattributed,
                "recent": list(self._recent),
            }


_lock_wait_singleton: LockWaitWatchdog | None = None


def install_lock_wait(threshold_ms: float) -> LockWaitWatchdog | None:
    """Install (or reuse) the process-wide lock-wait watchdog.

    Returns ``None`` when ``threshold_ms`` is not positive — the
    watchdog is strictly opt-in; the default configuration never
    patches lock construction.
    """
    global _lock_wait_singleton
    if threshold_ms <= 0:
        return None
    if _lock_wait_singleton is None:
        _lock_wait_singleton = LockWaitWatchdog(threshold_ms=threshold_ms).install()
    else:
        _lock_wait_singleton.threshold_ms = float(threshold_ms)
    return _lock_wait_singleton


def uninstall_lock_wait() -> None:
    global _lock_wait_singleton
    if _lock_wait_singleton is not None:
        _lock_wait_singleton.uninstall()
        _lock_wait_singleton = None
