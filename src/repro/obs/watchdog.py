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
    A listener on the shared lock hook (:mod:`repro.obs.lockhook`, which
    the runtime lock-order tracker listens on too).  A blocking
    acquisition that had to *wait* past the threshold is reported as a
    ``lock_wait`` event naming the role the lock was made with and the
    ``path:line`` that took it.  Uncontended acquisitions pay one
    try-acquire and no clock read.  Only locks made after installation
    are hooked — install it before building the state you want watched.
    A workspace whose ``ObsConfig.lock_wait_ms`` is positive installs
    its own watchdog first thing and uninstalls it on ``close()``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from typing import Any

from repro.obs import lockhook
from repro.obs.events import emit

__all__ = [
    "LoopLagMonitor",
    "StallDetector",
    "LockWaitWatchdog",
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
        self._lock = lockhook.lock("obs.stall")
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


class LockWaitWatchdog:
    """Lock-hook listener reporting acquisitions that waited too long."""

    def __init__(self, threshold_ms: float = 50.0):
        if threshold_ms <= 0:
            raise ValueError(f"threshold_ms must be > 0, got {threshold_ms}")
        self.threshold_ms = float(threshold_ms)
        self._lock = lockhook.own_lock()
        self._trips = 0
        self._recent: deque[dict[str, Any]] = deque(maxlen=8)

    def install(self) -> "LockWaitWatchdog":
        lockhook.add_listener(self)
        return self

    def uninstall(self) -> None:
        lockhook.remove_listener(self)

    # ------------------------------------------------------------------
    # Lock-hook callbacks
    # ------------------------------------------------------------------
    def on_acquire(self, lock, frame, blocking: bool, waited: float) -> None:
        if waited * 1000.0 < self.threshold_ms:
            return
        trip = {
            "lock": lock.role,
            "site": f"{frame.f_code.co_filename}:{frame.f_lineno}",
            "wait_ms": round(waited * 1000.0, 3),
        }
        with self._lock:
            self._trips += 1
            self._recent.append(trip)
        emit("lock_wait", threshold_ms=self.threshold_ms, **trip)

    def on_release(self, lock) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "threshold_ms": self.threshold_ms,
                "installed": self in lockhook.listeners(),
                "trips": self._trips,
                "recent": list(self._recent),
            }
