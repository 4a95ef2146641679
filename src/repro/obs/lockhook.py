"""Every lock the package makes, made with its role.

A lock is built by :func:`lock` or :func:`rlock` with the name of its
role in the lock hierarchy (``lockhook.rlock("workspace.entry")``);
:data:`ROLES` maps each role to its level, and a lock's reentrancy is
the factory it came from.  Levels increase in the order locks may nest:
holding a lock of level L, a thread may only take locks of a higher
level (or re-enter the reentrant lock it holds), and locks of equal
level must never nest both ways.

With no listener installed the factories return a real ``_thread``
lock, so the default serving path pays nothing.  While at least one
listener is installed they return a :class:`HookedLock`, which carries
``.role`` and ``.reentrant`` and reports to every listener: each
acquisition is measured once (an uncontended one pays one try-acquire
and no clock read) and handed over with its caller's frame.  The two
listeners are the runtime lock-order tracker
(:class:`repro.analysis.runtime.LockTracker`) and the lock-wait
watchdog (:class:`repro.obs.watchdog.LockWaitWatchdog`); both read the
role from the lock, so stacking them changes nothing either sees.  Only
locks made while a listener is installed are hooked.

A listener's own state lock comes from :func:`own_lock`, outside the
hierarchy: were it hooked, the watchdog could be told of a wait on its
own lock and take that lock again to record it, a self-deadlock.

A listener implements ``on_acquire(lock, frame, blocking, waited)``
(after every successful acquisition; ``waited`` is 0.0 unless a blocking
acquisition had to wait) and ``on_release(lock)`` (before the release).
``threading.Lock`` and ``threading.RLock`` are never patched.  Stdlib
only.
"""

from __future__ import annotations

import _thread
import sys
import time

__all__ = [
    "ROLES",
    "HookedLock",
    "add_listener",
    "listeners",
    "lock",
    "own_lock",
    "remove_listener",
    "rlock",
]

#: Every lock role and its level.  docs/ANALYSIS.md lists this table
#: row for row (``tests/service/test_docs_drift.py``).
ROLES: dict[str, int] = {
    # A replica's sync pass serialises whole apply passes and takes
    # entry and registry locks inside them, never the reverse.
    "replica.sync": 5,
    # Per-dataset single-flight lock (``_DatasetEntry.lock``).  Holders
    # call back into the registry, and a registration locks its new
    # entry before publishing it under the registry lock.
    "workspace.entry": 10,
    "workspace.registry": 20,
    # Leaves: counter and slot updates that call out to no other lock.
    "workspace.stats": 30,
    "cache.lock": 30,
    "metrics.lock": 30,
    "obs.trace": 30,
    "obs.cost": 30,
    "obs.cost_window": 30,
    "obs.ledger": 30,
    "obs.stall": 30,
    "core.index": 30,
}

_listeners: tuple = ()
_state_lock = _thread.allocate_lock()


class HookedLock:
    """Transparent proxy over a real lock, reporting to every listener."""

    __slots__ = ("_inner", "role", "reentrant")

    def __init__(self, inner, role: str, reentrant: bool):
        self._inner = inner
        self.role = role
        self.reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1):
        return self._take(sys._getframe(1), blocking, timeout)

    def __enter__(self):
        return self._take(sys._getframe(1), True, -1)

    def _take(self, frame, blocking: bool, timeout: float) -> bool:
        waited = 0.0
        if not blocking:
            if not self._inner.acquire(False, timeout):
                return False
        elif not self._inner.acquire(False):
            started = time.perf_counter()
            if not self._inner.acquire(True, timeout):
                return False
            waited = time.perf_counter() - started
        for listener in _listeners:
            listener.on_acquire(self, frame, blocking, waited)
        return True

    def release(self):
        for listener in _listeners:
            listener.on_release(self)
        self._inner.release()

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def __getattr__(self, name):
        # Everything else (``locked``, and Condition's _acquire_restore /
        # _release_save / _is_owned) goes straight to the real lock,
        # deliberately unreported.
        return getattr(self._inner, name)

    def __repr__(self):
        return f"<hooked {self.role} {self._inner!r}>"


def _made(role: str, inner, reentrant: bool):
    if role not in ROLES:
        raise ValueError(f"unknown lock role {role!r}; declare it in ROLES")
    return HookedLock(inner, role, reentrant) if _listeners else inner


def lock(role: str):
    """A non-reentrant lock playing ``role``."""
    return _made(role, _thread.allocate_lock(), False)


def rlock(role: str):
    """A reentrant lock playing ``role``."""
    return _made(role, _thread.RLock(), True)


def add_listener(listener) -> None:
    """Start reporting acquisitions to ``listener`` (idempotent)."""
    global _listeners
    with _state_lock:
        if listener not in _listeners:
            _listeners = (*_listeners, listener)


def remove_listener(listener) -> None:
    """Stop reporting to ``listener``."""
    global _listeners
    with _state_lock:
        _listeners = tuple(other for other in _listeners if other is not listener)


def listeners() -> tuple:
    """The installed listeners, in the order they were added."""
    return _listeners


def own_lock():
    """A real lock outside the hierarchy, for a listener's own state."""
    return _thread.allocate_lock()
