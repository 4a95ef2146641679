"""One patch point for lock construction, shared by every lock listener.

While at least one listener is installed, ``threading.Lock`` and
``threading.RLock`` build :class:`HookedLock` proxies over real locks.
The proxy measures each acquisition once — uncontended acquisitions pay
one try-acquire and no clock read — takes its caller's frame once, and
hands both to every listener.  The two listeners are the runtime
lock-order tracker (:class:`repro.analysis.runtime.LockTracker`) and the
lock-wait watchdog (:class:`repro.obs.watchdog.LockWaitWatchdog`); each
names the lock from that frame through the shared site table, so
stacking them changes nothing either sees.

The first listener added patches the factories; removing the last one
puts back the factories the first one found, whatever order the
listeners left in.  Only locks created while a listener is installed
are proxies.  A listener's own state lock comes from :func:`own_lock`:
were it a proxy, the watchdog could be told of a wait on its own lock
and take that lock again to record it, a self-deadlock.

A listener implements ``on_acquire(lock, frame, blocking, waited)``
(after every successful acquisition; ``waited`` is 0.0 unless a blocking
acquisition had to wait) and ``on_release(lock)`` (before the release).
Stdlib only.
"""

from __future__ import annotations

import sys
import threading
import time

__all__ = ["HookedLock", "add_listener", "listeners", "own_lock", "remove_listener"]

_listeners: tuple = ()
#: The (Lock, RLock) factories in place when the first listener came.
_saved: tuple = (threading.Lock, threading.RLock)
_state_lock = threading.Lock()


class HookedLock:
    """Transparent proxy over a real lock, reporting to every listener."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

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
        return f"<hooked {self._inner!r}>"


def _make_lock() -> HookedLock:
    return HookedLock(_saved[0]())


def _make_rlock() -> HookedLock:
    return HookedLock(_saved[1]())


def add_listener(listener) -> None:
    """Start reporting acquisitions to ``listener`` (idempotent)."""
    global _listeners, _saved
    with _state_lock:
        if listener in _listeners:
            return
        if not _listeners:
            _saved = (threading.Lock, threading.RLock)
            threading.Lock = _make_lock  # type: ignore[assignment]
            threading.RLock = _make_rlock  # type: ignore[assignment]
        _listeners = (*_listeners, listener)


def remove_listener(listener) -> None:
    """Stop reporting to ``listener``; the last one out unpatches."""
    global _listeners
    with _state_lock:
        if listener not in _listeners:
            return
        _listeners = tuple(other for other in _listeners if other is not listener)
        if not _listeners:
            threading.Lock, threading.RLock = _saved  # type: ignore[misc]


def listeners() -> tuple:
    """The installed listeners, in the order they were added."""
    return _listeners


def own_lock():
    """A real lock no listener sees: for a listener's own state."""
    return (_saved[0] if _listeners else threading.Lock)()
