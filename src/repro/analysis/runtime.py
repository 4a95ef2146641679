"""Runtime counterpart of the static lock-order rule.

The AST walker sees lexical nesting; this shim sees *actual* nesting.
With ``REPRO_DEBUG_LOCKS=1`` the test suite (via ``tests/conftest.py``)
installs a :class:`LockTracker` that wraps ``threading.Lock`` /
``threading.RLock`` construction in thin proxies.  Every successful
blocking acquisition resolves the acquiring source line against the
*statically extracted* site table (:func:`repro.analysis.locks.
collect_lock_sites`), giving the lock its declared role, and is checked
against the per-thread stack of roles already held:

* acquiring a lower-level role while holding a higher one → violation;
* re-entering a non-reentrant role → violation.

Sites whose line carries a suppression of the lock-order rule are absent
from the site table, so a static allowance extends to runtime.
Acquisitions from unresolved sites (test helpers, third-party code) are
ignored rather than guessed at: the tracker only ever reasons about
locks it can name, which also keeps it safe around ``threading.
Condition`` — the condition's internal ``_acquire_restore`` bookkeeping
reaches the raw lock through ``__getattr__`` delegation and bypasses
tracking entirely.

Violations are recorded, not raised, at the point of detection (raising
inside an arbitrary lock acquire corrupts the program under test);
:meth:`LockTracker.assert_clean` turns the record into a test failure at
session teardown.  Tests can also pin roles to specific lock objects
with :meth:`LockTracker.declare`, bypassing source-line resolution.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .locks import LockSite, LockSiteResolver, collect_lock_sites
from .project import DEFAULT_CONFIG, ProjectConfig

__all__ = ["LockTracker", "LockOrderViolation", "install_from_env"]


@dataclass(frozen=True)
class LockOrderViolation:
    kind: str  # "inversion" | "reacquire"
    thread: str
    held_role: str
    held_site: str
    acquired_role: str
    acquired_site: str

    def render(self) -> str:
        return (
            f"[{self.kind}] thread {self.thread!r}: acquired '{self.acquired_role}' "
            f"at {self.acquired_site} while holding '{self.held_role}' "
            f"(taken at {self.held_site})"
        )


class _TracedLock:
    """Transparent proxy over a real lock, reporting to the tracker."""

    __slots__ = ("_inner", "_tracker")

    def __init__(self, inner, tracker: "LockTracker"):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracker", tracker)

    def acquire(self, blocking: bool = True, timeout: float = -1):
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._tracker._on_acquire(self, blocking)
        return ok

    def release(self):
        self._tracker._on_release(self)
        self._inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def locked(self):
        return self._inner.locked()

    def __getattr__(self, name):
        # Everything else (e.g. Condition's _acquire_restore/_release_save
        # and _is_owned) goes straight to the raw lock, deliberately
        # untracked.
        return getattr(self._inner, name)

    def __repr__(self):
        return f"<traced {self._inner!r}>"


class LockTracker:
    """Patches lock construction and records ordering violations."""

    def __init__(self, config: ProjectConfig | None = None):
        self.config = config or DEFAULT_CONFIG
        self.violations: list[LockOrderViolation] = []
        self._sites: dict[tuple[str, int], LockSite] = {}
        self._resolver = LockSiteResolver(self._sites)
        self._levels = {spec.lock_id: spec.level for spec in self.config.locks}
        self._reentrant = {spec.lock_id for spec in self.config.locks if spec.reentrant}
        self._declared: dict[int, str] = {}
        self._held = threading.local()
        self._record_lock = threading.Lock()
        self._installed = False
        self._orig_lock = None
        self._orig_rlock = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, roots: Iterable[Path] | None = None) -> "LockTracker":
        """Load the static site table and patch threading factories."""
        if roots is None:
            import repro

            roots = [Path(repro.__file__).resolve().parent]
        self._sites = collect_lock_sites(roots, self.config)
        self._resolver = LockSiteResolver(self._sites)
        if self._installed:
            return self
        self._orig_lock = threading.Lock
        self._orig_rlock = threading.RLock
        tracker = self

        def make_lock():
            return _TracedLock(tracker._orig_lock(), tracker)

        def make_rlock():
            return _TracedLock(tracker._orig_rlock(), tracker)

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

    def declare(self, lock, role: str) -> None:
        """Pin a role to a lock object (tests; skips site resolution)."""
        self._declared[id(lock)] = role

    # ------------------------------------------------------------------
    # Acquisition bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _resolve(self, lock) -> tuple[str | None, str]:
        declared = self._declared.get(id(lock))
        if declared is not None:
            return declared, "<declared>"
        # _resolve <- _on_acquire <- acquire
        return self._resolver.resolve(sys._getframe(2))

    def _on_acquire(self, lock, blocking: bool) -> None:
        role, site = self._resolve(lock)
        if role is None:
            return
        stack = self._stack()
        level = self._levels.get(role)
        if blocking and level is not None:
            for _held_id, held_role, held_level, held_site in reversed(stack):
                if held_role == role:
                    if role not in self._reentrant:
                        self._record("reacquire", held_role, held_site, role, site)
                    # Reentrant re-entry: deeper holds were already
                    # checked when first taken.
                    break
                if held_level is not None and level < held_level:
                    self._record("inversion", held_role, held_site, role, site)
        stack.append((id(lock), role, level, site))

    def _on_release(self, lock) -> None:
        stack = getattr(self._held, "stack", None)
        if not stack:
            return
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == id(lock):
                del stack[index]
                return

    def _record(
        self, kind: str, held_role: str, held_site: str, role: str, site: str
    ) -> None:
        violation = LockOrderViolation(
            kind=kind,
            thread=threading.current_thread().name,
            held_role=held_role,
            held_site=held_site,
            acquired_role=role,
            acquired_site=site,
        )
        with self._record_lock:
            self.violations.append(violation)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def assert_clean(self) -> None:
        with self._record_lock:
            violations = list(self.violations)
        if violations:
            rendered = "\n".join(v.render() for v in violations)
            raise AssertionError(
                f"{len(violations)} runtime lock-order violation(s) against the "
                f"declared hierarchy:\n{rendered}"
            )


def install_from_env(config: ProjectConfig | None = None) -> LockTracker | None:
    """Install a tracker when ``REPRO_DEBUG_LOCKS=1``; else no-op."""
    if os.environ.get("REPRO_DEBUG_LOCKS") != "1":
        return None
    return LockTracker(config).install()
