"""Runtime counterpart of the static lock-order rule.

The AST walker sees lexical nesting; this shim sees *actual* nesting.
With ``REPRO_DEBUG_LOCKS=1`` the test suite (via ``tests/conftest.py``)
installs a :class:`LockTracker`, one listener on the shared lock hook
(:mod:`repro.obs.lockhook`, which the lock-wait watchdog listens on
too).  Every successful blocking acquisition of a lock created while it
is installed resolves the caller's frame against the *statically
extracted* site table (:func:`repro.analysis.locks.collect_lock_sites`),
giving the lock its declared role, and is checked against the
per-thread stack of roles already held:

* acquiring a lower-level role while holding a higher one → violation;
* re-entering a non-reentrant role → violation.

Sites whose line carries a suppression of the lock-order rule are absent
from the site table, so a static allowance extends to runtime.
Acquisitions from unresolved sites (test helpers, third-party code) are
ignored rather than guessed at: the tracker only ever reasons about
locks it can name.  ``threading.Condition``'s ``_acquire_restore``
bookkeeping reaches the real lock through the proxy's ``__getattr__``
and is never reported.

Violations are recorded, not raised, at the point of detection (raising
inside an arbitrary lock acquire corrupts the program under test);
:meth:`LockTracker.assert_clean` turns the record into a test failure at
session teardown.  Tests can also pin roles to specific lock objects
with :meth:`LockTracker.declare`, bypassing source-line resolution.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.obs import lockhook

from .locks import LockSiteResolver
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


class LockTracker:
    """Lock-hook listener that records ordering violations."""

    def __init__(self, config: ProjectConfig | None = None):
        self.config = config or DEFAULT_CONFIG
        self.violations: list[LockOrderViolation] = []
        self._resolver = LockSiteResolver({})
        self._levels = {spec.lock_id: spec.level for spec in self.config.locks}
        self._reentrant = {spec.lock_id for spec in self.config.locks if spec.reentrant}
        self._declared: dict[int, str] = {}
        self._held = threading.local()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, roots: Iterable[Path] | None = None) -> "LockTracker":
        """Load the static site table and listen on the lock hook."""
        self._resolver = LockSiteResolver.for_package(roots, self.config)
        lockhook.add_listener(self)
        return self

    def uninstall(self) -> None:
        lockhook.remove_listener(self)

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

    def on_acquire(self, lock, frame, blocking: bool, waited: float) -> None:
        role = self._declared.get(id(lock))
        site = "<declared>"
        if role is None:
            role, site = self._resolver.resolve(frame)
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

    def on_release(self, lock) -> None:
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
        # A bare append (atomic under the GIL): a lock here would be one
        # more lock the hook reports back to this tracker.
        self.violations.append(LockOrderViolation(
            kind=kind,
            thread=threading.current_thread().name,
            held_role=held_role,
            held_site=held_site,
            acquired_role=role,
            acquired_site=site,
        ))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def assert_clean(self) -> None:
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
