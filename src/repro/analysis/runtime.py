"""Runtime lock-order checking against the role each lock was made with.

With ``REPRO_DEBUG_LOCKS=1`` the test suite (via ``tests/conftest.py``)
installs a :class:`LockTracker`, one listener on the shared lock hook
(:mod:`repro.obs.lockhook`, which the lock-wait watchdog listens on
too).  Every lock made while it is installed carries its role and the
role's level (:data:`repro.obs.lockhook.ROLES`), and every successful
blocking acquisition is checked against the per-thread stack of locks
already held:

* taking a lower-level role while holding a higher one → ``inversion``;
* taking a role already held through a non-reentrant lock →
  ``reacquire``;
* every ``(held, taken)`` role pair is recorded in :attr:`edges`, and
  the pairs between distinct roles of *equal* level — which the levels
  cannot order — must form no cycle: :meth:`assert_clean` reports one
  as ``cycle``.

Non-blocking acquisitions cannot deadlock and are never checked, but
the lock they take is held, so it orders what is taken beneath it.
``threading.Condition``'s ``_acquire_restore`` bookkeeping reaches the
real lock through the proxy's ``__getattr__`` and is never reported.

Violations are recorded, not raised, at the point of detection (raising
inside an arbitrary lock acquire corrupts the program under test);
:meth:`LockTracker.assert_clean` turns the record into a test failure at
session teardown.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.obs import lockhook

__all__ = ["LockTracker", "LockOrderViolation", "install_from_env"]


@dataclass(frozen=True)
class LockOrderViolation:
    kind: str  # "inversion" | "reacquire" | "cycle"
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

    def __init__(self):
        self.violations: list[LockOrderViolation] = []
        #: ``(held role, taken role)`` → the thread and the two sites of
        #: the first blocking acquisition that nested them.
        self.edges: dict[tuple[str, str], tuple[str, str, str]] = {}
        self._held = threading.local()
        #: id(lock) → the held stack of the thread holding it, while it
        #: is held: a ``Lock`` may be released by another thread than
        #: took it.
        self._holders: dict[int, list] = {}

    def install(self) -> "LockTracker":
        lockhook.add_listener(self)
        return self

    def uninstall(self) -> None:
        lockhook.remove_listener(self)

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
        role = lock.role
        level = lockhook.ROLES[role]
        stack = self._stack()
        site = f"{frame.f_code.co_filename}:{frame.f_lineno}"
        if blocking:
            for _held_id, held_role, held_level, held_site in reversed(stack):
                if held_role == role:
                    if not lock.reentrant:
                        self._record("reacquire", held_role, held_site, role, site)
                    # Re-entry: deeper holds were checked when first taken.
                    break
                edge = (held_role, role)
                if edge not in self.edges:
                    # A bare dict store (atomic under the GIL): a lock
                    # here would be one more lock the hook reports back.
                    self.edges[edge] = (threading.current_thread().name,
                                        held_site, site)
                if level < held_level:
                    self._record("inversion", held_role, held_site, role, site)
        # Holder first: a thread the lock is handed to finds the stack
        # as soon as the entry is on it.
        self._holders[id(lock)] = stack
        stack.append((id(lock), role, level, site))

    def on_release(self, lock) -> None:
        key = id(lock)
        stack = self._holders.get(key)
        if not stack:
            return
        for held in reversed(stack):
            if held[0] == key:
                # remove(), not del by index: the stack may be another
                # thread's, and one call is atomic under the GIL.
                stack.remove(held)
                break
        if not any(held[0] == key for held in stack):
            # Released for good: drop the entry, so the map holds no
            # lock that is gone and no stack of a thread that ended.
            self._holders.pop(key, None)

    def _record(
        self, kind: str, held_role: str, held_site: str, role: str, site: str
    ) -> None:
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
    def cycles(self) -> list[LockOrderViolation]:
        """One ``cycle`` violation per back edge among the equal-level
        edges seen so far."""
        levels = lockhook.ROLES
        graph: dict[str, list[str]] = {}
        for held, taken in sorted(self.edges):
            if held != taken and levels[held] == levels[taken]:
                graph.setdefault(held, []).append(taken)
        found: list[LockOrderViolation] = []
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for nxt in graph.get(node, ()):
                if state.get(nxt) == 1:
                    thread, held_site, site = self.edges[(node, nxt)]
                    found.append(LockOrderViolation(
                        "cycle", thread, node, held_site, nxt, site))
                elif nxt not in state:
                    visit(nxt)
            state[node] = 2

        for node in graph:
            if node not in state:
                visit(node)
        return found

    def assert_clean(self) -> None:
        violations = self.violations + self.cycles()
        if violations:
            rendered = "\n".join(v.render() for v in violations)
            raise AssertionError(
                f"{len(violations)} runtime lock-order violation(s) against the "
                f"declared hierarchy:\n{rendered}"
            )


def install_from_env() -> LockTracker | None:
    """Install a tracker when ``REPRO_DEBUG_LOCKS=1``; else no-op."""
    if os.environ.get("REPRO_DEBUG_LOCKS") != "1":
        return None
    return LockTracker().install()
