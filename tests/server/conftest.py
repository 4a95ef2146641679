"""Shared fixtures and helpers for the HTTP server tests."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.data import DataTable
from repro.data.datasets import make_mixed_table
from repro.service import InsightResponse, Workspace


@pytest.fixture(scope="session")
def server_table() -> DataTable:
    """A small mixed table: fast engine builds, non-trivial insights."""
    return make_mixed_table(n_rows=300, n_numeric=6, n_categorical=2, seed=3)


@pytest.fixture()
def server_workspace(server_table: DataTable) -> Workspace:
    """A fresh workspace per test (counters start at zero)."""
    workspace = Workspace()
    workspace.register("demo", lambda: server_table)
    return workspace


def stable_payload(response: InsightResponse | dict) -> str:
    """Canonical JSON of a response minus its volatile fields.

    ``timing`` is wall-clock and ``provenance`` records *how* the answer
    was produced (cache hit/miss, batch/coalesce position) — both vary
    run to run by design.  Everything else (the carousels, dataset,
    version, cursor) must be byte-identical however a request was
    transported, and this helper is what the equivalence tests compare.
    """
    payload = response.to_dict() if isinstance(response, InsightResponse) else dict(response)
    payload.pop("timing", None)
    payload.pop("provenance", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class HeldEntryLock:
    """Another thread inside the dataset's entry lock — an append in
    flight, when ``rows`` are given — until :meth:`release`.

    Every read of the dataset that reaches the workspace blocks behind
    it, so a coalesced dispatch started meanwhile stays running: the
    arrivals after it find the coalescer busy and wait for its window.
    """

    def __init__(self, workspace: Workspace, rows=None, name: str = "demo"):
        self._holding = threading.Event()
        self._let_go = threading.Event()
        self._thread = threading.Thread(
            target=self._hold, args=(workspace, rows, name), daemon=True)
        self._thread.start()
        assert self._holding.wait(timeout=10)

    def _hold(self, workspace: Workspace, rows, name: str) -> None:
        with workspace._locked_entry(name):
            if rows is not None:
                workspace.append(name, rows)  # reentrant: same thread
            self._holding.set()
            assert self._let_go.wait(timeout=30), "lock never released"

    def release(self) -> None:
        self._let_go.set()
        self._thread.join(timeout=30)


def wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)
