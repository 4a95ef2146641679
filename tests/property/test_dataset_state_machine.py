"""Generated state-machine test for the dataset transition.

The system promise: a live dataset, the same dataset restarted from its
data directory (cleanly or after a crash), and a replica that tailed its
journal hold **the same state** at the same ``(version, seq)`` — the same
ingest counters and byte-identical answers.  One transition function
(:class:`repro.ingest.durable.ReplayMachine`) is what keeps that promise;
this test generates interleavings of append / refused append / read /
rebuild / reload / replace / refused new generation / restart / crash /
replica sync / promote and checks it after every step.

Every cold build is journalled as a marker, at seq 0 too, so the
accuracy budget's ``base_rows`` is the same everywhere from the moment
it exists.  One divergence is inherent and the invariant is worded
around it: a replica's local read may lazily build what the primary has
not built yet, so replica counters are compared once the primary has an
engine (its build marker then settles both).
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.ingest.durable as durable
from repro.data.datasets import make_mixed_table
from repro.ingest import IngestConfig, IngestLog
from repro.ingest.durable import fold_records
from repro.service import (
    InsightRequest,
    LocalFeedSource,
    ReplicaWorkspace,
    Workspace,
)

NAME = "live"
BASE = make_mixed_table(n_rows=120, n_numeric=3, n_categorical=2, seed=21)
POOL = make_mixed_table(n_rows=256, n_numeric=3, n_categorical=2,
                        seed=22).to_records()
PROBE = InsightRequest(dataset=NAME, insight_classes=("skew", "outliers"),
                       top_k=3)
#: What a replace swaps in — inline, or through a loader returning it.
#: BASE's schema, so the POOL rows still append.
REPLACEMENTS = tuple(
    make_mixed_table(n_rows=n_rows, n_numeric=3, n_categorical=2, seed=seed)
    for n_rows, seed in ((90, 23), (150, 24)))
LOADERS = tuple((lambda table=table: table) for table in REPLACEMENTS)
#: No fsync (a *process* crash keeps flushed bytes, and the crash copies
#: below see them); no budget-triggered rebuilds, which would run on a
#: background worker and race the steps — the ``rebuild`` rule drives the
#: same swap-and-compact path at generated points instead.
INGEST = IngestConfig(fsync=False, rebuild_fraction=float("inf"))


def _open(data_dir, loader=None) -> Workspace:
    """A workspace on ``data_dir``; a loader-backed generation comes back
    only once its loader is registered, as a restarted server does."""
    workspace = Workspace(data_dir=str(data_dir), ingest=INGEST)
    if loader is not None:
        workspace.register(NAME, loader)
    return workspace


def _counters(workspace) -> dict:
    return workspace.ingest_stats()["datasets"][NAME]


def _payload(workspace) -> str:
    """Canonical probe response minus wall-clock timing and cache state."""
    body = workspace.handle(PROBE).to_dict()
    body.pop("timing")
    body["provenance"].pop("cache", None)
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class _TornWrites:
    """A journal segment handle whose next ``write`` lands only its first
    ``torn`` bytes, then fails like a full disk; the rest is the file's."""

    def __init__(self, handle, torn: int):
        self._handle = handle
        self._torn = torn

    def write(self, data: bytes) -> int:
        self._handle.write(data[:self._torn])
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class DatasetStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="repro-sm-"))
        self.data_dir = self.root / "primary"
        self.primary = _open(self.data_dir)
        self.primary.register(NAME, BASE)
        #: The current generation's loader (None: table-backed).
        self.loader = None
        self.replica = ReplicaWorkspace(LocalFeedSource(str(self.data_dir)))
        #: Has the replica synced since the primary last wrote?  (A build
        #: marker is a journal record that moves no ``seq``, so equal
        #: ``(version, seq)`` alone does not say "caught up".)
        self.replica_caught_up = False
        #: The newest ``(version, seq)`` any primary read has answered from.
        self.answered_from = (0, 0)

    def teardown(self):
        self.replica.close()
        self.primary.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _replica_serves(self) -> bool:
        """Can the replica answer for the dataset?  A generation a loader
        started has no rows on disk until its first compaction snapshot,
        and a replica has no loader to replay it from."""
        if NAME not in self.replica:
            return False
        pending = self.replica._entry(NAME).pending
        return pending is None or pending.snapshot is not None

    def _observed(self, built: bool):
        """What the live primary serves (read only if ``built`` — a read
        would build, and journal), peeks and counts."""
        primary = self.primary
        # The read first: it fills the cache the peek then looks in.
        answer = _payload(primary) if built else None
        return (primary.state(NAME), primary.table(NAME).n_rows,
                _counters(primary), answer, primary.peek_cached(PROBE))

    def _crash_copy(self) -> Path:
        """The data dir as a crash would leave it: copied without close()."""
        target = Path(tempfile.mkdtemp(prefix="crash-", dir=self.root))
        shutil.copytree(self.data_dir, target / "data")
        return target / "data"

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(start=st.integers(0, len(POOL) - 64), n=st.integers(1, 64))
    def append(self, start, n):
        self.primary.append(NAME, POOL[start:start + n])
        self.replica_caught_up = False

    @rule(start=st.integers(0, len(POOL) - 64), n=st.integers(1, 64),
          torn=st.integers(0, 4096))
    def failed_append(self, start, n, torn):
        """An append whose journal write fails is refused whole: it
        raises, and the live workspace serves, peeks and counts exactly
        what it did before (restart and replica: the invariant)."""
        primary = self.primary
        built = primary.describe()[0]["engine_built"]
        before = self._observed(built)
        journal = primary._journal
        handle = journal._handle(NAME)
        journal._handles[NAME] = _TornWrites(handle, torn)
        try:
            with pytest.raises(OSError, match="No space left"):
                primary.append(NAME, POOL[start:start + n])
        finally:
            journal._handles[NAME] = handle
        assert self._observed(built) == before

    def _answered(self, body: dict) -> None:
        """A primary read answers from the current state, never an older one."""
        state = (body["dataset_version"], body["dataset_seq"])
        assert state == self.primary.state(NAME)
        assert state >= self.answered_from
        self.answered_from = state

    @rule()
    def read(self):
        """A sketch-mode read: forces the lazy build and its marker."""
        self._answered(self.primary.handle(PROBE).to_dict())
        self.replica_caught_up = False

    @rule()
    def peek(self):
        """The server's non-waiting look at the result cache: silent
        unless it holds the reply of the *current* state (not after an
        append, a reload or a restart until a read has built and cached
        again), and then it is the reply a read gives, to the byte."""
        text = self.primary.peek_cached(PROBE)
        if text is None:
            return
        self._answered(json.loads(text))
        before = _counters(self.primary)
        assert self.primary.handle(PROBE).to_json() == text
        assert _counters(self.primary) == before

    @rule()
    def reload(self):
        """A new generation: the version moves on, ``seq`` starts over."""
        self.primary.reload(NAME)
        self.replica_caught_up = False

    @rule(which=st.integers(0, len(REPLACEMENTS) - 1), loader=st.booleans())
    def replace(self, which, loader):
        """A new generation of the same dataset from a new source: an
        inline table, or a loader a restart must be handed again."""
        source = LOADERS[which] if loader else REPLACEMENTS[which]
        self.primary.register(NAME, source, replace=True)
        self.loader = source if loader else None
        self.replica_caught_up = False

    @rule(replace=st.booleans(), which=st.integers(0, len(REPLACEMENTS) - 1),
          loader=st.booleans(), nth=st.integers(0, 1),
          torn=st.integers(0, 4096))
    def failed_generation(self, replace, which, loader, nth, torn):
        """A reload or replace whose generation write runs out of disk
        is refused whole: it raises, and the live workspace serves,
        peeks and counts exactly what it did before (restart and
        replica: the invariant).  A table-backed generation writes its
        snapshot, then its segment; the ``nth`` of those writes lands
        its first ``torn`` bytes and fails."""
        if replace:
            source = LOADERS[which] if loader else REPLACEMENTS[which]
            table_backed = not loader
        else:
            table_backed = self.loader is None
        fail_at = nth % (2 if table_backed else 1)
        opened = []

        def open_torn(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            if "r" in mode:
                return handle
            opened.append(path)
            return (_TornWrites(handle, torn) if len(opened) - 1 == fail_at
                    else handle)

        built = self.primary.describe()[0]["engine_built"]
        before = self._observed(built)
        durable.open = open_torn
        try:
            with pytest.raises(OSError, match="No space left"):
                if replace:
                    self.primary.register(NAME, source, replace=True)
                else:
                    self.primary.reload(NAME)
        finally:
            del durable.open
        assert self._observed(built) == before

    @rule()
    def rebuild(self):
        self.primary.rebuild(NAME)
        self.replica_caught_up = False

    @rule()
    def clean_restart(self):
        self.primary.close()
        self.primary = _open(self.data_dir, self.loader)

    @rule()
    def crash_restart(self):
        survivor = self._crash_copy()
        self.primary.close()
        shutil.rmtree(self.data_dir)
        survivor.rename(self.data_dir)
        self.primary = _open(self.data_dir, self.loader)

    @rule()
    def replica_sync(self):
        self.replica.sync()
        self.replica_caught_up = True

    @rule()
    def replica_read(self):
        """A local read on a (possibly lagging, possibly empty) replica."""
        if self._replica_serves():
            self.replica.handle(PROBE)

    @precondition(lambda self: NAME in self.replica)
    @rule()
    def promote(self):
        """Failover: the promoted replica serves what it applied and takes
        writes; a fresh replica then takes its place behind the primary."""
        self.replica.sync()
        if not self._replica_serves():
            return  # nothing it could take over
        before = _counters(self.replica)
        if self.primary.describe()[0]["engine_built"]:
            assert before == _counters(self.primary)
        self.replica.promote()
        assert _counters(self.replica) == before
        result = self.replica.append(NAME, POOL[:3])
        assert result.seq == before["seq"] + 1
        self.replica.close()
        self.replica = ReplicaWorkspace(LocalFeedSource(str(self.data_dir)))
        self.replica_caught_up = False

    # ------------------------------------------------------------------
    # The contract
    # ------------------------------------------------------------------
    @invariant()
    def live_restarted_and_replica_agree(self):
        state = self.primary.state(NAME)
        [described] = self.primary.describe()
        built = described["engine_built"]
        reopened = _open(self._crash_copy(), self.loader)
        others = [("restarted", reopened)]
        if built and self.replica_caught_up and self._replica_serves():
            others.append(("replica", self.replica))
        try:
            live = _counters(self.primary)
            if not built:
                # Nobody has built: the pending counters are the whole
                # comparable state (probing would build, and journal).
                assert _counters(reopened) == live, ("restarted", state)
                return
            answer = _payload(self.primary)
            assert _counters(self.primary) == live  # a read changes nothing
            for label, other in others:
                assert other.state(NAME) == state, label
                # Still pending / never queried: already exact.
                assert _counters(other) == live, (label, "pending", state)
                assert _payload(other) == answer, (label, state)
                assert _counters(other) == live, (label, "served", state)
        finally:
            reopened.close()


DatasetStateMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestDatasetStateMachine = DatasetStateMachine.TestCase


def _drive(machine, *steps):
    """Run ``steps`` (rule name, or ``(rule name, kwargs)``) on a fresh
    machine, checking the contract after every one."""
    try:
        for step in steps:
            name, kwargs = (step, {}) if isinstance(step, str) else step
            getattr(machine, name)(**kwargs)
            machine.live_restarted_and_replica_agree()
    finally:
        machine.teardown()


def test_build_marker_written_after_the_replica_reached_its_seq():
    """Pinned: the marker of a lazy build lands at a seq the replica
    already holds; the feed still owes it (found by this machine)."""
    _drive(DatasetStateMachine(),
           ("append", {"start": 0, "n": 1}), "replica_sync", "read",
           "replica_sync")


def test_failover_after_a_late_marker_keeps_the_accuracy_budget():
    """Pinned: the replica that took the late marker and one more append
    holds the primary's budget accounting when it is promoted — not
    ``base_rows`` 0, which would never schedule a rebuild again."""
    _drive(DatasetStateMachine(),
           ("append", {"start": 0, "n": 5}), "replica_sync", "read",
           "replica_sync", ("append", {"start": 5, "n": 11}), "replica_sync",
           "promote")


def test_failover_of_a_replica_that_synced_before_the_seq_0_build():
    """Pinned: the cold build at seq 0 is journalled, so a replica that
    bootstrapped before it still learns ``base_rows`` (120, not 0) from
    the marker and matches the primary when promoted (found by this
    machine: it failed on this three-step sequence at every warm run)."""
    _drive(DatasetStateMachine(), "replica_sync", "read", "promote")


def test_a_delta_merge_implies_the_cold_build_no_marker_recorded():
    """The fold's one inference, not only at seq 0: should a marker be
    lost outright, the next delta merge still accounts the build."""
    log = fold_records(NAME, IngestLog(), [
        {"type": "append", "seq": 1, "applied": "deferred",
         "n_rows": 5, "total_rows": 125},
        {"type": "append", "seq": 2, "applied": "delta_merge",
         "n_rows": 11, "total_rows": 136},
    ])
    assert (log.base_rows, log.rows_since_rebuild) == (125, 11)


def test_refused_appends_leave_their_seq_to_the_next_one():
    """Journal writes that tear mid-record are rolled back — the second
    from where the first's roll-back left the segment, not from the
    stale position past it (found by this machine: the next accepted
    append landed behind a hole and a restart dropped it) — so the next
    append is seq 2 live, after a crash and on a replica."""
    machine = DatasetStateMachine()
    try:
        for name, kwargs in (("append", {"start": 0, "n": 3}),
                             ("read", {}),
                             ("failed_append", {"start": 3, "n": 9, "torn": 4096}),
                             ("failed_append", {"start": 3, "n": 3, "torn": 11}),
                             ("append", {"start": 6, "n": 3}),
                             ("crash_restart", {}),
                             ("replica_sync", {})):
            getattr(machine, name)(**kwargs)
            machine.live_restarted_and_replica_agree()
        assert machine.primary.state(NAME) == (1, 2)
        assert machine.primary.table(NAME).n_rows == BASE.n_rows + 6
    finally:
        machine.teardown()
