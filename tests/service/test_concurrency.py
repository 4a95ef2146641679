"""Concurrency tests: one thread per request and thread-safe serving.

Two guarantees are pinned down here:

* **one execution path** — a request, a batch, an engine build and an
  append run on the thread that asked and start no other; a batch's
  answers are the sequential answers;
* **thread safety** — one :class:`Workspace` hammered by many threads
  (concurrent ``handle`` + ``reload`` + ``invalidate``) never corrupts
  its counters: engine builds are single-flight, every cache lookup is
  accounted for, and the LRU never exceeds capacity.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import threading

from repro import Foresight, InsightRequest, Workspace
from repro.core.registry import default_registry
from repro.data.datasets import make_mixed_table
from repro.errors import ServiceError
from repro.ingest import IngestConfig

ALL_CLASSES = tuple(default_registry().names())

#: The univariate classes: one shared enumeration of the numeric
#: singletons serves all six.
UNIVARIATE_CLASSES = ("dispersion", "skew", "heavy_tails", "outliers",
                      "normality", "multimodality")


def _comparable_payload(response) -> str:
    """Canonical response JSON minus wall-clock timing.

    Everything else — rankings, scores, summaries, pagination,
    cache/pipeline provenance — must match byte for byte.
    """
    payload = response.to_dict()
    payload.pop("timing")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestParallelSerialDeterminism:
    def test_sharding_engages_on_scoring_bound_request(self, oecd_table):
        workspace = Workspace()
        workspace.register("data", oecd_table)
        workspace.handle(
            InsightRequest(dataset="data", insight_classes=UNIVARIATE_CLASSES,
                           top_k=3)
        )
        stats = workspace.pipeline_stats()
        assert stats["enumerations"] == 1
        assert stats["shared_queries"] == len(UNIVARIATE_CLASSES) - 1

    def test_handle_many_matches_sequential_handles(self, small_mixed_table):
        requests = [
            InsightRequest(dataset="data", insight_classes=("skew", "outliers"),
                           top_k=k)
            for k in (1, 2, 3, 4)
        ]
        serial_ws = Workspace()
        serial_ws.register("data", small_mixed_table)
        sequential = [_comparable_payload(serial_ws.handle(r)) for r in requests]

        batch_ws = Workspace()
        batch_ws.register("data", small_mixed_table)
        batched = batch_ws.handle_many(requests)
        for index, (response, request_dto) in enumerate(zip(batched, requests)):
            batch = response.provenance["batch"]
            assert batch["index"] == index
            assert batch["size"] == len(requests)
            response.provenance = {
                k: v for k, v in response.provenance.items() if k != "batch"
            }
            assert _comparable_payload(response) == sequential[index]

    def test_a_request_runs_on_its_callers_thread(
        self, small_mixed_table, monkeypatch
    ):
        """No engine-level fan-out: nothing below ``handle`` starts a thread.

        The one thing allowed to is a budget-triggered background
        rebuild, on the maintenance pool — which none of these is.
        """
        workspace = Workspace()
        workspace.register("data", small_mixed_table)

        started: list[str] = []
        real_start = threading.Thread.start

        def spying_start(thread):
            started.append(thread.name)
            real_start(thread)

        handled_on: list[int] = []
        real_handle = Workspace.handle

        def spying_handle(self, request):
            handled_on.append(threading.get_ident())
            return real_handle(self, request)

        monkeypatch.setattr(threading.Thread, "start", spying_start)
        monkeypatch.setattr(Workspace, "handle", spying_handle)

        cold = workspace.handle(
            InsightRequest(dataset="data", insight_classes=ALL_CLASSES, top_k=3)
        )
        assert cold.provenance["cache"] == "miss"
        batch = workspace.handle_many([
            InsightRequest(dataset="data", insight_classes=("skew", "outliers"),
                           top_k=k)
            for k in range(1, 9)
        ])
        Foresight(small_mixed_table)
        appended = workspace.append(
            "data", small_mixed_table.to_records()[:5]
        )
        assert appended.applied == "delta_merge"

        assert started == []
        assert handled_on == [threading.get_ident()] * 9
        assert [r.provenance["batch"] for r in batch] == [
            {"index": index, "size": 8} for index in range(8)
        ]
        assert importlib.util.find_spec("repro.core.executor") is None
        workspace.close()


class TestWorkspaceUnderConcurrency:
    def _make_workspace(self, loads: list[int]) -> Workspace:
        def loader():
            loads.append(1)
            return make_mixed_table(n_rows=200, n_numeric=8, n_categorical=2, seed=9)

        workspace = Workspace(cache_size=8)
        workspace.register("data", loader)
        return workspace

    def test_cold_start_race_builds_engine_exactly_once(self):
        loads: list[int] = []
        workspace = self._make_workspace(loads)
        request = InsightRequest(dataset="data", insight_classes=("skew", "outliers"),
                                 top_k=3)
        n_threads = 12
        errors: list[Exception] = []
        start_gate = threading.Barrier(n_threads, timeout=10)

        def serve():
            try:
                start_gate.wait()
                response = workspace.handle(request)
                assert response.dataset_version == 1
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=serve) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        # Single-flight: N racing threads, one build, one loader run.
        assert workspace.engine_builds("data") == 1
        assert len(loads) == 1
        info = workspace.cache_info()
        # Every handle() does exactly one cache lookup.
        assert info["hits"] + info["misses"] == n_threads
        assert info["misses"] >= 1
        assert info["size"] <= info["capacity"]

    def test_stress_handle_reload_invalidate(self):
        loads: list[int] = []
        workspace = self._make_workspace(loads)
        requests = [
            InsightRequest(dataset="data", insight_classes=("skew",), top_k=k)
            for k in (1, 2, 3)
        ]
        n_handle_threads, handles_per_thread, n_reloads, n_invalidates = 6, 10, 3, 3
        errors: list[Exception] = []

        def hammer_handles(seed: int):
            try:
                for i in range(handles_per_thread):
                    response = workspace.handle(requests[(seed + i) % len(requests)])
                    assert response.carousels[0]["insight_class"] == "skew"
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        def hammer_reloads():
            try:
                for _ in range(n_reloads):
                    workspace.reload("data")
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        def hammer_invalidates():
            try:
                for _ in range(n_invalidates):
                    workspace.invalidate("data")
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer_handles, args=(seed,))
            for seed in range(n_handle_threads)
        ]
        threads.append(threading.Thread(target=hammer_reloads))
        threads.append(threading.Thread(target=hammer_invalidates))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        total_handles = n_handle_threads * handles_per_thread
        info = workspace.cache_info()
        # Counter consistency survives the races: one lookup per handle,
        # every removal accounted for, occupancy within bounds.
        assert info["hits"] + info["misses"] == total_handles
        assert info["evictions"] >= info["invalidations"]
        assert 0 <= info["size"] <= info["capacity"]
        # Reloads bump the version linearly and rebuild at most once per
        # generation (single-flight within each).
        assert workspace.version("data") == 1 + n_reloads
        assert 1 <= workspace.engine_builds("data") <= 1 + n_reloads
        assert 1 <= len(loads) <= 1 + n_reloads
        # The workspace still serves correct, current answers afterwards.
        response = workspace.handle(requests[0])
        assert response.dataset_version == 1 + n_reloads
        assert len(response.insights_for("skew")) == 1

    def test_stress_peeks_beside_handles_appends_and_reloads(self):
        """The event loop's view: one thread that only ever peeks, beside
        workers that read, append and reload.  A peeked reply is never
        older than the one before it, and every read served — peeked or
        handled — is exactly one counted cache lookup."""
        loads: list[int] = []
        workspace = self._make_workspace(loads)
        request = InsightRequest(dataset="data", insight_classes=("skew",),
                                 top_k=2)
        rows = make_mixed_table(n_rows=8, n_numeric=8, n_categorical=2,
                                seed=10).to_records()
        peeked: list[tuple[int, int]] = []  # written by the peeker alone
        errors: list[Exception] = []
        done = threading.Event()

        def peek_only():
            seen = (0, 0)
            try:
                while not done.is_set():
                    text = workspace.peek_cached(request)
                    if text is None:
                        continue
                    body = json.loads(text)
                    state = (body["dataset_version"], body["dataset_seq"])
                    peeked.append(state)
                    assert state >= seen, (state, seen)
                    assert body["provenance"]["cache"] == "hit"
                    seen = state
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        def work(seed: int):
            try:
                for i in range(12):
                    workspace.handle(request)
                    if (seed + i) % 4 == 0:
                        workspace.append("data", rows[:2])
                    if seed == 0 and i in (4, 8):
                        workspace.reload("data")
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            peeker = threading.Thread(target=peek_only)
            workers = [threading.Thread(target=work, args=(seed,))
                       for seed in range(4)]
            peeker.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
            done.set()
            peeker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)

        assert errors == []
        assert not peeker.is_alive() and not any(t.is_alive() for t in workers)
        info = workspace.cache_info()
        assert info["hits"] + info["misses"] == len(peeked) + 4 * 12
        assert workspace.version("data") == 3

    def test_concurrent_register_same_name_has_exactly_one_winner(self):
        """register() is an atomic check-and-insert.

        N threads racing to register one new name produce exactly one
        entry; the losers get the "already registered" error instead of
        silently clobbering the winner's dataset (or double-starting its
        journal generation).
        """
        def loader():
            return make_mixed_table(n_rows=40, n_numeric=2,
                                    n_categorical=1, seed=13)

        for _attempt in range(5):
            workspace = Workspace()
            n_threads = 8
            gate = threading.Barrier(n_threads, timeout=10)
            outcomes: list[str] = []
            record = threading.Lock()

            def race():
                gate.wait()
                try:
                    workspace.register("shared", loader)
                    result = "registered"
                except ServiceError:
                    result = "duplicate"
                with record:
                    outcomes.append(result)

            threads = [threading.Thread(target=race)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert outcomes.count("registered") == 1
            assert outcomes.count("duplicate") == n_threads - 1
            assert workspace.datasets() == ["shared"]
            assert workspace.version("shared") == 1

    def test_new_generations_take_the_entry_lock_before_the_registry(
        self, tmp_path
    ):
        """Registration, replace and reload race on one name under the
        runtime lock tracker — entry locks included — and never take the
        entry lock (level 10) while holding the registry lock (20)."""
        from repro.analysis.runtime import LockTracker
        from repro.obs.lockhook import HookedLock

        table = make_mixed_table(n_rows=40, n_numeric=2, n_categorical=1,
                                 seed=13)
        tracker = LockTracker().install()
        try:
            workspace = Workspace(data_dir=str(tmp_path))
            gate = threading.Barrier(6, timeout=10)
            errors: list[Exception] = []

            def race(index):
                gate.wait()
                try:
                    if index < 2:
                        workspace.register("shared", table)
                    elif index < 4:
                        workspace.register("shared", table, replace=True)
                    else:
                        workspace.reload("shared")
                except ServiceError:
                    pass  # a duplicate, or a reload before any register
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=race, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert isinstance(workspace._entry("shared").lock, HookedLock)
            workspace.close()
        finally:
            tracker.uninstall()
        assert tracker.violations == []


class TestBackgroundRebuild:
    """Queries and appends racing an off-path rebuild stay consistent.

    The atomic-swap contract: every response is byte-identical to the
    reference response for the ``(version, seq)`` snapshot it claims —
    a half-built engine serving even one request would break that — and
    the swap mints a sequence number of its own, so the rebuilt engine
    never masquerades under the merged engine's identity.
    """

    @staticmethod
    def _table():
        return make_mixed_table(n_rows=400, n_numeric=4, n_categorical=2,
                                seed=31)

    @staticmethod
    def _stream():
        return make_mixed_table(n_rows=60, n_numeric=4, n_categorical=2,
                                seed=32).to_records()

    @staticmethod
    def _request():
        return InsightRequest(dataset="live",
                              insight_classes=("skew", "outliers"), top_k=3)

    def _prepared(self):
        workspace = Workspace(
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        workspace.register("live", self._table())
        workspace.engine("live")
        stream = self._stream()
        for start in (0, 20, 40):
            workspace.append("live", stream[start:start + 20])
        return workspace

    def test_queries_racing_a_rebuild_match_their_snapshots_reference(self):
        # Sequential reference: the same appends, then a rebuild — one
        # known-good payload per reachable (version, seq).
        reference = self._prepared()
        expected = {3: reference.handle(self._request()).to_dict()["carousels"]}
        swap = reference.rebuild("live")
        assert (swap["built_from_rows"], swap["merged_rows"]) == (460, 0)
        expected[4] = reference.handle(self._request()).to_dict()["carousels"]

        workspace = self._prepared()
        responses, errors = [], []
        stop = threading.Event()

        def query_loop():
            try:
                while not stop.is_set():
                    responses.append(workspace.handle(self._request()))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=query_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        assert workspace.rebuild("live")["seq"] == 4  # races the queries
        responses.append(workspace.handle(self._request()))
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors
        seqs = {response.dataset_seq for response in responses}
        assert seqs <= {3, 4}
        assert 4 in seqs  # the post-swap query saw the rebuilt engine
        for response in responses:
            assert response.to_dict()["carousels"] == (
                expected[response.dataset_seq]
            ), f"torn read at seq {response.dataset_seq}"
        # Exactly one extra build: the swap was atomic and single.
        assert workspace.engine_builds("live") == 2

    def test_appends_racing_a_rebuild_keep_delta_merging(self, tmp_path):
        """Appends never block on (or get swallowed by) the rebuild.

        The durable journal doubles as the correctness oracle here: the
        live engine after a racy swap must byte-match what replaying the
        journal — which records the exact swap position — reconstructs.
        """
        stream = self._stream()
        workspace = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        workspace.register("live", self._table())
        workspace.engine("live")
        workspace.append("live", stream[:20])

        rebuilt: list[dict] = []
        worker = threading.Thread(
            target=lambda: rebuilt.append(workspace.rebuild("live")))
        worker.start()
        results = [workspace.append("live", stream[start:start + 8])
                   for start in (20, 28, 36, 44)]
        worker.join()

        assert all(result.applied == "delta_merge" for result in results)
        assert rebuilt[0] is not None  # the swap landed
        final = workspace.handle(self._request())
        live_payload = json.dumps(final.to_dict()["carousels"])
        workspace.close()

        # Inline tables snapshot at registration, so the replayed
        # workspace restores "live" on open — no register needed.
        replayed = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        assert replayed.state("live") == (
            final.dataset_version, final.dataset_seq
        )
        replay_payload = json.dumps(
            replayed.handle(self._request()).to_dict()["carousels"])
        assert replay_payload == live_payload

    def test_replace_registration_discards_a_racing_rebuild(
        self, tmp_path, monkeypatch
    ):
        """A rebuild that loses the race to register(replace=True) must
        vanish entirely.

        The replace is a new generation on the same entry, so the
        rebuild's swap section finds the version moved on under it.  A
        rebuild that swapped anyway would journal its swap record and
        snapshot (old version!) into the replacement's generation,
        destroying the replacement's only durable copy and resurrecting
        the old dataset on restart.
        """
        import repro.service.workspace as workspace_module

        stream = self._stream()
        workspace = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        workspace.register("live", self._table())
        workspace.engine("live")
        workspace.append("live", stream[:20])

        real_foresight = workspace_module.Foresight
        build_started = threading.Event()
        release_build = threading.Event()

        def stalled_foresight(*args, **kwargs):
            build_started.set()
            assert release_build.wait(timeout=30)
            return real_foresight(*args, **kwargs)

        monkeypatch.setattr(workspace_module, "Foresight", stalled_foresight)
        outcomes: list[dict | None] = []
        worker = threading.Thread(
            target=lambda: outcomes.append(workspace.rebuild("live")))
        worker.start()
        assert build_started.wait(timeout=30)

        # While the rebuild's off-lock build is in flight, replace the
        # dataset wholesale: different rows, a new generation on disk.
        replacement = make_mixed_table(n_rows=50, n_numeric=4,
                                       n_categorical=2, seed=33)
        workspace.register("live", replacement, replace=True)
        monkeypatch.setattr(workspace_module, "Foresight", real_foresight)
        release_build.set()
        worker.join(timeout=30)
        assert not worker.is_alive()

        assert outcomes == [None]  # the stale rebuild discarded itself
        assert workspace.state("live") == (2, 0)
        assert workspace.table("live").n_rows == 50
        # Appends keep landing in the replacement's generation.
        appended = workspace.append("live", stream[:5])
        assert (appended.version, appended.seq) == (2, 1)
        workspace.close()

        # A restart restores the replacement: the stale rebuild never
        # journalled into (or snapshotted over) its generation.
        replayed = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        assert replayed.state("live") == (2, 1)
        assert replayed.table("live").n_rows == 55
        replayed.close()

    def test_append_losing_the_lock_race_to_replace_lands_on_the_replacement(
        self, tmp_path, monkeypatch
    ):
        """Fetching an entry and locking it is not atomic.

        A replace-registration landing in that window starts a new
        generation on the very entry the caller fetched, so once the
        caller holds the lock it appends onto the replacement — never
        the old dataset's rows (and seq) into the new generation.
        """
        stream = self._stream()
        workspace = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        workspace.register("live", self._table())
        workspace.engine("live")

        replacement = make_mixed_table(n_rows=50, n_numeric=4,
                                       n_categorical=2, seed=33)
        real_entry = Workspace._entry
        state = {"armed": True}

        def racing_entry(self, name):
            entry = real_entry(self, name)
            if state["armed"] and name == "live":
                # Deterministically emulate the preemption: the replace
                # completes after the fetch, before the lock.
                state["armed"] = False
                self.register("live", replacement, replace=True)
            return entry

        monkeypatch.setattr(Workspace, "_entry", racing_entry)
        result = workspace.append("live", stream[:5])
        monkeypatch.setattr(Workspace, "_entry", real_entry)

        # The append retried onto the replacement — never the dead entry.
        assert (result.version, result.seq) == (2, 1)
        assert workspace.table("live").n_rows == 55
        workspace.close()

        replayed = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        assert replayed.state("live") == (2, 1)
        assert replayed.table("live").n_rows == 55
        replayed.close()
