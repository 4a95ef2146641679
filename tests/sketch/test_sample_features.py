"""The once-only properties of the scoring kernels' inputs.

* The sample features are derived once per *store* — one published
  snapshot — however many cold reads score on it, and the store an append
  publishes derives its own: the memo is per snapshot, not per process.
* Unless the append left the sample as it was (no sampled row replaced, no
  categorical level added): then the new snapshot is handed the old one's.
* The serving path — import, durable restart, reads of every default
  class in both modes — never imports ``scipy``, which cost every server,
  builder and replica process ≈ 150 ms of start-up and ≈ 19 MiB.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from repro import InsightRequest, Workspace, default_registry
from repro.core.engine import EngineConfig
from repro.core.insight import EvaluationContext
from repro.data.datasets import make_mixed_table
from repro.data.table import DataTable
from repro.obs.resources import CostRecorder, attach_recorder
from repro.sketch import features as features_module
from repro.sketch.reservoir import advance_row_indices
from repro.sketch.store import SketchStore, SketchStoreConfig

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cold_reads_derive_the_sample_features_once_per_snapshot(monkeypatch):
    table = make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=4)
    workspace = Workspace()
    workspace.register("mixed", table)
    workspace.engine("mixed")
    takes = _count_calls(monkeypatch, DataTable, "take")
    ranked = _count_calls(monkeypatch, features_module, "average_ranks")

    def read(top_k: int) -> None:
        response = workspace.handle(InsightRequest(
            dataset="mixed", top_k=top_k, insight_classes=(
                "monotonic_relationship", "dependence", "segmentation",
                "normality", "multimodality", "outliers")))
        assert response.provenance["cache"] == "miss"

    read(2)
    assert len(takes) == 1  # the sample, taken by its first reader
    assert len(ranked) == 4  # one rank vector per numeric column
    read(3)  # a different key: a second cold read on the same store
    assert len(takes) == 1 and len(ranked) == 4

    store = workspace.engine("mixed").store
    workspace.append("mixed", table.to_records()[:5])
    assert workspace.engine("mixed").store is not store  # a new snapshot
    read(2)
    assert len(takes) == 2 and len(ranked) == 8


def test_an_append_that_leaves_the_sample_untouched_keeps_what_was_derived(
        monkeypatch):
    table = make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=4)
    rows = table.to_records()
    workspace = Workspace()
    # A 40-slot sample of 300 rows: a 1-row append replaces a slot with
    # probability 40/301, a 200-row append all but surely.
    workspace.register("mixed", table, engine_config=EngineConfig(
        sketch=SketchStoreConfig(sample_capacity=40)))

    def read(top_k: int) -> None:
        response = workspace.handle(InsightRequest(
            dataset="mixed", top_k=top_k, insight_classes=(
                "monotonic_relationship", "dependence", "segmentation",
                "normality", "multimodality", "outliers")))
        assert response.provenance["cache"] == "miss"

    def rows_billed_by_scoring(store: SketchStore) -> int:
        monotonic = default_registry().get("monotonic_relationship")
        recorder = CostRecorder()
        with attach_recorder(recorder):
            monotonic.score_all(list(monotonic.candidates(store.table)),
                                EvaluationContext(store.table, store))
        return recorder.rows_scanned

    read(2)
    first = workspace.engine("mixed").store
    takes = _count_calls(monkeypatch, DataTable, "take")
    ranked = _count_calls(monkeypatch, features_module, "average_ranks")

    workspace.append("mixed", rows[:1])
    kept = workspace.engine("mixed").store
    assert kept is not first
    assert kept.sample_indices is first.sample_indices  # no slot replaced
    read(2)  # a cold read on the new snapshot: nothing to derive
    assert len(takes) == 0 and len(ranked) == 0
    assert kept.sample_features() is first.sample_features()
    assert rows_billed_by_scoring(kept) == 0

    workspace.append("mixed", rows[:200])
    moved = workspace.engine("mixed").store
    assert moved.sample_indices is not kept.sample_indices
    read(2)
    assert len(takes) == 1 and len(ranked) == 4
    assert moved.sample_features() is not kept.sample_features()


def test_a_new_categorical_level_makes_the_next_snapshot_derive_its_own():
    # The sampled rows are the same rows, but a sampled categorical column
    # carries its table's whole level list (``n_groups`` is answered from
    # it), and a restart would derive the sample from the grown list.
    table = make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=4)
    workspace = Workspace()
    workspace.register("mixed", table, engine_config=EngineConfig(
        sketch=SketchStoreConfig(sample_capacity=40)))
    first = workspace.engine("mixed").store
    first.sample_features()
    row = dict(table.to_records()[0], cat_00="a level never seen")
    workspace.append("mixed", [row])
    grown = workspace.engine("mixed").store
    assert grown.sample_indices is first.sample_indices  # same rows, and yet
    assert grown.sample_table() is not first.sample_table()
    levels = grown.table.categorical_column("cat_00").n_categories()
    assert levels == first.table.categorical_column("cat_00").n_categories() + 1
    assert grown.sample_table().categorical_column("cat_00").n_categories() == levels


def test_advancing_the_sample_draws_what_the_list_walk_drew():
    def reference(indices, n_seen, n_new, capacity, rng):
        sample = list(indices)
        for offset in range(n_new):
            global_index = n_seen + offset
            if len(sample) < capacity:
                sample.append(global_index)
                continue
            j = int(rng.integers(0, global_index + 1))
            if j < capacity:
                sample[j] = global_index
        return sorted(sample)

    untouched = 0
    for capacity, n_seen, n_new in [(8, 5, 2), (8, 5, 3), (8, 5, 40), (8, 8, 1),
                                    (8, 200, 1), (8, 200, 64), (50, 4000, 16),
                                    (50, 4000, 1), (50, 4001, 1), (50, 4002, 1)]:
        start = np.sort(np.random.default_rng(n_seen).choice(
            n_seen, size=min(capacity, n_seen), replace=False))
        before = start.copy()
        advanced = advance_row_indices(
            start, n_seen, n_new, capacity, np.random.default_rng([3, n_seen]))
        assert advanced.tolist() == reference(
            before.tolist(), n_seen, n_new, capacity,
            np.random.default_rng([3, n_seen]))
        assert np.array_equal(start, before)  # the input is never written
        # The input itself comes back exactly when nothing entered the sample.
        assert (advanced is start) == (advanced.tolist() == before.tolist())
        untouched += advanced is start
    assert untouched  # the identity branch was exercised


def test_feature_derivation_bills_the_sample_rows_once():
    table = make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=4)
    store = SketchStore(table)
    context = EvaluationContext(table, store)
    monotonic = default_registry().get("monotonic_relationship")
    candidates = list(monotonic.candidates(table))
    first, second = CostRecorder(), CostRecorder()
    with attach_recorder(first):
        monotonic.score_all(candidates, context)
    with attach_recorder(second):
        monotonic.score_all(candidates[:2], context)
    assert first.rows_scanned == store.sample_table().n_rows
    assert second.rows_scanned == 0


#: Run in a fresh interpreter whose import system refuses ``scipy``: the
#: whole serving path — import, durable register with a holey and a
#: constant column, append, restart and replay, a sketch-mode and an
#: exact-mode read of every default class, the demo dataset — and every
#: refused import (even one a ``try``/``except`` swallowed) is reported.
_WITHOUT_SCIPY = r"""
import sys
import tempfile

refused = []


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ImportError(f"{name} is not part of the runtime")
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np
import repro
import repro.server
from repro import InsightRequest, Workspace, default_registry
from repro.data.datasets import load_oecd
from repro.data.table import DataTable

rows = [{"x": float(i % 7) if i % 5 else None, "flat": 3.0,
         "y": float((i * 37) % 101), "g": "ab"[i % 2]} for i in range(120)]
classes = tuple(default_registry().names())
with tempfile.TemporaryDirectory() as data_dir:
    workspace = Workspace(data_dir=data_dir)
    workspace.register("d", DataTable.from_records(rows[:100]))
    workspace.append("d", rows[100:])
    workspace.close()
    workspace = Workspace(data_dir=data_dir)
    for mode in ("approximate", "exact"):
        response = workspace.handle(InsightRequest(
            dataset="d", insight_classes=classes, top_k=3, mode=mode))
        answered = {c["insight_class"] for c in response.carousels}
        assert "normality" in answered, (mode, answered)
    workspace.close()
assert load_oecd().n_rows == 35
print("refused:", ",".join(refused))
sys.exit(1 if refused else 0)
"""


def test_the_serving_path_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(SRC), os.environ.get("PYTHONPATH")])))
    finished = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                              capture_output=True, text=True, timeout=120)
    assert finished.returncode == 0, finished.stdout + finished.stderr
