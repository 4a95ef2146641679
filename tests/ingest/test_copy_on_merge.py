"""Copy-on-merge isolation, and hash-seed independence of every sketch answer.

``merge_delta`` folds delta partials into ``copy()``s of the live store's
sketches.  The first test pins what "copy" has to mean for the flat
sketch representations: no array, dict, set or nested accumulator of a
merged sketch aliases the old store's, the old store answers exactly what
it answered before, and bundles no partial touched are not copied at all.

The second runs this file as a script in two interpreters with different
``PYTHONHASHSEED``s.  Each builds the same string-heavy table through a
``Workspace``, appends the same batches and prints every sketch-backed
answer; the two outputs must be equal byte for byte, because a replica or
a restarted primary is exactly that — another interpreter, another string
hash salt.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from repro import Workspace
from repro.data.datasets import make_mixed_table
from repro.data.table import DataTable
from repro.ingest import DeltaBatch, build_delta_partials, merge_delta
from repro.sketch.store import ColumnSketches, SketchStore


def sketch_answers(store: SketchStore) -> dict[str, list]:
    """Every ``approx_*`` answer the store can give, column by column."""
    answers: dict[str, list] = {}
    for name, bundle in sorted(store.column_map().items()):
        column: list = []
        if bundle.moments is not None:
            column += [store.approx_mean(name), store.approx_variance(name),
                       store.approx_std(name), store.approx_skewness(name),
                       store.approx_kurtosis(name)]
        if bundle.quantiles is not None:
            column += [bundle.quantiles.quantile(q) for q in (0.0, 0.1, 0.5, 0.9, 1.0)]
            column += [bundle.quantiles.iqr(), bundle.quantiles.five_number_summary(),
                       store.approx_outlier_strength(name)]
        if bundle.frequent is not None:
            top = store.approx_top_values(name, 8)
            column += [top, store.approx_relative_frequency_topk(name, 3)]
        answers[name] = column
    answers["correlations"] = store.approx_correlation_matrix()[0].tolist()
    return answers


def _mutable_state(owner) -> list:
    """Every array, dict, set and nested accumulator reachable from a
    bundle's mergeable sketches (or from one sketch)."""
    if isinstance(owner, ColumnSketches):
        values = [getattr(owner, attribute) for attribute in owner.MERGEABLE]
    else:
        values = list(vars(owner).values())
    found = []
    for value in values:
        if isinstance(value, (np.ndarray, dict, set)):
            found.append(value)
        elif hasattr(value, "__dict__"):
            found += [value, *_mutable_state(value)]
    return found


def _aliased(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.shares_memory(a, b)
    return a is b


def test_merge_delta_copies_what_it_merges_and_shares_the_rest():
    base_table = make_mixed_table(n_rows=500, n_numeric=5, n_categorical=2, seed=9)
    rows = make_mixed_table(n_rows=120, n_numeric=5, n_categorical=2,
                            seed=10).to_records()
    delta_table = DeltaBatch.from_records("d", rows, base_table.schema).table
    store = SketchStore(base_table)
    before = json.dumps(sketch_answers(store))

    grown = base_table.concat(delta_table)
    (partials,) = build_delta_partials(grown, store, [delta_table.n_rows])
    untouched = sorted(partials.columns)[:2]
    for name in untouched:
        del partials.columns[name]
    merged = merge_delta(store, grown, [(delta_table.n_rows, partials)])

    assert json.dumps(sketch_answers(store)) == before
    assert json.dumps(sketch_answers(merged)) != before
    for name in untouched:
        assert merged.column_sketches(name) is store.column_sketches(name)
    checked = 0
    for name in partials.columns:
        old, new = store.column_sketches(name), merged.column_sketches(name)
        assert new is not old
        for mine in _mutable_state(new):
            for theirs in _mutable_state(old) + _mutable_state(partials.columns[name]):
                assert not _aliased(mine, theirs)
                checked += isinstance(mine, np.ndarray) and isinstance(theirs, np.ndarray)
    assert checked  # the quantile summaries were compared
    sums = ("count", "total", "square", "cross")
    for mine in (getattr(merged.comoments, field) for field in sums):
        for owner in (store.comoments, partials.comoments):
            assert not any(_aliased(mine, getattr(owner, field)) for field in sums)


def _string_heavy_rows(seed: int, n_rows: int) -> list[dict]:
    """Rows with a 600-label column (above every counter capacity), a
    skewed 30-label one, a discrete numeric and a continuous one."""
    rng = np.random.default_rng(seed)
    wide = rng.integers(0, 600, size=n_rows)
    skewed = np.minimum(rng.geometric(0.15, size=n_rows), 30)
    return [
        {"wide": f"user-{wide[i]:03d}", "skewed": f"tag {skewed[i]}",
         "level": float(rng.integers(0, 7)), "amount": float(rng.normal())}
        for i in range(n_rows)
    ]


def _answers_after_appends() -> str:
    workspace = Workspace()
    try:
        workspace.register("d", DataTable.from_records(_string_heavy_rows(0, 3000)))
        workspace.engine("d")
        for batch in range(1, 9):
            workspace.append("d", _string_heavy_rows(batch, 7 * batch))
        return json.dumps(sketch_answers(workspace.engine("d").store), sort_keys=True)
    finally:
        workspace.close()


def test_sketch_answers_do_not_depend_on_the_string_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    answers = json.loads(outputs[0])
    # The 600-label column, above the frequent-items capacity.
    assert 0.0 < answers["wide"][-1] <= 1.0


if __name__ == "__main__":
    print(_answers_after_appends())
