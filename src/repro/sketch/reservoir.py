"""Reservoir sampling.

The paper's preprocessing step computes "sketches, samples, and indexes";
the sample is a uniform reservoir sample of the rows, used to render
scatter plots and histograms at interactive speed without touching the full
table, and to estimate metrics that have no dedicated sketch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SketchError


def reservoir_row_indices(n_rows: int, capacity: int, seed: int = 0) -> np.ndarray:
    """Uniformly sample up to ``capacity`` row indices from ``range(n_rows)``.

    Convenience used by the sketch store to materialise a row sample of a
    table without streaming row objects through a reservoir.
    """
    if capacity < 1:
        raise SketchError("capacity must be >= 1")
    rng = np.random.default_rng(seed)
    if n_rows <= capacity:
        return np.arange(n_rows)
    return np.sort(rng.choice(n_rows, size=capacity, replace=False))


def advance_row_indices(
    indices: np.ndarray,
    n_seen: int,
    n_new: int,
    capacity: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance a uniform row-index sample past ``n_new`` appended rows.

    ``indices`` is a uniform sample (without replacement) of
    ``range(n_seen)``; the returned array is a uniform sample of
    ``range(n_seen + n_new)`` obtained by running Vitter's algorithm R
    over the new row indices — each appended row ``i`` enters the sample
    with probability ``capacity / (i + 1)``, which is exactly the
    weighting that keeps the maintained sample uniform over the grown
    dataset.  The input array is not mutated; when no appended row enters
    the sample it is returned *itself*, so a caller can tell by identity
    that whatever it derived from the sampled rows still stands.
    """
    if capacity < 1:
        raise SketchError("capacity must be >= 1")
    # Rows that arrive while the sample is short of capacity all enter it.
    filling = min(n_new, max(capacity - len(indices), 0))
    sample = np.concatenate([
        np.asarray(indices, dtype=np.int64),
        np.arange(n_seen, n_seen + filling, dtype=np.int64),
    ])
    untouched = filling == 0
    for global_index in range(n_seen + filling, n_seen + n_new):
        j = int(rng.integers(0, global_index + 1))
        if j < capacity:
            sample[j] = global_index
            untouched = False
    return indices if untouched else np.sort(sample)

