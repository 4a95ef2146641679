"""Sketching demo: exact vs approximate insight computation at scale.

Section 3 of the paper motivates sketching with three claims:

* sketches estimate Pearson correlations accurately (">90% accuracy";
  this reproduction keeps co-moment sums instead of the paper's
  hyperplane signatures, so its correlations are exact),
* sketch-based preprocessing is faster than exact preprocessing
  ("3x-4x speedup in preprocessing"),
* insight queries answered from sketches run at interactive speed.

This example builds a 100 000-row synthetic table, preprocesses it into
sketches, and prints the accuracy and latency comparison, plus the memory
footprint of the sketches (32·|B|² bytes of them the co-moment sums).

Run with::

    python examples/sketching_demo.py         # ~1 minute
    python examples/sketching_demo.py --small # a few seconds
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import Foresight
from repro.core.engine import EngineConfig
from repro.data.datasets import make_numeric_table
from repro.sketch import SketchStoreConfig
from repro.stats import correlation_matrix, top_correlated_pairs
from repro.viz.ascii import render_table


def main(small: bool = False) -> None:
    n_rows = 20_000 if small else 100_000
    n_columns = 30 if small else 80
    table = make_numeric_table(
        n_rows=n_rows, n_columns=n_columns, block_correlation=0.75,
        missing_rate=0.02, seed=7,
    )
    print(f"Synthetic workload: {table.n_rows} rows x {table.n_columns} numeric columns "
          "(2% missing cells)")

    # --- preprocessing --------------------------------------------------------
    start = time.perf_counter()
    engine = Foresight(table, config=EngineConfig(sketch=SketchStoreConfig(seed=1)))
    preprocess_seconds = time.perf_counter() - start
    stats = engine.store.stats
    print(f"\nSketch preprocessing: {preprocess_seconds:.2f} s "
          f"(co-moment sums = {engine.store.comoments.memory_bytes() / 1024:.1f} KiB, "
          f"total sketch memory = {stats.total_sketch_bytes / 1024:.1f} KiB)")

    # --- exact baseline --------------------------------------------------------
    matrix, names = table.numeric_matrix()
    start = time.perf_counter()
    exact = correlation_matrix(matrix)
    exact_seconds = time.perf_counter() - start
    print(f"Exact all-pairs correlation over the raw data: {exact_seconds:.2f} s")

    # --- query latency ---------------------------------------------------------
    start = time.perf_counter()
    approx, ordered = engine.store.approx_correlation_matrix()
    sketch_query_seconds = time.perf_counter() - start
    print(f"All-pairs correlation from sketches only:       {sketch_query_seconds:.3f} s "
          f"({exact_seconds / max(sketch_query_seconds, 1e-9):.0f}x faster than exact)")

    # --- accuracy --------------------------------------------------------------
    index = {name: i for i, name in enumerate(names)}
    top_pairs = top_correlated_pairs(matrix, names, k=50)
    rows = []
    errors = []
    for x_name, y_name, exact_rho in top_pairs[:10]:
        estimate = approx[index[x_name], index[y_name]]
        errors.append(abs(estimate - exact_rho))
        rows.append({
            "pair": f"{x_name} / {y_name}",
            "exact": exact_rho,
            "sketch": float(estimate),
            "abs error": abs(estimate - exact_rho),
        })
    print("\nTop correlated pairs, exact vs sketch:")
    print(render_table(rows))
    # Accuracy, measured two ways: how well the sketch ranking recovers the
    # exact top-50 pairs (recall — what matters for a recommender), and how
    # close the estimates themselves are.
    exact_top = {frozenset((x, y)) for x, y, _ in top_pairs}
    estimated_ranking = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            estimated_ranking.append((ordered[i], ordered[j], float(approx[i, j])))
    estimated_ranking.sort(key=lambda p: -abs(p[2]))
    sketch_top = {frozenset((x, y)) for x, y, _ in estimated_ranking[:50]}
    recall = 100.0 * len(exact_top & sketch_top) / len(exact_top)
    all_errors = [
        abs(approx[index[x], index[y]] - rho) for x, y, rho in top_pairs
    ]
    print(f"\nTop-50 ranking recall (sketch vs exact): {recall:.0f}% "
          "(paper claims >90% accuracy)")
    print(f"Mean |error| of the sketch values on those pairs: {np.mean(all_errors):.2e}")

    # --- interactive insight queries -------------------------------------------
    print("\nInsight query latency from pre-built sketches:")
    rows = []
    for class_name in ("linear_relationship", "skew", "heavy_tails", "outliers",
                       "dispersion"):
        start = time.perf_counter()
        result = engine.query(class_name, top_k=5)
        elapsed = time.perf_counter() - start
        rows.append({
            "insight class": class_name,
            "latency (ms)": elapsed * 1000.0,
            "top attribute(s)": ", ".join(result.top().attributes) if result.insights else "-",
        })
    print(render_table(rows))


if __name__ == "__main__":
    main(small="--small" in sys.argv)
