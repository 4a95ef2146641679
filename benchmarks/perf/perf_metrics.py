"""Pure arithmetic of the benchmark: percentiles, spreads, comparisons.

Nothing here touches ``repro``, processes or clocks, so the harness test
can pin every rule down with hand-made numbers.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics section 1): with fewer, the figure is one
#: or two outliers, not a percentile.
MIN_SAMPLES_BEYOND = 10


def metric(value: float, unit: str) -> dict:
    """One measured value the way every output carries it."""
    return {"value": float(value), "unit": unit}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(samples: Sequence[float], q: float) -> int:
    """How many samples rank strictly above the nearest-rank q-th percentile."""
    return len(samples) - math.ceil(q / 100.0 * len(samples))


def tail_percentile(samples: Sequence[float], q: float = 95.0) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if not samples or samples_beyond(samples, q) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(samples, q)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def spread(values: Sequence[float]) -> float | None:
    """Inter-quartile distance as a share of the median (None under 2 values).

    The same arithmetic the driver applies to a set of runs:
    ``statistics.quantiles(values, n=4)`` gives the quartiles.
    """
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    if centre == 0:
        return None
    return (q3 - q1) / abs(centre)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
#: One recorded span: (span id, name, start, end, parent span id or None,
#: thread id, optional measured value such as a byte count).  The spans of
#: one op share their root: follow ``parent`` up to the span that has none.
Span = tuple
SPAN_KEYS = ("id", "name", "start", "end", "parent", "thread", "value")


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval
    its direct children cover; children are sequential on their parent's
    thread, so that part is the sum of their durations.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (span[3] - span[2])
    totals: dict[str, float] = {}
    for span in spans:
        own = (span[3] - span[2]) - child_time.get(span[0], 0.0)
        totals[span[1]] = totals.get(span[1], 0.0) + own
    return totals


def inclusive_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total duration per span name (children included)."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span[1]] = totals.get(span[1], 0.0) + (span[3] - span[2])
    return totals


def call_counts(spans: Iterable[Span]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        counts[span[1]] = counts.get(span[1], 0) + 1
    return counts


def value_sums(spans: Iterable[Span]) -> dict[str, float]:
    """Sum of the measured values (bytes, records) carried by spans."""
    sums: dict[str, float] = {}
    for span in spans:
        if span[6] is not None:
            sums[span[1]] = sums.get(span[1], 0.0) + span[6]
    return sums


# ---------------------------------------------------------------------------
# Comparing two sets of runs
# ---------------------------------------------------------------------------
#: Every end-to-end metric a run can report, and which way is better.
#: The first five are ``BENCHMARK.json``'s: every workload reports them.
#: The rest are reported where they apply and nowhere else.
BETTER = {
    "setup_s": "lower",
    "op_p50_ms": "lower",
    "ops_per_s": "higher",
    "peak_rss_mb": "lower",
    "topk_recall": "higher",
    "exact_read_p50_ms": "lower",
    "op_p95_ms": "lower",
    "rows_per_s": "higher",
    "reader_reads_per_s": "higher",
    "reader_read_p50_ms": "lower",
    "disk_bytes_per_row": "lower",
    "replica_catchup_p50_ms": "lower",
}

#: Runs a side needs before a median of them settles anything.
MIN_RUNS = 5
#: A pair's bound is ``2 x spread``, kept between ``BOUND_FLOOR`` and
#: ``MAX_BOUND``, the widest bound ``BENCHMARK.json`` may carry.  A pair
#: that scatters more than half of that is not let off with a wider
#: bound: its verdict is ``unresolved`` until a change breaches the cap.
BOUND_FLOOR = 0.05
MAX_BOUND = 0.25

REGRESSION = "REGRESSION"
UNRESOLVED = "unresolved"
UNCHANGED = "unchanged"
IMPROVED = "improved"
DIAGNOSTIC = "diagnostic"


def end_to_end_values(runs: Iterable[Mapping]
                      ) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over the untraced runs of a ledger."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run.get("trace"):
            continue
        per_metric = values.setdefault(run["workload"], {})
        for name, measured in run["metrics"].items():
            if name in BETTER:
                per_metric.setdefault(name, []).append(measured["value"])
    return values


def failed_share(runs: Iterable[Mapping], workload: str) -> float:
    """Failed or refused ops over attempted, across a workload's untraced runs."""
    mine = [run for run in runs
            if run["workload"] == workload and not run.get("trace")]
    return (sum(run["failed"] for run in mine)
            / sum(run["attempted"] for run in mine))


def pair_bounds(runs: Sequence[Mapping]) -> dict[str, dict[str, dict]]:
    """The baseline of every (workload, metric) pair a set of runs measured.

    ``median``, ``spread`` (inter-quartile over median) and ``runs``,
    with ``bound = 2 x spread`` kept within 5% and 25% — or ``None``, a
    diagnostic, when there are under five runs.
    """
    out: dict[str, dict[str, dict]] = {}
    for workload, per_metric in end_to_end_values(runs).items():
        for name, values in per_metric.items():
            scatter = spread(values)
            bound = None
            if len(values) >= MIN_RUNS and scatter is not None:
                bound = min(max(BOUND_FLOOR, 2 * scatter), MAX_BOUND)
            out.setdefault(workload, {})[name] = {
                "median": statistics.median(values),
                "spread": scatter,
                "runs": len(values),
                "better": BETTER[name],
                "bound": bound,
            }
    return out


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float | None,
) -> tuple[str, float]:
    """Judge one (metric, workload) pair; returns (verdict, signed worsening).

    The worsening is the change's median relative to the base's, signed
    so that positive is worse whichever direction ``better`` names.  A
    pair without a bound is a ``diagnostic``: shown, never judged.  A
    side with fewer than :data:`MIN_RUNS` runs, or whose run-to-run
    spread exceeds the bound, cannot be called unchanged or improved: it
    is ``unresolved`` unless the medians themselves breach the bound,
    which is a regression however few or noisy the runs were.
    """
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if base_median == 0:
        raise ValueError("base median is 0; the metric must never be 0")
    delta = (change_median - base_median) / abs(base_median)
    worse = delta if better == "lower" else -delta
    if bound is None:
        return DIAGNOSTIC, worse
    if worse > bound:
        return REGRESSION, worse
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    if (min(len(base), len(change)) < MIN_RUNS
            or (spreads and max(spreads) > bound)):
        return UNRESOLVED, worse
    if worse < -bound:
        return IMPROVED, worse
    return UNCHANGED, worse


def compare_runs(
    base_runs: Sequence[Mapping],
    change_runs: Sequence[Mapping],
    bounds: Mapping[str, Mapping[str, Mapping]],
) -> tuple[list[dict], bool]:
    """One row per workload, one cell per end-to-end metric measured there.

    ``*_runs`` are the ``runs`` lists of two ``--out`` files; ``bounds``
    is the ``end_to_end`` section of ``BASELINE.json`` (what
    :func:`pair_bounds` gave).  A pair the baseline does not know is a
    diagnostic.  More failed operations than the base is a regression
    whatever the timings say: a failed op misses every latency figure.
    Returns the rows and whether any cell is a regression.
    """
    base, change = end_to_end_values(base_runs), end_to_end_values(change_runs)
    rows = []
    regressed = False
    for workload in sorted(set(base) & set(change)):
        cells = {}
        for name, better in BETTER.items():
            a = base[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            bound = bounds.get(workload, {}).get(name, {}).get("bound")
            result, worse = verdict(a, b, better, bound)
            cells[name] = {"worse_by": worse, "verdict": result,
                           "bound": bound}
        before = failed_share(base_runs, workload)
        after = failed_share(change_runs, workload)
        cells["failed_share"] = {
            "worse_by": after - before, "bound": 0.0,
            "verdict": REGRESSION if after > before else UNCHANGED}
        regressed = regressed or any(
            cell["verdict"] == REGRESSION for cell in cells.values())
        rows.append({"workload": workload, "cells": cells})
    return rows, regressed
