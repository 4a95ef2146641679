"""The fixed-bucket duration histogram every timing surface shares.

One class serves the server's request-latency and coalesce-wait
distributions, the tracer's per-span-name durations and the cost
aggregator's per-request CPU distribution, so the ``/metrics`` JSON and
its Prometheus rendering read all of them through one schema.

Bucket bounds are fixed and logarithmic (1 ms … 10 s): percentile
estimates are stable across runs and cheap to compute — p50, p95 and
p99 are read off the cumulative bucket counts, reported as the upper
bound of the bucket containing the percentile (an upper-bound estimate,
exactly like Prometheus ``histogram_quantile``).  The exact observed
maximum is tracked alongside (a bucketed estimate alone undercounts the
tail: every outlier past the last bound would read as "10 s"), and
snapshots carry the bucket ``bounds`` so dashboards need not hard-code
them.

The histogram takes no lock: each owner mutates it under its own.
"""

from __future__ import annotations

from typing import Any

#: Upper bounds (seconds) of the latency histogram buckets.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates."""

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_max")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS):
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if seconds <= bound:
                index = i
                break
        self._counts[index] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    def quantile(self, q: float) -> float | None:
        """Upper-bound estimate of the q-quantile (None when empty)."""
        if self._count == 0:
            return None
        target = q * self._count
        cumulative = 0
        for i, bound in enumerate(self._bounds):
            cumulative += self._counts[i]
            if cumulative >= target:
                return bound
        return self._max

    def snapshot(self) -> dict[str, Any]:
        buckets = {
            f"le_{bound:g}": self._counts[i]
            for i, bound in enumerate(self._bounds)
        }
        buckets["le_inf"] = self._counts[-1]
        return {
            "count": self._count,
            "sum_seconds": self._sum,
            "max_seconds": self._max,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "bounds": list(self._bounds),
            "buckets": buckets,
        }


__all__ = ["LATENCY_BUCKETS", "LatencyHistogram"]
