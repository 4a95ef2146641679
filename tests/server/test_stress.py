"""Concurrency stress: server responses == direct Workspace.handle output.

Many client threads hammer one coalescing server with a shared request
mix (repeats included, so cache hits, coalesced batches and admission
queueing all engage at once).  Every response must match the output of a
direct ``Workspace.handle`` call on an identically-registered reference
workspace, byte for byte (volatile timing/provenance excluded — see
``stable_payload``).
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.obs import ObsConfig
from repro.service import InsightRequest, Workspace
from repro.server import ReproClient, ServerConfig, serving

from tests.server.conftest import stable_payload

N_THREADS = 8
ROUNDS = 3


def _request_mix() -> list[InsightRequest]:
    return [
        InsightRequest(dataset="demo", insight_classes=("skew",), top_k=3),
        InsightRequest(dataset="demo", insight_classes=("outliers",), top_k=2),
        InsightRequest(dataset="demo",
                       insight_classes=("dispersion", "heavy_tails"), top_k=4),
        InsightRequest(dataset="demo", insight_classes=("skew", "outliers"),
                       top_k=5, mode="exact"),
        InsightRequest(dataset="demo", insight_classes=("normality",), top_k=3,
                       metric_min=0.0),
    ]


def test_stress_responses_identical_to_direct_handle(server_table):
    requests = _request_mix()
    reference = Workspace()
    reference.register("demo", lambda: server_table)
    expected = [stable_payload(reference.handle(r)) for r in requests]

    # A trace ring that keeps every request, to tell where each was
    # answered.
    server_workspace = Workspace(obs=ObsConfig(ring_capacity=4096))
    server_workspace.register("demo", lambda: server_table)
    server_workspace.engine("demo")
    config = ServerConfig(
        port=0, coalesce_window=0.01, coalesce_max_batch=8,
        max_in_flight=4, queue_limit=64,
    )
    failures: list[str] = []
    barrier = threading.Barrier(N_THREADS)

    with serving(server_workspace, config) as handle:
        def hammer(thread_index: int) -> None:
            with ReproClient(*handle.address, timeout=60) as client:
                barrier.wait()
                for round_index in range(ROUNDS):
                    # Stagger the mix per thread so concurrent traffic is
                    # a blend of distinct and identical requests.
                    offset = (thread_index + round_index) % len(requests)
                    for step in range(len(requests)):
                        index = (offset + step) % len(requests)
                        response = client.insights(requests[index])
                        got = stable_payload(response)
                        if got != expected[index]:
                            failures.append(
                                f"thread {thread_index} round {round_index} "
                                f"request {index} diverged"
                            )

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ReproClient(*handle.address) as client:
            metrics = client.metrics()
        # Where each request was answered, and each cache lookup's
        # outcome by where it ran: the loop (under the request's root) or
        # a coalesced batch.
        tracer = server_workspace.tracer
        answered, lookups = Counter(), Counter()
        for summary in tracer.traces():
            root = tracer.trace(summary["trace_id"])["root"]
            if root["attributes"].get("endpoint", "insights") != "insights":
                continue
            if root["name"] == "request":
                answered[root["attributes"]["answered"]] += 1
            for span in _spans(root):
                if span["name"] == "workspace.handle":
                    lookups[root["name"], span["attributes"]["cache"]] += 1

    assert not failures, failures[:5]
    total = N_THREADS * ROUNDS * len(requests)
    server = metrics["server"]
    assert server["requests"]["by_endpoint"]["insights"] == total
    assert server["responses"]["by_status"]["200"] == total
    # Every request is one cache lookup that counted: answered on the
    # loop (a hit at arrival, or a miss the snapshot's index already
    # scored) or coalesced.  Fast hits cannot miss, and the first arrival
    # of each key must; two arrivals of a still-cold key share a batch,
    # where the second hits on the worker.
    coalesced = server["coalesce"]["coalesced_requests"]
    fast_hits = server["coalesce"]["fast_hits"]
    warm_misses = lookups["request", "miss"]
    cache = metrics["workspace"]["cache"]
    assert answered["coalescer"] == coalesced
    assert answered["loop"] + answered["coalescer"] == total
    assert lookups["request", "hit"] == fast_hits
    assert answered["loop"] - fast_hits == warm_misses
    assert (lookups["coalesce.batch", "hit"]
            + lookups["coalesce.batch", "miss"]) == coalesced
    assert cache["hits"] + cache["misses"] == total
    assert cache["misses"] == warm_misses + lookups["coalesce.batch", "miss"]
    assert len(requests) <= cache["misses"] <= coalesced + warm_misses
    assert server["coalesce"]["direct_requests"] == 0
    admission = metrics["admission"]
    assert admission["admitted_total"] == total
    assert admission["in_flight"] == 0
    # Coalescer-aware admission: every arrival parks — a fast hit for the
    # moment of its lookup, a rider without holding a slot while its
    # batch, which takes one, runs — so 8 clients through 4 slots are
    # never rejected and never exceed the cap.
    assert admission["parked_total"] >= total
    assert admission["batches_dispatched_total"] >= 1
    assert admission["peak_in_flight"] <= config.max_in_flight
    assert admission["rejected_quota_total"] == 0
    assert admission["rejected_overload_total"] == 0
    # One engine, however many threads raced on it.
    assert metrics["workspace"]["engine_builds"] == 1


def _spans(node):
    yield node
    for child in node.get("children", ()):
        yield from _spans(child)
