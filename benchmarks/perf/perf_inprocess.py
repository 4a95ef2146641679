"""The traced run: the same generated inputs, in-process, single-threaded.

:data:`REPLAYS` drive ``Workspace`` directly through its public API —
``handle_json`` for reads, ``append`` for writes, a fresh
``Workspace(data_dir=...)`` / ``ReplicaWorkspace`` for recovery — with
the shipped default configuration, exactly as ``serve.py`` builds it.
Each runs twice per traced run: once under :mod:`perf_tracing`'s wrappers
(the per-layer numbers) and once bare (so the traced numbers carry
their own error bar, ``bench.trace_overhead_share``).

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics.  An ``_ms`` figure is *self time per end-to-end op*: the total
self time of the layer's spans on the replaying thread inside the
measured window, divided by the ops replayed in it — the steps that
block the op.  A wrapped callable the window never reached spent no
time: that is a measured 0, not a gap.  Each layer's self times add up
to its total (:data:`LAYER_TOTALS`), and the totals to the op.  Three
kinds of figure stand outside that sum: the four pipeline stages and
the per-class ``score_all`` spans, reported inclusive because "what
does the score stage cost" is the question a stage budget answers;
and work that runs beside the op or before the window (a sketch build,
a background rebuild, a snapshot encode), reported per call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import InsightResponse, Workspace, default_registry
from repro.service.replica import LocalFeedSource, ReplicaWorkspace

import perf_workloads as wl
from perf_loadgen import (
    COUNT_ROUNDS, WARM_UP, EndToEnd, WrongAnswer, answer_of, check_same,
)
from perf_metrics import (
    call_counts, inclusive_times, median, metric, self_times, value_sums,
)
from perf_table import DATASET
from perf_tracing import STATS_MODULES


@dataclass
class Replay:
    """What one in-process replay measured."""

    ops: int = 0
    #: Reads among the ops (an ingest/recover op also holds writes).
    reads: int = 0
    rows: int = 0
    elapsed: float = 0.0
    #: Time spent inside the program's calls (the rest of ``elapsed`` is
    #: the harness generating inputs and checking answers).
    busy: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    #: ``(start, end)`` of the first COUNT_ROUNDS rounds, and their reads.
    count_window: tuple[float, float] = (0.0, 0.0)
    count_reads: int = 0
    #: Latencies (seconds) of the op the end-to-end client also times:
    #: the read, the append, the restart.
    latencies: list[float] = field(default_factory=list)
    #: Reference answers in stream order (compared with the live server's).
    answers: list[tuple] = field(default_factory=list)
    #: The replaying thread (background rebuilds record spans on others).
    thread: int = field(default_factory=threading.get_ident)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed


def _rounds(replay: Replay, rounds: Iterable[Callable[[], None]],
            seconds: float, at_least: int = COUNT_ROUNDS) -> None:
    """Whole rounds until ``seconds`` have passed (``at_least`` of them)."""
    clock = time.perf_counter
    started = clock()
    for index, run_round in enumerate(rounds):
        run_round()
        if index + 1 == COUNT_ROUNDS:
            replay.count_window = (started, clock())
            replay.count_reads = replay.reads
        if index + 1 >= at_least and clock() - started >= seconds:
            break
    ended = clock()
    replay.window = (started, ended)
    replay.elapsed = ended - started


def _read(replay: Replay, workspace: Workspace, request,
          timed: bool = True) -> InsightResponse:
    """One read through the JSON-in / JSON-out adapter a transport uses."""
    body = request.to_json()
    started = time.perf_counter()
    text = workspace.handle_json(body)
    elapsed = time.perf_counter() - started
    replay.busy += elapsed
    if timed:
        replay.latencies.append(elapsed)
    replay.reads += 1
    # Not from_json: that is a wrapped target (the cache-hit rehydrate),
    # and the harness's own decoding must not be billed to it.
    return InsightResponse.from_dict(json.loads(text))


def _serving_workspace(table) -> Workspace:
    workspace = Workspace()
    workspace.register(DATASET, table)
    workspace.engine(DATASET)
    return workspace


def _explore_cold(seed: int, sizes: wl.Sizes, seconds: float, _workdir: Path,
                  _live: EndToEnd) -> Replay:
    table = wl.explore_table(seed, sizes)
    workspace = _serving_workspace(table)
    replay = Replay()
    try:
        workspace.handle_json(WARM_UP.to_json())

        def read_round(index: int, requests) -> Callable[[], None]:
            def run() -> None:
                for request in requests:
                    response = _read(replay, workspace, request)
                    if index == 0:
                        replay.answers.append(answer_of(response))
                replay.ops = replay.reads
            return run

        _rounds(replay, (read_round(i, r) for i, r in
                         enumerate(wl.explore_rounds(seed, table))), seconds)
    finally:
        workspace.close()
    return replay


def _serve_cached(seed: int, sizes: wl.Sizes, seconds: float, _workdir: Path,
                  _live: EndToEnd) -> Replay:
    table = wl.explore_table(seed, sizes)
    workspace = _serving_workspace(table)
    pool = wl.cached_pool(seed, table, sizes.pool)
    replay = Replay()
    try:
        for request in pool:
            replay.answers.append(
                answer_of(_read(replay, workspace, request, timed=False)))
        replay.reads, replay.busy = 0, 0.0

        def cached_round(picks) -> Callable[[], None]:
            def run() -> None:
                for pick in picks:
                    response = _read(replay, workspace, pool[pick])
                    check_same(replay.answers[pick], response,
                               f"in-process cached read of pool[{pick}]")
                replay.ops = replay.reads
            return run

        stream = wl.zipf_rounds(seed, 0, len(pool), sizes.cached_round)
        _rounds(replay, (cached_round(picks) for picks in stream), seconds)
    finally:
        workspace.close()
    return replay


def _ingest_live(seed: int, sizes: wl.Sizes, seconds: float, workdir: Path,
                 live: EndToEnd) -> Replay:
    """One op = one cycle of appends plus the reads that went with it.

    How many reads is not chosen here: it is ``live.reads_per_op``, what
    the reader completed per writer op when the two shared the server a
    moment ago.  The reader's first request goes out with the writer's
    first op, the rest as the share accumulates.
    """
    table = wl.ingest_table(seed, sizes)
    data_dir = workdir / f"inprocess-{time.monotonic_ns()}"
    workspace = Workspace(data_dir=str(data_dir))
    replay = Replay()
    try:
        workspace.register(DATASET, table)
        workspace.engine(DATASET)
        reads = itertools.cycle(wl.reader_requests(table))
        batches = wl.batch_rounds(seed, sizes)
        # The same warm-up as the end-to-end run: past the first rebuild.
        while not workspace.ingest_stats()["totals"]["bg_rebuilds"]:
            for batch in next(batches):
                workspace.append(DATASET, batch)
                workspace.wait_for_rebuilds()

        owed = 1.0

        def write_round(round_batches) -> Callable[[], None]:
            def run() -> None:
                nonlocal owed
                started = time.perf_counter()
                for batch in round_batches:
                    workspace.append(DATASET, batch)
                    replay.rows += len(batch)
                replay.latencies.append(time.perf_counter() - started)
                replay.busy += replay.latencies[-1]
                replay.ops += 1
                while owed >= 1.0:
                    _read(replay, workspace, next(reads), timed=False)
                    owed -= 1.0
                owed += live.reads_per_op
            return run

        _rounds(replay, (write_round(r) for r in batches), seconds)
        workspace.wait_for_rebuilds()
    finally:
        workspace.close()
    return replay


def _recover(_seed: int, _sizes: wl.Sizes, seconds: float, _workdir: Path,
             live: EndToEnd) -> Replay:
    """One op = one restart plus one replica catch-up, each to the answer
    the live server gave before the SIGKILL."""
    crashed = live.crashed
    if crashed is None:
        raise ValueError("recover replays the directory the end-to-end phase crashed")
    probe, answer = crashed.probes[0], crashed.answers[0]
    replay = Replay()

    def first_answer(workspace: Workspace, what: str) -> None:
        try:
            if isinstance(workspace, ReplicaWorkspace):
                workspace.sync()
                if workspace.replica_lag().get(DATASET) != 0:
                    raise WrongAnswer(f"{what}: lag {workspace.replica_lag()}")
            response = workspace.handle(probe)
            replay.reads += 1
            check_same(answer, response, what)
        finally:
            workspace.close()

    def one_op() -> None:
        started = time.perf_counter()
        first_answer(Workspace(data_dir=str(crashed.path)),
                     "in-process restart")
        replay.latencies.append(time.perf_counter() - started)
        first_answer(ReplicaWorkspace(LocalFeedSource(str(crashed.path))),
                     "in-process replica")
        replay.busy += time.perf_counter() - started
        replay.ops += 1

    _rounds(replay, itertools.repeat(one_op), seconds, at_least=1)
    return replay


#: ``workload -> replay(seed, sizes, seconds, workdir, live)``.
REPLAYS = {
    "explore_cold": _explore_cold,
    "serve_cached": _serve_cached,
    "ingest_live": _ingest_live,
    "recover": _recover,
}


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------
#: ``metric name -> span name`` for the plain self-time-per-op metrics.
_SELF_MS = {
    "service.handle_ms": "service.handle",
    "service.cache_ms": "service.cache",
    "service.dto.decode_ms": "service.dto.decode",
    "service.dto.encode_ms": "service.dto.encode",
    "service.append_ms": "service.append",
    "service.replica.sync_ms": "service.replica.sync",
    "sketch.probe_ms": "sketch.probe",
    "sketch.merge_ms": "sketch.merge",
    "ingest.validate_ms": "ingest.validate",
    "ingest.delta_partials_ms": "ingest.delta_partials",
    "ingest.merge_delta_ms": "ingest.merge_delta",
    "ingest.journal.fsync_ms": "ingest.journal.fsync",
    "ingest.journal.load_ms": "ingest.journal.load",
    "ingest.snapshot.decode_ms": "ingest.snapshot.decode",
    "data.concat_ms": "data.concat",
    "data.take_ms": "data.take",
}
#: ``layer -> the metric carrying all of the layer's self time per op``
#: (replication has one span, so its one metric is its total).  These
#: add up to the op: ``bench.accounted_share`` is their sum over the
#: time the replay spent inside the program's calls.
LAYER_TOTALS = {
    "service": "service.self_ms",
    "core": "core.self_ms",
    "stats": "stats.total_ms",
    "sketch": "sketch.self_ms",
    "ingest": "ingest.self_ms",
    "data": "data.self_ms",
    "replication": "replication.feed.poll_ms",
}
_STAGES = ("plan", "enumerate", "score", "rank")


def _per_call(spans: list[tuple], name: str) -> tuple[float, float] | None:
    """Mean duration (ms) and mean carried value of the spans called ``name``."""
    found = [s for s in spans if s[1] == name]
    if not found:
        return None
    return (1e3 * sum(s[3] - s[2] for s in found) / len(found),
            sum(s[6] or 0.0 for s in found) / len(found))


def layer_metrics(spans: list[tuple], all_spans: list[tuple], traced: Replay
                  ) -> dict[str, dict[str, Any]]:
    """Per-layer metrics from the spans of the measured window.

    ``spans`` are the window's, ``all_spans`` the whole session's (the
    set-up sketch build lies before the window).  Every wrapper was
    installed, so a name without spans cost 0 ms; only a ratio whose
    base is empty (bytes per row without rows) is left out.
    """
    fore = [s for s in spans if s[5] == traced.thread]
    own = self_times(fore)
    whole = inclusive_times(fore)
    calls = call_counts(fore)
    ops = traced.ops
    out: dict[str, dict[str, Any]] = {}

    def per_op(seconds: float) -> dict[str, Any]:
        return metric(1e3 * seconds / ops, "ms")

    for name, span in _SELF_MS.items():
        out[name] = per_op(own.get(span, 0.0))
    for layer, name in LAYER_TOTALS.items():
        out[name] = per_op(sum(seconds for span, seconds in own.items()
                               if span.startswith(f"{layer}.")))
    for stage in _STAGES:
        out[f"core.{stage}_ms"] = per_op(whole.get(f"core.{stage}", 0.0))
    for name in default_registry().names():
        out[f"core.score.by_class.{name}_ms"] = per_op(
            whole.get(f"core.score.by_class.{name}", 0.0))
    for module in STATS_MODULES:
        out[f"stats.by_module.{module}_ms"] = per_op(
            own.get(f"stats.{module}", 0.0))
    # The journal's own time excludes the fsync it waits on; a replay's
    # includes the per-record machine it drives.
    out["ingest.journal.append_ms"] = per_op(
        own.get("ingest.journal.append", 0.0)
        + own.get("ingest.journal.encode", 0.0))
    out["ingest.replay_ms"] = per_op(
        own.get("ingest.replay", 0.0) + own.get("ingest.replay.apply", 0.0))
    out["ingest.replay.records"] = metric(
        calls.get("ingest.replay.apply", 0) / ops, "count")

    if traced.count_reads:
        start, end = traced.count_window
        counted = call_counts(s for s in fore if start <= s[2] <= end)
        out["sketch.probe.calls_per_read"] = metric(
            counted.get("sketch.probe", 0) / traced.count_reads, "count")
        out["sketch.sample_table.calls_per_read"] = metric(
            counted.get("sketch.sample_table", 0) / traced.count_reads, "count")
    appends = {s[0] for s in fore if s[1] == "ingest.journal.append"}
    if appends:
        # Only the fsyncs an append itself waits on: a background
        # rebuild's snapshot fsyncs land whenever its thread gets there.
        out["ingest.journal.fsyncs_per_append"] = metric(
            sum(1 for s in fore if s[1] == "ingest.journal.fsync"
                and s[4] in appends) / len(appends), "count")
        if traced.rows:
            out["ingest.journal.bytes_per_row"] = metric(
                value_sums(fore).get("ingest.journal.encode", 0.0)
                / traced.rows, "bytes")

    # Beside the op or before the window: per call, any thread.
    build = _per_call(all_spans, "sketch.build")
    if build:
        out["sketch.build_ms"] = metric(build[0], "ms")
    rebuild = _per_call(all_spans, "ingest.rebuild")
    if rebuild:
        out["ingest.rebuild_ms"] = metric(rebuild[0], "ms")
    encode = _per_call(all_spans, "ingest.snapshot.encode")
    if encode:
        out["ingest.snapshot.encode_ms"] = metric(encode[0], "ms")
        out["ingest.snapshot.bytes"] = metric(encode[1], "bytes")
    return out


def accounted_share(metrics: dict[str, dict[str, Any]], traced: Replay) -> float:
    """The reported layer totals over the in-process time of an op.

    Self times of one span tree add up to its root, so what this falls
    short of 1 by is time the replay spent in the program outside every
    wrapped callable — or a span whose layer reports no total.
    """
    layers = sum(metrics[name]["value"] for name in LAYER_TOTALS.values())
    return layers / (1e3 * traced.busy / traced.ops)


def transport_ms(http_latencies: list[float], bare: Replay) -> dict[str, Any]:
    """HTTP round-trip p50 minus the in-process p50 on the same inputs."""
    return metric(
        1e3 * (median(http_latencies) - median(bare.latencies)), "ms")
