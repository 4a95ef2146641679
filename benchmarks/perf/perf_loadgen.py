"""The end-to-end run: the program in a subprocess, driven over sockets.

One load-generator process, at most ``nproc`` keep-alive connections,
closed loop (each caller waits for its reply before sending the next
request).  Every reply is checked; a wrong answer aborts the run with
:class:`WrongAnswer` before any metric is computed.

Each workload function returns an :class:`EndToEnd` holding the
client-observed end-to-end metrics — the four every workload reports and
the ones particular to it — and the per-layer counters read from the
server's public ``/metrics`` document.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro import InsightRequest, InsightResponse
from repro.replication import HttpFeedSource
from repro.server import ReproClient
from repro.service.replica import ReplicaWorkspace

import perf_workloads as wl
from perf_metrics import median, metric, tail_percentile
from perf_table import DATASET, save_table

SERVE = Path(__file__).resolve().with_name("serve.py")

#: Rounds the exactly-repeating counters are taken over: the first ones,
#: so the figure does not depend on how many rounds the machine fits in.
COUNT_ROUNDS = 2

_SPAWN_TIMEOUT = 120.0


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


@dataclass
class EndToEnd:
    #: What the client observed: end-to-end metrics by name.
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Per-layer figures the server counted itself (``/metrics`` deltas).
    counters: dict[str, dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: ingest_live: reads the reader completed per writer op, for the
    #: in-process replay to carry the same mix.
    reads_per_op: float = 0.0
    #: Client latency samples (seconds) of the primary op, for the caller.
    latencies: list[float] = field(default_factory=list)
    #: Reference answers in stream order (explore_cold: the first round;
    #: serve_cached: the pool), for the in-process replay to match.
    answers: list[tuple] = field(default_factory=list)
    #: recover: the directory the SIGKILL left, for the in-process replay.
    crashed: "CrashedDir | None" = None


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------
class Server:
    """One ``serve.py`` subprocess."""

    def __init__(self, workdir: Path, table: Path | None = None,
                 data_dir: Path | None = None):
        self._workdir = workdir
        self._args = [sys.executable, str(SERVE)]
        if table is not None:
            self._args += ["--table", str(table)]
        if data_dir is not None:
            self._args += ["--data-dir", str(data_dir)]
        self._process: subprocess.Popen | None = None
        self.port = 0
        self.setup_seconds = 0.0

    def start(self) -> "Server":
        """Spawn and wait for ``/healthz``; records the set-up time."""
        started = time.perf_counter()
        with open(self._workdir / "serve.stderr", "ab") as stderr:
            self._process = subprocess.Popen(
                self._args, stdout=subprocess.PIPE, stderr=stderr,
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )
        # The server gets the last core to itself.  Left to the scheduler,
        # its threads hand the interpreter lock back and forth across
        # cores or not, run beside the load generator and the machine's
        # interrupts or not, and whole runs come out 25% apart.
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) > 1:
            os.sched_setaffinity(self._process.pid, {cores[-1]})
        try:
            ready, _, _ = select.select([self._process.stdout], [], [],
                                        _SPAWN_TIMEOUT)
            line = self._process.stdout.readline().decode() if ready else ""
            if not line.startswith("READY "):
                tail = (self._workdir / "serve.stderr").read_text()[-2000:]
                raise RuntimeError(f"server did not come up: {line!r}\n{tail}")
            self.port = int(line.split()[1])
            with self.client() as client:
                if client.healthz().get("status") != "ok":
                    raise RuntimeError("server answered /healthz but is not ok")
        except BaseException:
            self.kill()
            raise
        self.setup_seconds = time.perf_counter() - started
        return self

    def client(self) -> ReproClient:
        return ReproClient("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """The process's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap — the crash ``recover`` studies; every other
        server is a throwaway with nothing worth a graceful exit."""
        process, self._process = self._process, None
        self.port = 0
        if process is None:
            return
        process.kill()
        process.wait()
        process.stdout.close()


def timed_setups(table, workdir: Path, count: int, durable: bool = False
                 ) -> tuple[Server, list[float]]:
    """Hand the table over and set up ``count`` times.

    Keeps the last server (on ``workdir/data`` when durable; the earlier
    ones get directories of their own) and returns every timing.
    """
    table_file = workdir / "table.npz"
    save_table(table, str(table_file))
    timings = []
    for index in range(count):
        last = index == count - 1
        data_dir = (workdir / ("data" if last else f"data-setup{index}")
                    if durable else None)
        server = Server(workdir, table=table_file, data_dir=data_dir).start()
        timings.append(server.setup_seconds)
        if not last:
            server.kill()
    return server, timings


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------
def answer_of(response: InsightResponse) -> tuple:
    """A response minus what legitimately differs between two servings.

    Two answers compare equal here exactly when their canonical JSON is
    byte-equal once ``timing``, ``provenance.cache`` and
    ``provenance.batch``/``coalesced`` (the position in whatever
    micro-batch the request happened to ride in) are removed.
    """
    provenance = {key: value for key, value in response.provenance.items()
                  if key not in ("cache", "batch", "coalesced")}
    return (response.dataset, response.dataset_version, response.dataset_seq,
            response.carousels, response.next_cursor, provenance)


def check_read(response: InsightResponse, request: InsightRequest,
               state: tuple[int, int] | None = None) -> None:
    if response.dataset != request.dataset:
        raise WrongAnswer(f"asked {request.dataset!r}, got {response.dataset!r}")
    if response.classes() != list(request.insight_classes):
        raise WrongAnswer(f"asked classes {request.insight_classes}, "
                          f"got {response.classes()}")
    got = (response.dataset_version, response.dataset_seq)
    if state is not None and got != state:
        raise WrongAnswer(f"expected (version, seq) {state}, got {got}")


def check_same(expected: tuple, response: InsightResponse, what: str) -> None:
    if answer_of(response) != expected:
        raise WrongAnswer(f"{what}: payload differs from the reference answer")


class _Caller:
    """One closed-loop connection: times ops, counts failures."""

    def __init__(self, client: ReproClient | None = None):
        self.client = client
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.round_seconds: list[float] = []

    def call(self, op: Callable[[], Any]) -> Any:
        """Run one op; returns its reply, or None if it failed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            reply = op()
        except WrongAnswer:
            raise
        except Exception:  # noqa: BLE001 - any transport/server refusal is a failed op
            self.failed += 1
            return None
        self.latencies.append(time.perf_counter() - started)
        return reply

    def rounds(self, rounds: Iterable[Callable[[], None]], seconds: float,
               after_round: Callable[[int], None] | None = None,
               at_least: int = COUNT_ROUNDS) -> None:
        """Run whole rounds until ``seconds`` have passed (``at_least`` of them)."""
        started = time.perf_counter()
        for index, run_round in enumerate(rounds):
            round_started = time.perf_counter()
            run_round()
            self.round_seconds.append(time.perf_counter() - round_started)
            if after_round is not None:
                after_round(index + 1)
            if (index + 1 >= at_least
                    and time.perf_counter() - started >= seconds):
                break
        self.elapsed = time.perf_counter() - started

    def ops_per_s(self) -> float:
        """Ops of one round over the *median* round time.

        Every round holds the same mix of work, so the median round is
        the machine's steady pace; the mean would also carry every burst
        of a noisy neighbour (and, for appends, the rounds a background
        rebuild happened to share — ``rows_per_s`` keeps those).
        """
        rounds = len(self.round_seconds)
        return len(self.latencies) / rounds / median(self.round_seconds)


def _in_threads(*targets: Callable[[], None]) -> None:
    """Run the callers concurrently; re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,))
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _summarise(result: EndToEnd, callers: list[_Caller], setups: list[float],
               rss_mb: float) -> None:
    latencies = [s for caller in callers for s in caller.latencies]
    if not latencies:
        raise RuntimeError("no operation succeeded; nothing to measure")
    result.latencies = latencies
    result.attempted += sum(caller.attempted for caller in callers)
    result.failed += sum(caller.failed for caller in callers)
    result.metrics.update({
        "setup_s": metric(median(setups), "s"),
        "op_p50_ms": metric(median(latencies) * 1e3, "ms"),
        "op_samples": metric(len(latencies), "count"),
        "ops_per_s": metric(sum(c.ops_per_s() for c in callers), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    })
    tail = tail_percentile(latencies, 95.0)
    if tail is not None:
        result.metrics["op_p95_ms"] = metric(tail * 1e3, "ms")


# ---------------------------------------------------------------------------
# /metrics arithmetic
# ---------------------------------------------------------------------------
def _path(document: dict, dotted: str) -> float:
    value: Any = document
    for key in dotted.split("."):
        value = value[key]
    return float(value)


def _window(before: dict, after: dict) -> Callable[[str], float]:
    """How far a ``/metrics`` counter moved between two snapshots."""
    return lambda dotted: _path(after, dotted) - _path(before, dotted)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def server_counters(before: dict, after: dict) -> dict[str, dict[str, Any]]:
    """Per-layer figures the server itself counts, over one window."""
    d = _window(before, after)
    coalesced = d("server.coalesce.coalesced_requests")
    hits, misses = d("workspace.cache.hits"), d("workspace.cache.misses")
    return {
        "server.coalesce.rider_wait_ms": metric(
            1e3 * _share(d("server.coalesce.rider_wait_seconds_total"),
                         coalesced), "ms"),
        "server.coalesce.batch_mean": metric(
            _share(coalesced, d("server.coalesce.batches")), "count"),
        "server.admission.queued_share": metric(
            _share(d("admission.queued_total"), d("admission.admitted_total")),
            "share"),
        "server.rejected_share": metric(
            _share(d("server.responses.rejected_overload")
                   + d("server.responses.rejected_quota"),
                   d("server.requests.total")), "share"),
        "service.cache.hit_share": metric(_share(hits, hits + misses), "share"),
        "service.cache.evictions": metric(d("workspace.cache.evictions"),
                                          "count"),
        "sketch.store_bytes": metric(
            _path(after, "resources.memory.components.sketches"), "bytes"),
    }


def read_counters(before: dict, after: dict, reads: int
                  ) -> dict[str, dict[str, Any]]:
    """Counts per read over a window of exactly ``reads`` cold reads."""
    d = _window(before, after)
    return {
        "core.candidates_per_read": metric(
            d("resources.costs.totals.candidates_enumerated") / reads, "count"),
        "core.score_evaluations_per_read": metric(
            d("workspace.pipeline.score_evaluations") / reads, "count"),
        "core.shared_enumeration_share": metric(
            _share(d("workspace.pipeline.shared_queries"),
                   d("workspace.pipeline.n_queries")), "share"),
    }


# ---------------------------------------------------------------------------
# explore_cold
# ---------------------------------------------------------------------------
WARM_UP = InsightRequest(dataset=DATASET, insight_classes=("missing_values",),
                          top_k=1)


def explore_cold(seed: int, sizes: wl.Sizes, seconds: float, workdir: Path
                 ) -> EndToEnd:
    table = wl.explore_table(seed, sizes)
    result = EndToEnd()
    server, setups = timed_setups(table, workdir, sizes.setups)
    try:
        with server.client() as client:
            caller = _Caller(client)
            client.insights(WARM_UP)
            before = client.metrics()
            counted: dict[str, Any] = {}
            hits = 0

            def read_round(index: int, requests: list[InsightRequest]
                           ) -> Callable[[], None]:
                def run() -> None:
                    nonlocal hits
                    for request in requests:
                        response = caller.call(lambda: client.insights(request))
                        if response is not None:
                            check_read(response, request, state=(1, 0))
                            hits += response.provenance.get("cache") == "hit"
                            if index == 0:
                                result.answers.append(answer_of(response))
                return run

            def after_round(done: int) -> None:
                if done == COUNT_ROUNDS:
                    counted["metrics"] = client.metrics()
                    counted["reads"] = len(caller.latencies)

            rounds = (read_round(i, r) for i, r in
                      enumerate(wl.explore_rounds(seed, table)))
            caller.rounds(rounds, seconds, after_round)
            if hits:
                raise WrongAnswer(f"{hits} cold reads hit the cache: the "
                                  "stream repeated a canonical key")
            after = client.metrics()
            _summarise(result, [caller], setups, server.peak_rss_mb())
            result.counters.update(server_counters(before, after))
            result.counters.update(read_counters(
                before, counted["metrics"], counted["reads"]))
            _exact_probes(client, seed, table, sizes, (1, 0), result)
    finally:
        server.kill()
    return result


def _exact_probes(client: ReproClient, seed: int, table, sizes: wl.Sizes,
                  state: tuple[int, int], result: EndToEnd) -> None:
    """Ask each probe in sketch and in exact mode, outside the window.

    Adds ``topk_recall`` — the share of the exact top-10 tuples present
    in the sketch top-10 over the probe set, a pure function of the seed
    because ``state`` is — and ``exact_read_p50_ms``.
    """
    sketch_reads, exact_reads = _Caller(client), _Caller(client)
    found = wanted = 0
    for probe in wl.exact_probes(seed, table, sizes.exact_probes):
        exact_request = replace(probe, mode="exact")
        sketch = sketch_reads.call(lambda: client.insights(probe))
        exact = exact_reads.call(lambda: client.insights(exact_request))
        if sketch is None or exact is None:
            continue
        check_read(sketch, probe, state=state)
        check_read(exact, exact_request, state=state)
        name = probe.insight_classes[0]
        truth = {insight.key for insight in exact.insights_for(name)}
        guess = {insight.key for insight in sketch.insights_for(name)}
        wanted += len(truth)
        found += len(truth & guess)
    result.attempted += sketch_reads.attempted + exact_reads.attempted
    result.failed += sketch_reads.failed + exact_reads.failed
    if not wanted:
        raise RuntimeError("no exact probe succeeded; nothing to measure")
    result.metrics["topk_recall"] = metric(found / wanted, "share")
    result.metrics["exact_read_p50_ms"] = metric(
        median(exact_reads.latencies) * 1e3, "ms")


# ---------------------------------------------------------------------------
# serve_cached
# ---------------------------------------------------------------------------
def serve_cached(seed: int, sizes: wl.Sizes, seconds: float, workdir: Path
                 ) -> EndToEnd:
    table = wl.explore_table(seed, sizes)
    pool = wl.cached_pool(seed, table, sizes.pool)
    connections = min(2, os.cpu_count() or 1)
    result = EndToEnd()
    server, setups = timed_setups(table, workdir, sizes.setups)
    clients = [server.client() for _ in range(connections)]
    try:
        # Warm: each pool entry's first (miss) answer is the reference
        # every later (hit) answer must equal.
        expected = result.answers
        for request in pool:
            response = clients[0].insights(request)
            check_read(response, request, state=(1, 0))
            expected.append(answer_of(response))
        before = clients[0].metrics()
        callers = [_Caller(client) for client in clients]

        def cached_round(caller: _Caller, picks) -> Callable[[], None]:
            def run() -> None:
                for pick in picks:
                    request = pool[pick]
                    response = caller.call(
                        lambda: caller.client.insights(request))
                    if response is not None:
                        check_same(expected[pick], response,
                                   f"cached read of pool[{pick}]")
            return run

        def drive(index: int) -> Callable[[], None]:
            caller = callers[index]
            stream = wl.zipf_rounds(seed, index, len(pool), sizes.cached_round)
            return lambda: caller.rounds(
                (cached_round(caller, picks) for picks in stream), seconds)

        _in_threads(*(drive(index) for index in range(connections)))
        after = clients[0].metrics()
        _summarise(result, callers, setups, server.peak_rss_mb())
        result.counters.update(server_counters(before, after))
        _exact_probes(clients[0], seed, table, sizes, (1, 0), result)
    finally:
        for client in clients:
            client.close()
        server.kill()
    return result


# ---------------------------------------------------------------------------
# ingest_live
# ---------------------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class _Appender:
    """Sends batches, checking each acknowledgement against what was sent."""

    def __init__(self, client: ReproClient, base_rows: int):
        self.client = client
        self.rows = base_rows
        self.appends = 0
        self.seq = 0
        self.unknown = False

    def append(self, batch: list[dict]) -> dict:
        try:
            reply = self.client.append_rows(DATASET, batch)
        except Exception:
            # Refused or lost: the row accounting can no longer be
            # checked exactly, the run reports the failure instead.
            self.unknown = True
            raise
        self.rows += len(batch)
        self.appends += 1
        if (reply["rows_appended"] != len(batch) or reply["version"] != 1
                or reply["seq"] <= self.seq
                or (not self.unknown and reply["total_rows"] != self.rows)):
            raise WrongAnswer(f"append acknowledged {reply}, expected "
                              f"{len(batch)} rows for a total of {self.rows}")
        self.seq = reply["seq"]
        return reply

    def append_settled(self, batch: list[dict]) -> dict:
        """Append, then let any rebuild it triggered finish and swap.

        History built this way is a pure function of the batches: every
        swap lands right behind the append that tripped the budget,
        instead of wherever the background thread happened to get to.
        Returns the dataset's ``/v1/datasets`` entry.
        """
        self.append(batch)
        return _wait_rebuilds(self.client)


def _wait_rebuilds(client: ReproClient, timeout: float = 60.0) -> dict:
    """Poll until no background rebuild is in flight; the dataset's entry."""
    deadline = time.monotonic() + timeout
    while True:
        entry = next(d for d in client.datasets() if d["name"] == DATASET)
        if not entry["rebuild_running"]:
            return entry
        if time.monotonic() > deadline:
            raise RuntimeError("background rebuild did not finish")
        time.sleep(0.02)


def ingest_live(seed: int, sizes: wl.Sizes, seconds: float, workdir: Path
                ) -> EndToEnd:
    table = wl.ingest_table(seed, sizes)
    reads = wl.reader_requests(table)
    result = EndToEnd()
    server, setups = timed_setups(table, workdir, sizes.setups, durable=True)
    writer_client, reader_client = server.client(), server.client()
    try:
        appender = _Appender(writer_client, table.n_rows)
        batches = wl.batch_rounds(seed, sizes)
        # Warm up past the first budget-triggered rebuild, so the window
        # opens on the steady state (and every run holds a rebuild).
        rebuilt = False
        while not rebuilt:
            for batch in next(batches):
                entry = appender.append_settled(batch)
                rebuilt = rebuilt or entry["ingest"]["bg_rebuilds"] > 0
        # The settled warm-up is a pure function of the seed, the state a
        # window of fixed duration ends on is not (nor the memory it has
        # grown to): recall and peak memory are taken here.
        _exact_probes(writer_client, seed, table, sizes,
                      (entry["version"], entry["seq"]), result)
        rss_mb = server.peak_rss_mb()
        before = writer_client.metrics()
        writer, reader = _Caller(writer_client), _Caller(reader_client)
        done = threading.Event()

        def write_round(round_batches) -> Callable[[], None]:
            # One op is one whole cycle of batch sizes: single appends
            # of 1 and 16 rows cost nearly the same, so a median over
            # them would sit between two modes and wander.
            return lambda: writer.call(
                lambda: [appender.append(batch) for batch in round_batches])

        def write() -> None:
            try:
                writer.rounds((write_round(r) for r in batches), seconds)
            finally:
                done.set()

        def read() -> None:
            started = time.perf_counter()
            seen = (1, 0)
            for request in itertools.cycle(reads):
                response = reader.call(lambda: reader_client.insights(request))
                if response is not None:
                    check_read(response, request)
                    state = (response.dataset_version, response.dataset_seq)
                    if state < seen:
                        raise WrongAnswer(f"read went back from {seen} to {state}")
                    seen = state
                if done.is_set():
                    break
            reader.elapsed = time.perf_counter() - started

        _in_threads(write, read)
        entry = _wait_rebuilds(writer_client)
        after = writer_client.metrics()
        if not appender.unknown:
            totals = after["workspace"]["ingest"]["totals"]
            if (totals["appends"] != appender.appends
                    or entry["ingest"]["rows_appended"]
                    != appender.rows - table.n_rows):
                raise WrongAnswer(
                    f"server counts {totals['appends']} appends / "
                    f"{entry['ingest']['rows_appended']} rows; sent "
                    f"{appender.appends} / {appender.rows - table.n_rows}")
        _summarise(result, [writer], setups, rss_mb)
        result.attempted += reader.attempted
        result.failed += reader.failed
        if not reader.latencies:
            raise RuntimeError("no read succeeded beside the appends")
        result.reads_per_op = len(reader.latencies) / len(writer.latencies)
        d = _window(before, after)
        result.metrics.update({
            "rows_per_s": metric(
                d("workspace.ingest.totals.rows_appended") / writer.elapsed,
                "1/s"),
            "reader_reads_per_s": metric(
                len(reader.latencies) / reader.elapsed, "1/s"),
            "reader_read_p50_ms": metric(
                median(reader.latencies) * 1e3, "ms"),
        })
        result.counters.update(server_counters(before, after))
        result.counters["ingest.rebuild.count"] = metric(
            d("workspace.ingest.totals.bg_rebuilds"), "count")
    finally:
        writer_client.close()
        reader_client.close()
        server.kill()
    return result


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------
@dataclass
class CrashedDir:
    """A data directory as a SIGKILL left it, and what it must answer."""

    path: Path
    state: tuple[int, int]
    probes: list[InsightRequest]
    answers: list[tuple]
    #: Rows acknowledged before the kill (the base table's included) and
    #: the journal and snapshot bytes that hold them.
    rows: int
    disk_bytes: int


def build_crashed_dir(seed: int, sizes: wl.Sizes, table, workdir: Path
                      ) -> tuple[CrashedDir, list[float], float]:
    """Set up, journal the batches, capture live answers, SIGKILL.

    Returns the directory, the set-up timings and the builder's peak RSS.
    """
    server, timings = timed_setups(table, workdir, sizes.setups, durable=True)
    try:
        with server.client() as client:
            appender = _Appender(client, table.n_rows)
            for batch in wl.take_batches(seed, sizes, sizes.recover_batches):
                entry = appender.append_settled(batch)
            state = (entry["version"], entry["seq"])
            probes = wl.reader_requests(table)
            answers = []
            for probe in probes:
                response = client.insights(probe)
                check_read(response, probe, state=state)
                answers.append(answer_of(response))
            rss = server.peak_rss_mb()
    finally:
        server.kill()
    crashed = CrashedDir(workdir / "data", state, probes, answers,
                         appender.rows, _dir_bytes(workdir / "data"))
    return crashed, timings, rss


def recover(seed: int, sizes: wl.Sizes, seconds: float, workdir: Path
            ) -> EndToEnd:
    table = wl.ingest_table(seed, sizes)
    crashed, setups, rss = build_crashed_dir(seed, sizes, table, workdir)
    result = EndToEnd(crashed=crashed)
    restarts, catchups = _Caller(), _Caller()
    server = Server(workdir, data_dir=crashed.path)

    def one_restart() -> None:
        # Every round is the same work: the SIGKILL of the server the
        # round before left, then one restart to its first answer.
        nonlocal rss
        server.kill()
        restarts.call(lambda: _first_answer(server, crashed))
        if server.port:
            rss = max(rss, server.peak_rss_mb())

    try:
        restarts.rounds(itertools.repeat(one_restart), seconds, at_least=1)
        _summarise(result, [restarts], setups, rss)
        # Outside the window, on the server the last restart left.
        _check_restarted(server, crashed)
        for _ in range(sizes.catchups):
            catchups.call(lambda: _replica_catchup(server, crashed))
        with server.client() as client:
            _exact_probes(client, seed, table, sizes, crashed.state, result)
    finally:
        server.kill()
    result.attempted += catchups.attempted
    result.failed += catchups.failed
    if not catchups.latencies:
        raise RuntimeError("no replica caught up; nothing to measure")
    result.metrics.update({
        "replica_catchup_p50_ms": metric(
            median(catchups.latencies) * 1e3, "ms"),
        # The settled history makes the directory a pure function of the
        # seed; a live window ends anywhere in a compaction cycle.
        "disk_bytes_per_row": metric(
            crashed.disk_bytes / crashed.rows, "bytes"),
    })
    result.counters["replication.feed.bytes"] = metric(
        crashed.disk_bytes, "bytes")
    return result


def _first_answer(server: Server, crashed: CrashedDir) -> None:
    """Spawn on the crashed directory and get the first correct answer."""
    server.start()
    with server.client() as client:
        response = client.insights(crashed.probes[0])
    check_read(response, crashed.probes[0], state=crashed.state)
    check_same(crashed.answers[0], response, "first answer after restart")


def _check_restarted(server: Server, crashed: CrashedDir) -> None:
    """Every probe on the restarted server must equal the live answer
    captured before the SIGKILL."""
    with server.client() as client:
        for probe, answer in zip(crashed.probes, crashed.answers):
            response = client.insights(probe)
            check_read(response, probe, state=crashed.state)
            check_same(answer, response, "restarted answer")


def _replica_catchup(server: Server, crashed: CrashedDir) -> None:
    """A fresh replica over the HTTP feed: lag 0 and the identical answer."""
    replica = ReplicaWorkspace(HttpFeedSource("127.0.0.1", server.port))
    try:
        replica.sync()
        lag = replica.replica_lag()
        if lag.get(DATASET) != 0:
            raise WrongAnswer(f"replica lag after sync: {lag}")
        response = replica.handle(crashed.probes[0])
        check_read(response, crashed.probes[0], state=crashed.state)
        check_same(crashed.answers[0], response, "replica answer")
    finally:
        replica.close()


RUNNERS = {
    "explore_cold": explore_cold,
    "serve_cached": serve_cached,
    "ingest_live": ingest_live,
    "recover": recover,
}


@contextlib.contextmanager
def scratch_dir(workroot: Path, workload: str) -> Iterator[Path]:
    """A fresh directory for one run's files, removed afterwards."""
    workdir = workroot / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
