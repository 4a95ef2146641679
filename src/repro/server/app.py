"""The asyncio HTTP transport over :class:`~repro.service.Workspace`.

A deliberately small, dependency-free HTTP/1.1 server (``asyncio`` +
stdlib only) that parks a workspace behind a read surface and — since
datasets went live — a write surface:

===================================  ==========================================
``POST /v1/insights``                one :class:`InsightRequest` → one
                                     response; a result-cache hit is sent
                                     from the event loop as cached, and
                                     so is a miss the snapshot's insight
                                     index answers without enumerating
                                     or scoring; other concurrent misses
                                     micro-batch into one
                                     ``handle_many`` call (a lone miss
                                     on an idle server dispatches at
                                     once)
``POST /v1/insights:batch``          ``{"requests": [...]}`` →
                                     ``{"responses": [...]}`` via
                                     ``Workspace.handle_many``
``GET /v1/datasets``                 registration/engine/ingest status of
                                     every dataset
``PUT /v1/datasets/{name}``          register a named loader or inline table
``POST /v1/datasets/{name}/rows``    append a validated DeltaBatch; answers
                                     the new ``(version, seq)`` identity
``POST /v1/datasets/{name}/reload``  re-run the loader (version bump,
                                     journal reset)
``POST /v1/datasets/{name}/flush``   force the durable journal to stable
                                     storage; answers ``(version, seq)``
                                     and whether the workspace is durable
``GET /v1/datasets/{name}/journal``  cursor-positioned replication feed
                                     poll (``?from=version:seq``,
                                     ``?max_records=``) — a reset batch
                                     with full snapshot-state, or the
                                     journal records past the cursor
``POST /v1/replica:promote``         lift the write refusal on a
                                     ``--replica-of`` server (primary
                                     fail-over; 409 on a primary)
``GET /v1/traces``                   recently finished request traces
                                     (``?dataset=``, ``?min_duration_ms=``,
                                     ``?since_ms=``, ``?limit=`` filters)
``GET /v1/traces/{id}``              one trace as a nested span tree
``POST /v1/traces:config``           adjust the slow-request threshold at
                                     runtime
``GET /v1/debug``                    memory ledger, rolling cost windows,
                                     watchdog state, top-K expensive
                                     requests (``?top_k=`` override)
``GET /healthz``                     liveness + bind address + config echo
``GET /metrics``                     JSON counters (transport, coalescing,
                                     admission, cache, pipeline, ingestion,
                                     latency histograms, tracing/span
                                     histograms, resource accounting);
                                     ``Accept: text/plain`` negotiates the
                                     Prometheus text exposition
===================================  ==========================================

Every response carries ``X-Repro-Trace-Id`` naming the request's trace
(:mod:`repro.obs`); fetch it from ``/v1/traces/{id}`` to see where the
time went — admission wait, coalescing window, pipeline stages, journal
fsync.  Requests slower than the configured threshold are additionally
logged through the ``repro.obs.events`` structured event log.

Request flow for the insight endpoints: **parse** (protocol violations →
400 envelope, unknown datasets → 404 envelope — the same structured
error envelope :meth:`Workspace.handle_json` returns) → **admission**
(:class:`~repro.server.admission.AdmissionController`; 429/503 with
``Retry-After``) → **peek** and **warm answer** (``POST /v1/insights``
only: the reply the result cache already holds is sent as it stands —
:meth:`Workspace.peek_cached` — or else a miss the snapshot's insight
index can rank with nothing to enumerate or score is answered —
:meth:`Workspace.answer_warm`; neither ever waits, enumerates or scores,
and the request's root span records ``answered="loop"``) → **dispatch**
(coalesced or direct, always on a worker thread — the event loop never
blocks on the engine; ``answered`` is ``"coalescer"`` or ``"pool"``) →
**respond**.

Shutdown is graceful: :meth:`ReproServer.stop` stops accepting, waits up
to ``drain_timeout`` for in-flight requests (including a pending
coalescing batch) to finish, then closes lingering keep-alive
connections.  Tests and examples use :func:`serving` /
:meth:`ReproServer.start_in_thread`, which run the loop on a background
thread and hand back a :class:`ServerHandle`.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Iterator, Sequence

from repro.errors import (
    AdmissionRejected,
    ForesightError,
    ProtocolError,
    ServerError,
    ServiceError,
    UnknownDatasetError,
)
from repro.data.schema import ColumnKind
from repro.data.table import DataTable
from repro.ingest.durable import (
    FeedPosition,
    JournalFeed,
    durable_state_to_payload,
)
from repro.obs import events as obs_events
from repro.obs.tracer import bind
from repro.obs.watchdog import LoopLagMonitor
from repro.service.dto import InsightRequest, error_envelope, error_reply
from repro.service.workspace import Workspace
from repro.server.admission import AdmissionController
from repro.server.coalesce import RequestCoalescer
from repro.server.config import ServerConfig
from repro.server.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    ServerMetrics,
    render_prometheus,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Endpoints whose latency feeds the request-latency histogram.
_TIMED_ENDPOINTS = ("insights", "insights_batch")

#: Seconds below which no ``admission.wait`` / ``request.dispatch`` span
#: is recorded: an uncontended slot grant or executor handoff is
#: microseconds, and a zero-length span on every request is pure tracing
#: overhead.  One millisecond is comfortably above the uncontended case
#: and comfortably below any real queueing delay — the spans appear
#: exactly when the request actually waited.
_WAIT_SPAN_FLOOR = 0.001


def _canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class _HttpError(Exception):
    """A request that failed HTTP framing (before routing)."""

    def __init__(self, status: int, code: str, message: str):
        self.status = status
        self.code = code
        super().__init__(message)


class _ReadTimer:
    """The deadline of one request read: a loop timer, not a task.

    Armed on entry and disarmed on exit.  If it fires first it flags
    itself (:attr:`expired`) and cancels the connection's task; on exit
    that ``CancelledError`` is swallowed, and any other — an external
    cancel — propagates.  :attr:`seen_data` says whether the read got
    past the request line: a *stalled* request is answered 408, a
    merely idle keep-alive connection is closed silently.
    """

    __slots__ = ("timeout", "seen_data", "expired", "_task", "_handle")

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self.seen_data = False
        self.expired = False
        self._task: asyncio.Task | None = None
        self._handle: asyncio.TimerHandle | None = None

    def __enter__(self) -> "_ReadTimer":
        if self.timeout > 0:
            self._task = asyncio.current_task()
            self._handle = asyncio.get_running_loop().call_later(
                self.timeout, self._expire)
        return self

    def _expire(self) -> None:
        self.expired = True
        self._task.cancel()

    def __exit__(self, kind, error, traceback) -> bool:
        if self._handle is not None:
            self._handle.cancel()
        if not (self.expired and kind is asyncio.CancelledError):
            return False
        # Withdraw the handled cancel request; one still counted after
        # it (3.11+) came from elsewhere, so the error propagates.
        uncancel = getattr(self._task, "uncancel", None)
        return uncancel is None or uncancel() == 0


class _HttpRequest:
    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive",
                 "trace")

    def __init__(self, method: str, version: str, path: str,
                 headers: dict[str, str], body: bytes, query: str = ""):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        # RFC 9112 §9.3: HTTP/1.1 persists unless the client sends
        # ``close``; HTTP/1.0 only when it sends ``keep-alive``.
        options = {option.strip() for option in
                   headers.get("connection", "").lower().split(",")}
        self.keep_alive = "close" not in options and (
            version != "HTTP/1.0" or "keep-alive" in options)
        #: The request's root span, set by the dispatch loop so endpoint
        #: handlers can parent their phase spans to it.
        self.trace: Any = None

    def query_params(self) -> dict[str, str]:
        """The query string as a flat dict (last value wins per key)."""
        return {key: values[-1]
                for key, values in urllib.parse.parse_qs(self.query).items()}


class ReproServer:
    """Serves a :class:`Workspace` over asyncio HTTP/1.1."""

    def __init__(
        self,
        workspace: Workspace,
        config: ServerConfig | None = None,
        loaders: dict[str, Callable[[], DataTable]] | None = None,
        replicas: Sequence[Workspace] | None = None,
    ):
        self._workspace = workspace
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        #: In-process read replicas eligible for ``max_lag_seq``-bounded
        #: routing (each a ReplicaWorkspace tailing this primary's
        #: journal).  Requests without a staleness bound never touch
        #: them — the primary is the consistency default.
        self._replicas: list[Workspace] = list(replicas or [])
        self._replica_rr = itertools.count()
        #: Lazy journal feed behind ``GET /v1/datasets/{name}/journal``
        #: (only durable workspaces can serve one).
        self._feed: JournalFeed | None = None
        #: Named loaders that ``PUT /v1/datasets/{name}`` may reference
        #: by ``{"loader": "<name>"}`` — loaders cannot travel over the
        #: wire, so the server exposes a registry of the ones it trusts
        #: (``repro-serve`` passes the bundled dataset loaders).
        self.loaders = dict(loaders or {})
        self.admission = AdmissionController(
            max_in_flight=self.config.max_in_flight,
            queue_limit=self.config.queue_limit,
            dataset_quota=self.config.dataset_quota,
            class_quota=self.config.class_quota,
            write_quota=self.config.write_quota,
            retry_after=self.config.retry_after,
        )
        #: The workspace's tracer, shared so request spans and workspace
        #: spans assemble into one trace.
        self.tracer = workspace.tracer
        #: Event-loop responsiveness watchdog at the workspace's
        #: ``loop_lag_ms``; ``start()`` schedules its sampling task on
        #: the serving loop, ``stop()`` cancels it.
        self.loop_lag = LoopLagMonitor(
            threshold_ms=workspace.obs_config.loop_lag_ms)
        self._loop_lag_task: asyncio.Task | None = None
        self._coalescer: RequestCoalescer | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._address: tuple[str, int] | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._started_at: float | None = None
        self._stopping = False
        #: path -> (endpoint name for metrics, allowed method, handler).
        self._routes: dict[str, tuple[str, str, Any]] = {
            "/v1/insights": ("insights", "POST", self._post_insights),
            "/v1/insights:batch": (
                "insights_batch", "POST", self._post_insights_batch
            ),
            "/v1/datasets": ("datasets", "GET", self._get_datasets),
            "/v1/traces": ("traces", "GET", self._get_traces),
            "/v1/traces:config": (
                "traces_config", "POST", self._post_traces_config
            ),
            "/v1/debug": ("debug", "GET", self._get_debug),
            "/v1/replica:promote": (
                "replica_promote", "POST", self._post_promote
            ),
            "/healthz": ("healthz", "GET", self._get_healthz),
            "/metrics": ("metrics", "GET", self._get_metrics),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workspace(self) -> Workspace:
        return self._workspace

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); resolves port 0 to the real port."""
        if self._address is None:
            raise ServerError("server is not started")
        return self._address

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise ServerError("server is already started")
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.handler_workers,
            thread_name_prefix="repro-serve",
        )
        if self.config.coalesce_window > 0:
            self._coalescer = RequestCoalescer(
                self._dispatch_coalesced_batch,
                window=self.config.coalesce_window,
                max_batch=self.config.coalesce_max_batch,
                metrics=self.metrics,
                executor=self._pool,
                admission=self.admission,
                tracer=self.tracer,
            )
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.config.host, port=self.config.port
        )
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        self._loop_lag_task = asyncio.get_running_loop().create_task(
            self.loop_lag.run()
        )
        self._started_at = time.time()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, close everything.

        With ``drain=True`` (the default) the server waits up to
        ``config.drain_timeout`` seconds for in-flight requests — and the
        coalescer's pending batch — to finish before force-closing the
        remaining (idle keep-alive) connections.
        """
        if self._server is None:
            return
        self._stopping = True
        if self._loop_lag_task is not None:
            self._loop_lag_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._loop_lag_task
            self._loop_lag_task = None
        # close() stops accepting immediately.  Deliberately NOT
        # wait_closed() here: on Python >= 3.12 it blocks until every
        # connection handler returns, and idle keep-alive handlers only
        # return once we force-close them below — after the drain.
        self._server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        if drain:
            while self._active_requests > 0 and loop.time() < deadline:
                await asyncio.sleep(0.005)
        if self._coalescer is not None:
            # Bound by what is left of the drain budget: a dispatch stuck
            # in a slow engine call must not hold shutdown hostage.
            remaining = max(0.1, deadline - loop.time()) if drain else 0.1
            await self._coalescer.aclose(timeout=remaining)
        # Drain-time durability: force every dataset's journal to stable
        # storage so a clean shutdown never relies on fsync-on-commit
        # being enabled.  Runs on the default executor (our own pool is
        # about to shut down) and is bounded by what remains of the
        # drain budget — flush takes each dataset's entry lock, and a
        # cold engine build holding one must not hang shutdown.
        with contextlib.suppress(Exception):
            await asyncio.wait_for(
                loop.run_in_executor(None, self._workspace.flush_all),
                timeout=max(0.1, deadline - loop.time()),
            )
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        self._connections.clear()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._server.wait_closed(), timeout=2.0)
        if self._pool is not None:
            # wait=False: the drain above already honored drain_timeout;
            # blocking the event loop on a stuck worker thread here would
            # un-bound it again.
            self._pool.shutdown(wait=False)
        self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    def run(self) -> None:
        """Blocking entry point for the CLI; Ctrl-C shuts down gracefully."""

        async def _main() -> None:
            await self.start()
            host, port = self.address
            print(f"repro-serve listening on http://{host}:{port} "
                  f"(datasets: {', '.join(self._workspace.datasets()) or 'none'})")
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    def start_in_thread(self, timeout: float = 30.0) -> "ServerHandle":
        """Run the server on a dedicated event-loop thread.

        Returns once the socket is bound; the returned
        :class:`ServerHandle` stops the server and joins the thread.
        """
        started = threading.Event()
        failures: list[BaseException] = []
        holder: dict[str, Any] = {}

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            holder["loop"] = loop
            stop_event = asyncio.Event()
            holder["stop_event"] = stop_event

            async def _main() -> None:
                try:
                    await self.start()
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    failures.append(exc)
                    return
                finally:
                    started.set()
                await stop_event.wait()

            try:
                loop.run_until_complete(_main())
            finally:
                loop.close()

        thread = threading.Thread(target=_run, name="repro-serve-loop", daemon=True)
        thread.start()
        if not started.wait(timeout):
            raise ServerError("server did not start within the timeout")
        if failures:
            thread.join(timeout=5)
            raise failures[0]
        return ServerHandle(self, holder["loop"], holder["stop_event"], thread)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        read_timeout = self.config.read_timeout
        try:
            while not self._stopping:
                # A stalled (or merely idle) client must not pin a
                # connection slot: give it read_timeout seconds to
                # deliver a complete request, then reclaim it.
                try:
                    with _ReadTimer(read_timeout) as timer:
                        request = await self._read_request(reader, timer)
                except _HttpError as exc:
                    await self._respond(
                        writer, exc.status,
                        error_envelope(exc.code, str(exc)), keep_alive=False,
                    )
                    break
                if timer.expired:
                    # Only a request the client actually *started* gets a
                    # 408 — an idle keep-alive connection closes silently,
                    # so a slow persistent client can never mistake the
                    # buffered 408 for the answer to its next request.
                    if timer.seen_data:
                        self.metrics.record_response(408)
                        await self._respond(
                            writer, 408,
                            error_envelope(
                                "request_timeout",
                                f"no complete request received within "
                                f"{read_timeout:g} seconds",
                            ),
                            keep_alive=False,
                        )
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._stopping
                await self._handle_request(request, writer, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader, timer: _ReadTimer,
    ) -> _HttpRequest | None:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(400, "bad_request", "request line too long") from None
        if not request_line:
            return None
        timer.seen_data = True
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "bad_request", "malformed HTTP request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _HttpError(400, "bad_request", "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "bad_request", "malformed header line")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 100:
                raise _HttpError(400, "bad_request", "too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad_request",
                             "malformed Content-Length header") from None
        if length < 0:
            raise _HttpError(400, "bad_request", "negative Content-Length")
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        path, _, query = target.partition("?")
        return _HttpRequest(method.upper(), version, path, headers, body,
                            query=query)

    async def _handle_request(
        self, request: _HttpRequest, writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        self._active_requests += 1
        start = time.perf_counter()
        # The root span of this request's trace.  Manual (not a context
        # manager): this coroutine shares its thread with every other
        # request on the loop, so ambient thread-local context would
        # cross-wire them — children parent to it explicitly instead.
        root = self.tracer.start_span("request")
        request.trace = root
        try:
            endpoint, handler = self._route(request)
            root.set_attribute("endpoint", endpoint)
            root.set_attribute("method", request.method)
            self.metrics.record_request(endpoint)
            extra_headers: dict[str, str] = {}
            if root.trace_id is not None:
                # Every response names its trace, so any request can be
                # looked up in /v1/traces/{id} afterwards.
                extra_headers["X-Repro-Trace-Id"] = root.trace_id
            content_type = "application/json"
            try:
                result = await handler(request)
                if len(result) == 3:
                    # Handlers may return (status, payload, headers) to
                    # override the content type (Prometheus exposition).
                    status, payload, handler_headers = result
                    handler_headers = dict(handler_headers)
                    content_type = handler_headers.pop(
                        "Content-Type", content_type
                    )
                    extra_headers.update(handler_headers)
                else:
                    status, payload = result
            except Exception as exc:  # noqa: BLE001 - mapped to envelopes
                status, payload = self._error_payload(exc)
                content_type = "application/json"
                root.set_attribute("error", type(exc).__name__)
                if isinstance(exc, AdmissionRejected):
                    self.metrics.record_rejection(exc.status)
                    extra_headers["Retry-After"] = str(
                        max(0, math.ceil(exc.retry_after))
                    )
                    obs_events.emit("admission_rejection", endpoint=endpoint,
                                    status=exc.status, code=exc.code,
                                    retry_after=exc.retry_after)
            elapsed = time.perf_counter() - start
            self.metrics.record_response(
                status, elapsed if endpoint in _TIMED_ENDPOINTS else None
            )
            root.set_attribute("status", status)
            # Completed before the response goes out: a client that
            # immediately asks /v1/traces/{id} for the id it was handed
            # must find the trace already in the ring.
            root.end()
            await self._respond(
                writer, status, payload, keep_alive=keep_alive,
                extra_headers=extra_headers, content_type=content_type,
            )
        finally:
            root.end()
            self._active_requests -= 1

    def _route(
        self, request: _HttpRequest
    ) -> tuple[str, Callable[[_HttpRequest], Awaitable[tuple[int, Any]]]]:
        entry = self._routes.get(request.path)
        if entry is None:
            dataset_route = self._route_dataset(request)
            if dataset_route is not None:
                return dataset_route
            trace_route = self._route_trace(request)
            if trace_route is not None:
                return trace_route

            async def _not_found(_request: _HttpRequest) -> tuple[int, Any]:
                return 404, error_envelope(
                    "not_found", f"no such endpoint: {_request.path}"
                )
            return "unknown", _not_found
        endpoint, method, handler = entry
        if request.method != method:
            return endpoint, self._method_not_allowed(method)
        return endpoint, handler

    def _route_dataset(
        self, request: _HttpRequest
    ) -> tuple[str, Callable[[_HttpRequest], Awaitable[tuple[int, Any]]]] | None:
        """Resolve the parameterized dataset-management routes.

        ========================================  =====================
        ``PUT  /v1/datasets/{name}``              register loader/table
        ``POST /v1/datasets/{name}/rows``         append a DeltaBatch
        ``POST /v1/datasets/{name}/reload``       reload + version bump
        ``POST /v1/datasets/{name}/flush``        sync the journal
        ``GET  /v1/datasets/{name}/journal``      replication feed poll
        ========================================  =====================
        """
        prefix = "/v1/datasets/"
        if not request.path.startswith(prefix):
            return None
        parts = request.path[len(prefix):].split("/")
        if not parts or not parts[0]:
            return None
        name = parts[0]
        if len(parts) == 1:
            endpoint, method = "dataset_put", "PUT"
            handler = lambda req, n=name: self._put_dataset(req, n)  # noqa: E731
        elif len(parts) == 2 and parts[1] == "rows":
            endpoint, method = "dataset_rows", "POST"
            handler = lambda req, n=name: self._post_rows(req, n)  # noqa: E731
        elif len(parts) == 2 and parts[1] == "reload":
            endpoint, method = "dataset_reload", "POST"
            handler = lambda req, n=name: self._post_reload(req, n)  # noqa: E731
        elif len(parts) == 2 and parts[1] == "flush":
            endpoint, method = "dataset_flush", "POST"
            handler = lambda req, n=name: self._post_flush(req, n)  # noqa: E731
        elif len(parts) == 2 and parts[1] == "journal":
            endpoint, method = "dataset_journal", "GET"
            handler = lambda req, n=name: self._get_journal(req, n)  # noqa: E731
        else:
            return None
        if request.method != method:
            return endpoint, self._method_not_allowed(method)
        return endpoint, handler

    def _route_trace(
        self, request: _HttpRequest
    ) -> tuple[str, Callable[[_HttpRequest], Awaitable[tuple[int, Any]]]] | None:
        """Resolve ``GET /v1/traces/{id}``.

        Only true sub-paths land here: the exact-match table already
        claimed ``/v1/traces`` and ``/v1/traces:config``.
        """
        prefix = "/v1/traces/"
        if not request.path.startswith(prefix):
            return None
        trace_id = request.path[len(prefix):]
        if not trace_id or "/" in trace_id:
            return None
        if request.method != "GET":
            return "trace_get", self._method_not_allowed("GET")
        handler = lambda req, t=trace_id: self._get_trace(req, t)  # noqa: E731
        return "trace_get", handler

    @staticmethod
    def _method_not_allowed(
        allowed: str,
    ) -> Callable[[_HttpRequest], Awaitable[tuple[int, Any]]]:
        async def _wrong_method(_request: _HttpRequest) -> tuple[int, Any]:
            return 405, error_envelope(
                "method_not_allowed",
                f"{_request.method} is not allowed on {_request.path}; "
                f"use {allowed}",
            )
        return _wrong_method

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any,
        keep_alive: bool, extra_headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        body = payload if isinstance(payload, bytes) else _canonical(payload)
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Endpoint handlers
    # ------------------------------------------------------------------
    async def _post_insights(self, http_request: _HttpRequest) -> tuple[int, Any]:
        root = http_request.trace
        request = self._parse_insight_request(http_request.body)
        self._require_dataset(request.dataset)
        if root is not None:
            root.set_attribute("dataset", request.dataset)
        # An ``admission.wait`` span is synthesized after the fact, and
        # only when admission actually made the request wait: on an
        # unloaded server the slot is granted in microseconds, and a
        # zero-length span on every request is pure overhead (tracing is
        # budgeted against the cached hot path — see the throughput
        # benchmark's ``tracing_overhead`` regime).
        admit_started = self.tracer.clock()
        # Staleness-bounded reads are eligible for replica routing, and
        # a replica-served request must bypass the coalescer: batches
        # coalesce onto the primary's workspace, which would silently
        # discard the client's freshness/offload intent.
        use_coalescer = self._coalescer is not None and (
            request.max_lag_seq is None or not self._replicas
        )
        # Coalescer-aware admission: the arrival is quota-checked and
        # parked without holding an in-flight slot through the coalesce
        # window — the dispatched batch takes exactly one slot instead.
        admit = (self.admission.admit_coalesced if use_coalescer
                 else self.admission.admit)
        async with admit([request.dataset], request.insight_classes):
            if self.tracer.clock() - admit_started >= _WAIT_SPAN_FLOOR:
                self.tracer.record_span("admission.wait", root, admit_started)
            # A reply the workspace already holds, or can rank from its
            # snapshot's insight index without enumerating or scoring,
            # is sent from here, on the loop: it can share no work, so it
            # joins no batch and hops to no thread.  Only a "no" goes on
            # to be computed.
            workspace = self._select_workspace(request)
            cached = workspace.peek_cached(request, parent=root)
            if cached is not None:
                self.metrics.record_fast_hit()
                return 200, self._answered(root, "loop", cached)
            warm = workspace.answer_warm(request, parent=root)
            if warm is not None:
                return 200, self._answered(root, "loop", warm)
            if use_coalescer:
                response = await self._coalesced(request, root)
                where = "coalescer"
            else:
                response = await self._direct(workspace, request, root)
                where = "pool"
        return 200, self._answered(root, where, response.reply_json())

    @staticmethod
    def _answered(root: Any, where: str, reply: str) -> bytes:
        """The reply's bytes; the root span records where it was answered."""
        if root is not None:
            root.set_attribute("answered", where)
        return reply.encode()

    async def _coalesced(self, request: InsightRequest, root: Any) -> Any:
        """Ride the open coalesce batch to this request's response."""
        # Covers the coalescing window plus the shared batch dispatch;
        # the batch's own trace cross-references this one via
        # request_trace_id on its rider spans.
        parked = self.tracer.start_span("coalesce.wait", parent=root)
        try:
            return await self._coalescer.submit(
                request,
                trace_id=root.trace_id if root is not None else None,
            )
        finally:
            parked.end()

    async def _direct(self, workspace: Workspace, request: InsightRequest,
                      root: Any) -> Any:
        """One ``handle`` on a worker thread, outside any batch."""
        self.metrics.record_direct()
        # bind() carries the root onto the worker thread so the
        # workspace.handle span parents to this request.  The handoff
        # gets a span only when it was slow: ``request.dispatch``
        # measures the executor queue wait (submit until a worker picks
        # the job up) and is synthesized from the worker thread only
        # when that wait reached the floor — a free pool records nothing.
        tracer = self.tracer
        dispatch_started = tracer.clock()

        def dispatched(req):
            if tracer.clock() - dispatch_started >= _WAIT_SPAN_FLOOR:
                tracer.record_span("request.dispatch", root, dispatch_started)
            return workspace.handle(req)

        return await asyncio.get_running_loop().run_in_executor(
            self._pool, bind(root, dispatched), request,
        )

    async def _post_insights_batch(
        self, http_request: _HttpRequest
    ) -> tuple[int, Any]:
        payload = self._parse_json(http_request.body)
        if isinstance(payload, dict):
            items = payload.get("requests")
        elif isinstance(payload, list):
            items = payload
        else:
            items = None
        if not isinstance(items, list) or not items:
            raise ProtocolError(
                'batch body must be {"requests": [...]} with at least one request'
            )
        requests = []
        for index, item in enumerate(items):
            if not isinstance(item, dict):
                raise ProtocolError(f"batch request #{index} must be an object")
            try:
                requests.append(InsightRequest.from_dict(item))
            except ProtocolError as exc:
                raise ProtocolError(f"batch request #{index}: {exc}") from None
        for request in requests:
            self._require_dataset(request.dataset)
        datasets = [request.dataset for request in requests]
        classes = [
            name for request in requests for name in request.insight_classes
        ]
        loop = asyncio.get_running_loop()
        async with self.admission.admit(datasets, classes):
            responses = await loop.run_in_executor(
                self._pool, self._workspace.handle_many, requests
            )
        return 200, {
            "protocol": 1,
            "responses": [response.to_dict() for response in responses],
        }

    async def _get_datasets(self, _request: _HttpRequest) -> tuple[int, Any]:
        return 200, {"protocol": 1, "datasets": self._workspace.describe()}

    async def _get_healthz(self, _request: _HttpRequest) -> tuple[int, Any]:
        host, port = self.address
        return 200, {
            "status": "draining" if self._stopping else "ok",
            "host": host,
            "port": port,
            "uptime_seconds": (
                time.time() - self._started_at if self._started_at else 0.0
            ),
            "datasets": self._workspace.datasets(),
            "in_flight": self.admission.snapshot()["in_flight"],
            # slow_ms is the tracer's live threshold: traces:config moves it.
            "config": {**self.config.as_dict(),
                       "obs": {**self._workspace.obs_config.as_dict(),
                               "slow_ms": self.tracer.slow_ms}},
        }

    async def _get_debug(self, request: _HttpRequest) -> tuple[int, Any]:
        """``GET /v1/debug``: memory ledger, cost windows, watchdog state.

        Every value is an already-maintained counter — the endpoint
        never walks live objects — so it is safe to poll against a
        loaded server.  ``?top_k=`` overrides how many of the most
        CPU-expensive recent requests are listed (default
        ``ObsConfig.debug_top_k``).
        """
        params = request.query_params()
        top_k = None
        if "top_k" in params:
            try:
                top_k = int(params["top_k"])
            except ValueError:
                raise ProtocolError(
                    f"top_k must be an integer, got {params['top_k']!r}"
                ) from None
            if top_k < 0:
                raise ProtocolError(f"top_k must be >= 0, got {top_k}")
        document = self._workspace.debug_info(top_k=top_k)
        document["watchdogs"]["event_loop_lag"] = self.loop_lag.snapshot()
        return 200, {"protocol": 1, **document}

    async def _get_metrics(self, request: _HttpRequest) -> tuple[int, Any]:
        datasets = self._workspace.describe()
        resources = self._workspace.debug_info(top_k=0)
        resources["watchdogs"]["event_loop_lag"] = self.loop_lag.snapshot()
        document = {
            "server": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "workspace": {
                "cache": self._workspace.cache_info(),
                "pipeline": self._workspace.pipeline_stats(),
                "datasets": datasets,
                "engine_builds": sum(d["engine_builds"] for d in datasets),
                "ingest": self._workspace.ingest_stats(),
            },
            "obs": {
                "tracing": self.tracer.stats(),
                "spans": self.tracer.histograms(),
            },
            "resources": resources,
        }
        accept = request.headers.get("accept", "")
        if "text/plain" in accept.lower():
            # Content negotiation: a Prometheus scraper sends
            # ``Accept: text/plain`` and gets the text exposition; the
            # JSON document stays the default for everyone else.
            return (200, render_prometheus(document).encode("utf-8"),
                    {"Content-Type": PROMETHEUS_CONTENT_TYPE})
        return 200, document

    # ------------------------------------------------------------------
    # Trace surface
    # ------------------------------------------------------------------
    async def _get_traces(self, request: _HttpRequest) -> tuple[int, Any]:
        """``GET /v1/traces``: recently finished traces, newest first.

        Query parameters: ``dataset`` keeps traces with a span whose
        ``dataset`` attribute matches; ``min_duration_ms`` keeps traces
        at least that long; ``since_ms`` (Unix epoch milliseconds) keeps
        traces that *started* strictly after that instant — pass the
        newest seen ``start_unix * 1000`` back as a poll cursor;
        ``limit`` caps the count.
        """
        params = request.query_params()
        dataset = params.get("dataset")
        min_duration_ms = None
        if "min_duration_ms" in params:
            try:
                min_duration_ms = float(params["min_duration_ms"])
            except ValueError:
                raise ProtocolError(
                    "min_duration_ms must be a number, got "
                    f"{params['min_duration_ms']!r}"
                ) from None
        since_ms = None
        if "since_ms" in params:
            try:
                since_ms = float(params["since_ms"])
            except ValueError:
                raise ProtocolError(
                    f"since_ms must be a number, got {params['since_ms']!r}"
                ) from None
        limit = None
        if "limit" in params:
            try:
                limit = int(params["limit"])
            except ValueError:
                raise ProtocolError(
                    f"limit must be an integer, got {params['limit']!r}"
                ) from None
            if limit < 1:
                raise ProtocolError(f"limit must be >= 1, got {limit}")
        return 200, {
            "protocol": 1,
            "tracing": self.tracer.stats(),
            "traces": self.tracer.traces(
                dataset=dataset, min_duration_ms=min_duration_ms,
                limit=limit, since_ms=since_ms,
            ),
        }

    async def _get_trace(
        self, _request: _HttpRequest, trace_id: str
    ) -> tuple[int, Any]:
        """``GET /v1/traces/{id}``: one trace as a nested span tree."""
        trace = self.tracer.trace(trace_id)
        if trace is None:
            return 404, error_envelope(
                "unknown_trace",
                f"no trace {trace_id!r}: it never existed, was evicted "
                "from the ring, or has not finished yet",
            )
        return 200, {"protocol": 1, "trace": trace}

    async def _post_traces_config(
        self, http_request: _HttpRequest
    ) -> tuple[int, Any]:
        """``POST /v1/traces:config``: adjust tracing at runtime.

        Body: ``{"slow_ms": <number>}`` — the new slow-request
        threshold.  Answers the applied tracer state.
        """
        payload = self._parse_json(http_request.body)
        if not isinstance(payload, dict):
            raise ProtocolError("traces:config body must be an object")
        unknown = set(payload) - {"slow_ms"}
        if unknown:
            raise ProtocolError(
                f"unknown traces:config keys: {sorted(unknown)}"
            )
        if "slow_ms" not in payload:
            raise ProtocolError('traces:config body requires "slow_ms"')
        slow_ms = payload["slow_ms"]
        if not isinstance(slow_ms, (int, float)) or isinstance(slow_ms, bool):
            raise ProtocolError(
                f"slow_ms must be a number, got {type(slow_ms).__name__}"
            )
        if slow_ms < 0:
            raise ProtocolError(f"slow_ms must be >= 0, got {slow_ms}")
        self.tracer.set_slow_ms(float(slow_ms))
        return 200, {"protocol": 1, "tracing": self.tracer.stats()}

    # ------------------------------------------------------------------
    # Dataset management (the write surface)
    # ------------------------------------------------------------------
    async def _put_dataset(
        self, http_request: _HttpRequest, name: str
    ) -> tuple[int, Any]:
        """``PUT /v1/datasets/{name}``: register a loader or inline table.

        Body shapes (all JSON objects):

        * ``{"loader": "<registry name>"}`` — register one of the
          server's trusted named loaders (lazily, like ``repro-serve``'s
          bundled datasets);
        * ``{"rows": [{...}, ...]}`` — inline row records;
        * ``{"columns": {"col": [...], ...}}`` — inline columns;

        plus optional ``"kinds": {"col": "numeric"|"categorical"|
        "boolean"}`` overrides for inline tables and ``"replace": true``
        to re-register an existing name (a version bump, like reload).
        Registering an existing name without ``replace`` answers 409.
        """
        payload = self._parse_json(http_request.body)
        if not isinstance(payload, dict):
            raise ProtocolError("dataset registration body must be an object")
        replace = bool(payload.get("replace", False))
        if name in self._workspace and not replace:
            return 409, error_envelope(
                "dataset_exists",
                f"dataset {name!r} is already registered; pass "
                '"replace": true to overwrite it',
            )

        def _register() -> tuple[int, int]:
            # Everything that can block runs on a pool thread: inline
            # table materialisation (kind inference over every cell),
            # Workspace.register, and the state() read, which contends
            # the entry lock a racing engine build may hold for seconds.
            source = self._registration_source(name, payload)
            self._workspace.register(name, source, replace=replace)
            return self._workspace.state(name)

        loop = asyncio.get_running_loop()
        async with self.admission.admit([name], [], writes=[name]):
            try:
                with self._writing():
                    version, seq = await loop.run_in_executor(self._pool,
                                                              _register)
            except ServiceError as exc:
                if not isinstance(exc, (ProtocolError, UnknownDatasetError)):
                    # Two racing PUTs without "replace" both passed the
                    # pre-check above; the loser's register() raises the
                    # duplicate-name ServiceError — still a 409, not a 500.
                    return 409, error_envelope("dataset_exists", str(exc))
                raise
        return 200, {
            "protocol": 1,
            "dataset": name,
            "version": version,
            "seq": seq,
            "source": "loader" if "loader" in payload else "inline",
        }

    def _registration_source(self, name: str, payload: dict[str, Any]):
        """Resolve a PUT body into a Workspace-registrable source."""
        kinds_raw = payload.get("kinds") or {}
        if not isinstance(kinds_raw, dict):
            raise ProtocolError('"kinds" must be an object of column kinds')
        try:
            kinds = {
                column: ColumnKind(kind) for column, kind in kinds_raw.items()
            }
        except ValueError as exc:
            raise ProtocolError(f"invalid column kind: {exc}") from None
        if "loader" in payload:
            loader_name = payload["loader"]
            loader = self.loaders.get(loader_name)
            if loader is None:
                raise ProtocolError(
                    f"unknown loader {loader_name!r}; available loaders: "
                    f"{', '.join(sorted(self.loaders)) or 'none'}"
                )
            return loader
        if "rows" in payload:
            rows = payload["rows"]
            if not isinstance(rows, list) or not rows:
                raise ProtocolError('"rows" must be a non-empty list of records')
            return DataTable.from_records(rows, name=name, kinds=kinds)
        if "columns" in payload:
            columns = payload["columns"]
            if not isinstance(columns, dict) or not columns:
                raise ProtocolError('"columns" must be a non-empty object')
            return DataTable.from_columns(columns, name=name, kinds=kinds)
        raise ProtocolError(
            'dataset registration body needs one of "loader", "rows" '
            'or "columns"'
        )

    async def _post_rows(
        self, http_request: _HttpRequest, name: str
    ) -> tuple[int, Any]:
        """``POST /v1/datasets/{name}/rows``: append a validated batch.

        Body: ``{"rows": [{...}, ...]}``.  Success answers the new
        ingestion identity ``(version, seq)`` plus how the rows were
        absorbed (``delta_merge`` / ``rebuild`` / ``deferred``); a batch
        failing schema validation answers 400 with the per-row problems
        and changes nothing.
        """
        self._require_dataset(name)
        payload = self._parse_json(http_request.body)
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ProtocolError('append body must be {"rows": [...]}')
        rows = payload["rows"]
        if not isinstance(rows, list):
            raise ProtocolError('"rows" must be a list of records')
        loop = asyncio.get_running_loop()
        async with self.admission.admit([name], [], writes=[name]):
            with self._writing():
                result = await loop.run_in_executor(
                    self._pool, self._workspace.append, name, rows
                )
        return 200, {"protocol": 1, **result.as_dict()}

    async def _post_reload(
        self, _request: _HttpRequest, name: str
    ) -> tuple[int, Any]:
        """``POST /v1/datasets/{name}/reload``: re-run the loader.

        Bumps the version, resets the append journal (a new generation)
        and drops the dataset's cached state.
        """
        self._require_dataset(name)
        loop = asyncio.get_running_loop()
        async with self.admission.admit([name], [], writes=[name]):
            with self._writing():
                version = await loop.run_in_executor(
                    self._pool, self._workspace.reload, name
                )
        return 200, {
            "protocol": 1, "dataset": name, "version": version, "seq": 0,
        }

    def _writing(self) -> contextlib.AbstractContextManager[None]:
        """Count a write request in flight for the coalescer's idle rule."""
        if self._coalescer is None:
            return contextlib.nullcontext()
        return self._coalescer.writing()

    async def _post_flush(
        self, _request: _HttpRequest, name: str
    ) -> tuple[int, Any]:
        """``POST /v1/datasets/{name}/flush``: sync the durable journal.

        Forces every journalled record for the dataset to stable storage
        (meaningful when the workspace runs with
        ``IngestConfig(fsync=False)``; a barrier otherwise) and answers
        the flushed ``(version, seq)``.  ``durable`` is false when the
        server runs without a ``data_dir`` — the flush is then a no-op
        and the client knows the dataset will not survive a restart.
        """
        self._require_dataset(name)
        loop = asyncio.get_running_loop()
        async with self.admission.admit([name], []):
            result = await loop.run_in_executor(
                self._pool, self._workspace.flush, name
            )
        return 200, {"protocol": 1, **result}

    async def _get_journal(
        self, request: _HttpRequest, name: str
    ) -> tuple[int, Any]:
        """``GET /v1/datasets/{name}/journal``: positioned feed poll.

        The replication endpoint: a cursor-positioned read of the
        dataset's durable journal.  Without ``from`` (or when the cursor
        no longer lines up with the journal — compaction, generation
        bump, primary restart) the batch carries a full ``reset``
        state, its ``snapshot`` the base64 bytes of the generation's
        snapshot file; with a valid ``from=version:seq`` cursor it
        carries only the records past that position.  ``batch`` is null
        when the dataset has no durable state yet.  The records are the
        journal's own CRC'd payloads and the snapshot the file's own
        bytes — there is no second wire format.
        """
        self._require_dataset(name)
        if self._workspace.data_dir is None:
            return 409, error_envelope(
                "not_durable",
                "this server runs without a data_dir; there is no "
                "journal to replicate from",
            )
        params = request.query_params()
        position: FeedPosition | None = None
        raw_from = params.get("from")
        if raw_from is not None:
            try:
                position = FeedPosition.parse(raw_from)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None
        raw_max = params.get("max_records")
        try:
            max_records = 512 if raw_max is None else int(raw_max)
        except ValueError:
            raise ProtocolError(
                f"max_records must be an integer, got {raw_max!r}"
            ) from None
        if max_records < 1:
            raise ProtocolError("max_records must be >= 1")
        if self._feed is None:
            self._feed = JournalFeed(self._workspace.data_dir)
        feed = self._feed

        def poll() -> dict[str, Any] | None:
            # A reset re-encodes the snapshot: off the event loop too.
            batch = feed.poll(name, position, max_records)
            if batch is None:
                return None
            return {
                "reset": (durable_state_to_payload(batch.reset)
                          if batch.reset is not None else None),
                "records": batch.records,
                "position": batch.position.token(),
                "more": batch.more,
                "primary_seq": batch.primary_seq,
            }

        loop = asyncio.get_running_loop()
        encoded = await loop.run_in_executor(self._pool, poll)
        return 200, {"protocol": 1, "dataset": name, "batch": encoded}

    async def _post_promote(self, _request: _HttpRequest) -> tuple[int, Any]:
        """``POST /v1/replica:promote``: make a replica writable.

        Only meaningful on a server fronting a
        :class:`~repro.service.replica.ReplicaWorkspace` (the
        ``repro-serve --replica-of`` mode); a primary answers 409.  The
        promote stops the tailer and lifts the write refusal — it does
        not demote the old primary, which is the operator's runbook step
        (see ``docs/API.md``).
        """
        workspace = self._workspace
        promote = getattr(workspace, "promote", None)
        if promote is None or not hasattr(workspace, "promoted"):
            return 409, error_envelope(
                "not_a_replica",
                "this server fronts a primary workspace; promote is "
                "only valid on a --replica-of server",
            )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._pool, promote)
        return 200, {"protocol": 1, "promoted": True}

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------
    def _select_workspace(self, request: InsightRequest) -> Workspace:
        """Route a read to a replica when its staleness bound allows.

        Requests without ``max_lag_seq`` always hit the primary
        (read-your-writes).  Bounded requests round-robin across the
        attached replicas that both carry the dataset and are within the
        bound, falling back to the primary when none qualifies — a
        lagging replica costs freshness, never correctness.
        """
        if request.max_lag_seq is None or not self._replicas:
            return self._workspace
        eligible = []
        for replica in self._replicas:
            if request.dataset not in replica:
                continue
            lag = replica.replica_lag().get(request.dataset)
            if lag is not None and lag <= request.max_lag_seq:
                eligible.append(replica)
        if not eligible:
            return self._workspace
        return eligible[next(self._replica_rr) % len(eligible)]

    def _dispatch_coalesced_batch(
        self, requests: list[InsightRequest]
    ) -> list[Any]:
        """Coalescer dispatch: one ``handle_many``, per-request fallback.

        ``handle_many`` propagates the first failure, which would poison
        every request that happened to share the batch; on failure each
        request is retried individually so one bad request (e.g. an
        unknown insight class) only fails its own caller.  Successful
        requests re-run from the result cache, so the fallback is cheap.
        """
        try:
            return list(self._workspace.handle_many(requests))
        except Exception:  # noqa: BLE001 - isolate per request below
            results: list[Any] = []
            for request in requests:
                try:
                    results.append(self._workspace.handle(request))
                except Exception as exc:  # noqa: BLE001 - forwarded per caller
                    results.append(exc)
            return results

    def _parse_json(self, body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None

    def _parse_insight_request(self, body: bytes) -> InsightRequest:
        payload = self._parse_json(body)
        if not isinstance(payload, dict):
            raise ProtocolError("request JSON must be an object")
        return InsightRequest.from_dict(payload)

    def _require_dataset(self, name: str) -> None:
        if name not in self._workspace:
            raise UnknownDatasetError(name, self._workspace.datasets())

    @staticmethod
    def _error_payload(exc: Exception) -> tuple[int, dict[str, Any]]:
        """Map an exception to (status, structured error envelope)."""
        status, code, details = error_reply(exc)
        message = (str(exc) if isinstance(exc, ForesightError)
                   else f"{type(exc).__name__}: {exc}")
        return status, error_envelope(code, message, **details)


class ServerHandle:
    """Controls a server running on a background event-loop thread."""

    def __init__(self, server: ReproServer, loop: asyncio.AbstractEventLoop,
                 stop_event: asyncio.Event, thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its loop thread (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain), self._loop
        )
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@contextlib.contextmanager
def serving(
    workspace: Workspace, config: ServerConfig | None = None
) -> Iterator[ServerHandle]:
    """Run a server for the duration of a ``with`` block (tests, demos)."""
    handle = ReproServer(workspace, config).start_in_thread()
    try:
        yield handle
    finally:
        handle.stop()


__all__ = ["ReproServer", "ServerHandle", "serving"]
