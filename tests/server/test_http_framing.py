"""HTTP framing over raw sockets: what ``_read_request`` accepts and refuses.

Every refusal of the request reader is pinned here byte-level, with no
client library in between: a malformed request line, a malformed header
line, more than 100 headers, a line over the stream limit, a malformed
or negative ``Content-Length``, and a body over ``max_body_bytes``.
Each answers one error envelope with ``Connection: close`` and then EOF.
A request with no headers and an LF-only head are accepted.

Also pinned: connection persistence (an HTTP/1.0 request is persistent
only when it sends ``Connection: keep-alive``, RFC 9112 §9.3) and the
per-read timeout (a timer per read, so the gaps between keep-alive
requests are timed one by one, a slow handler is never cut off, and an
external cancel is never taken for a timeout).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.server import ReproServer, ServerConfig, serving

#: asyncio's default StreamReader limit: a longer line is refused.
STREAM_LIMIT = 2 ** 16


def _read_response(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    """One response off ``sock``: status, lower-cased headers, body."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {buffer!r}"
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1.1 ")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length, "bytes past the announced body"
    return int(status_line.split()[1]), headers, body


def _at_eof(sock: socket.socket) -> bool:
    sock.settimeout(5)
    return sock.recv(65536) == b""


@pytest.fixture()
def address(server_workspace):
    config = ServerConfig(port=0, read_timeout=5.0, max_body_bytes=4096)
    with serving(server_workspace, config) as handle:
        yield handle.address


def _refused(address, raw: bytes) -> tuple[int, dict]:
    """Send ``raw``; the reply must be an error envelope, then EOF."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(raw)
        status, headers, body = _read_response(sock)
        assert headers["connection"] == "close"
        assert _at_eof(sock)
    payload = json.loads(body)
    assert payload["status"] == "error"
    return status, payload


class TestRefusals:
    def test_a_malformed_request_line(self, address):
        status, payload = _refused(address, b"GARBAGE\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "malformed HTTP request line"

    def test_a_request_line_of_another_protocol(self, address):
        status, payload = _refused(address, b"GET /healthz HTTP/2.0\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "malformed HTTP request line"

    def test_a_malformed_header_line(self, address):
        status, payload = _refused(
            address, b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "malformed header line"

    def test_more_than_100_headers(self, address):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        status, payload = _refused(
            address, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "too many headers"

    def test_100_headers_are_accepted(self, address):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(99))
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + headers
                         + b"Connection: close\r\n\r\n")
            status, _headers, _body = _read_response(sock)
            assert status == 200

    def test_a_request_line_over_the_limit(self, address):
        target = b"/" + b"a" * STREAM_LIMIT
        status, payload = _refused(
            address, b"GET " + target + b" HTTP/1.1\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "request line too long"

    def test_a_header_line_over_the_limit(self, address):
        value = b"v" * STREAM_LIMIT
        status, payload = _refused(
            address, b"GET /healthz HTTP/1.1\r\nX-Long: " + value + b"\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "header line too long"

    def test_a_malformed_content_length(self, address):
        status, payload = _refused(
            address, b"POST /v1/insights HTTP/1.1\r\nContent-Length: ten"
                     b"\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "malformed Content-Length header"

    def test_a_negative_content_length(self, address):
        status, payload = _refused(
            address, b"POST /v1/insights HTTP/1.1\r\nContent-Length: -5"
                     b"\r\n\r\n")
        assert (status, payload["code"]) == (400, "bad_request")
        assert payload["message"] == "negative Content-Length"

    def test_a_body_over_the_limit_is_413(self, address):
        status, payload = _refused(
            address, b"POST /v1/insights HTTP/1.1\r\nContent-Length: 4097"
                     b"\r\n\r\n")
        assert (status, payload["code"]) == (413, "payload_too_large")
        assert "4097" in payload["message"]


class TestAcceptedHeads:
    def test_a_request_with_no_headers(self, address):
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert json.loads(body)["status"] == "ok"

    def test_an_lf_only_head(self, address):
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\nConnection: close\n\n")
            status, headers, body = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert json.loads(body)["status"] == "ok"
            assert _at_eof(sock)

    def test_an_lf_only_post_with_a_body(self, address):
        body = json.dumps({"dataset": "demo", "insight_classes": ["skew"],
                           "top_k": 2}).encode()
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"POST /v1/insights HTTP/1.1\nContent-Length: %d\n\n"
                         % len(body) + body)
            status, _headers, reply = _read_response(sock)
            assert status == 200
            assert json.loads(reply)["dataset"] == "demo"


class TestPersistence:
    def test_http_1_0_without_keep_alive_is_closed(self, address):
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            started = time.monotonic()
            status, headers, _body = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert _at_eof(sock)
            # Closed at once, not when the 5 s read timeout reclaims it.
            assert time.monotonic() - started < 2.5

    def test_http_1_0_with_keep_alive_stays_open(self, address):
        with socket.create_connection(address, timeout=5) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                             b"Connection: Keep-Alive\r\n\r\n")
                status, headers, _body = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"

    def test_http_1_1_is_persistent_unless_it_asks_to_close(self, address):
        with socket.create_connection(address, timeout=5) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                status, headers, _body = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, headers, _body = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert _at_eof(sock)


class TestReadTimer:
    def test_gaps_under_the_timeout_never_add_up(self, server_workspace):
        config = ServerConfig(port=0, read_timeout=0.4)
        with serving(server_workspace, config) as handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                started = time.monotonic()
                for _ in range(10):
                    time.sleep(0.1)
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                    status, headers, _body = _read_response(sock)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                # The whole exchange outlasted one read timeout.
                assert time.monotonic() - started > 2 * config.read_timeout

    def test_a_handler_slower_than_the_timeout_is_never_cancelled(
            self, server_workspace):
        handle_many = server_workspace.handle_many

        def slow(requests):
            time.sleep(0.8)
            return handle_many(requests)

        server_workspace.handle_many = slow
        body = json.dumps({"dataset": "demo", "insight_classes": ["skew"],
                           "top_k": 2}).encode()
        config = ServerConfig(port=0, read_timeout=0.3)
        with serving(server_workspace, config) as handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(b"POST /v1/insights HTTP/1.1\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body) + body)
                status, headers, reply = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(reply)["dataset"] == "demo"
                # The connection outlived the slow answer and still serves.
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert _read_response(sock)[0] == 200

    def test_stop_during_an_idle_read_drains_without_a_408(
            self, server_workspace):
        config = ServerConfig(port=0, read_timeout=30.0, drain_timeout=5.0)
        handle = ReproServer(server_workspace, config).start_in_thread()
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(sock)[0] == 200
            stopper = threading.Thread(target=handle.stop)
            started = time.monotonic()
            stopper.start()
            # The idle connection is closed by the drain: no 408 first.
            assert _at_eof(sock)
            stopper.join(timeout=10)
            assert not stopper.is_alive()
            assert time.monotonic() - started < config.drain_timeout

    def test_an_external_cancel_is_not_a_timeout(self, server_workspace):
        async def scenario() -> tuple[bool, bytes]:
            server = ReproServer(server_workspace,
                                 ServerConfig(port=0, read_timeout=5.0))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"GET /healthz HTTP/1.1\r\n")  # a started read
                await writer.drain()
                await asyncio.sleep(0.1)
                (connection,) = [
                    task for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__
                    == "ReproServer._serve_connection"
                ]
                connection.cancel()
                await asyncio.wait([connection], timeout=5)
                sent = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                return connection.cancelled(), sent
            finally:
                await server.stop()

        cancelled, sent = asyncio.run(scenario())
        assert cancelled  # re-raised, not swallowed as a timeout
        assert sent == b""  # and no 408 went out
