"""HTTP transport for the replication feed.

:class:`HttpFeedSource` adapts the primary's
``GET /v1/datasets/{name}/journal`` endpoint to the
:class:`~repro.service.replica.FeedSource` interface, so a
:class:`~repro.service.replica.ReplicaWorkspace` in another process (or
on another host) tails the primary exactly like a local one tails a
shared data directory.  The records on the wire are the journal's own
payloads, and a bootstrap reset's snapshot is the bytes of the
primary's ``snapshot-<version>.bin`` (base64) — the endpoint is a
positioned read of the WAL, not a second replication protocol, so
primary and replica must run the same snapshot format.

Transport failures surface as :class:`~repro.errors.ServiceError` so
the replica's tailer treats an unreachable primary uniformly (retry,
and optionally auto-promote after ``promote_after`` seconds).  A reset
whose snapshot does not decode is refused the same way: the replica
keeps the state it has and records the error.
"""

from __future__ import annotations

import http.client
import urllib.parse
from typing import Any

from repro.errors import ServiceError
from repro.ingest.durable import (
    FeedBatch,
    FeedPosition,
    durable_state_from_payload,
)
from repro.ingest.snapshot_codec import SnapshotDecodeError
from repro.server.client import ReproClient
from repro.service.replica import FeedSource


class HttpFeedSource(FeedSource):
    """Tail a remote primary over its HTTP journal endpoint.

    One source wraps one keep-alive connection (via
    :class:`~repro.server.client.ReproClient`) and, like the client, is
    not thread-safe — the replica's single sync pass is its only caller.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self._client = ReproClient(host, port, timeout=timeout)

    @classmethod
    def from_url(cls, url: str, timeout: float = 30.0) -> "HttpFeedSource":
        """Build a source from ``http://host:port`` (the --replica-of form)."""
        parsed = urllib.parse.urlparse(
            url if "//" in url else f"//{url}", scheme="http"
        )
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceError(
                f"--replica-of expects http://host:port, got {url!r}"
            )
        return cls(parsed.hostname, parsed.port or 80, timeout=timeout)

    def dataset_names(self) -> list[str]:
        try:
            return [item["name"] for item in self._client.datasets()]
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            raise ServiceError(
                f"primary {self.host}:{self.port} is unreachable: {exc}"
            ) from exc

    def poll(self, name: str, position: FeedPosition | None,
             max_records: int) -> FeedBatch | None:
        quoted = urllib.parse.quote(name, safe="")
        params: dict[str, str] = {"max_records": str(max_records)}
        if position is not None:
            params["from"] = position.token()
        path = (f"/v1/datasets/{quoted}/journal?"
                + urllib.parse.urlencode(params))
        try:
            payload = self._client._request("GET", path)
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            raise ServiceError(
                f"primary {self.host}:{self.port} is unreachable: {exc}"
            ) from exc
        batch = payload.get("batch")
        if batch is None:
            return None
        return self._decode_batch(name, batch)

    def _decode_batch(self, name: str, batch: dict[str, Any]) -> FeedBatch:
        reset = batch.get("reset")
        try:
            state = (durable_state_from_payload(reset)
                     if reset is not None else None)
        except SnapshotDecodeError as exc:
            raise ServiceError(
                f"primary {self.host}:{self.port} sent an unreadable "
                f"reset for {name!r}: {exc}"
            ) from exc
        return FeedBatch(
            dataset=name,
            reset=state,
            records=list(batch.get("records") or []),
            position=FeedPosition.parse(batch["position"]),
            more=bool(batch.get("more", False)),
            primary_seq=int(batch.get("primary_seq", 0)),
        )

    def close(self) -> None:
        self._client.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HttpFeedSource(http://{self.host}:{self.port})"


__all__ = ["HttpFeedSource"]
