"""One encode per computed answer, and the texts it yields.

A miss encodes its answer once, as the text the result cache stores
(``provenance.cache`` reading ``"hit"``); the miss reply sent — by
:meth:`Workspace.answer_warm`, by :meth:`Workspace.handle_json` and by
the server's pool and coalescer paths (``InsightResponse.reply_json``) —
is derived from that text.  Generated here: attribute names holding
quotes, backslashes, non-ASCII text and the literal text the derivation
looks for, ``debug`` requests, paged requests with a ``next_cursor``,
and coalesced batch members.  Whatever the path, the cached text and the
reply each equal a fresh encode of the answer object with ``cache`` set
to ``"hit"`` (per-serve entries aside) and ``"miss"``.

A work count pins the saving: one warm miss makes exactly one call each
to ``InsightResponse.to_json``, ``InsightRequest.to_json`` and
``Workspace._page_queries``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Workspace
from repro.data import DataTable
from repro.server.coalesce import RequestCoalescer
from repro.service import InsightRequest, InsightResponse
from repro.service.cursor import encode_cursor
from repro.service.dto import _canonical_json

CLASSES = ("skew", "outliers", "dispersion", "linear_relationship")
#: Entries of ``provenance`` one serving stamps and the cache never holds.
PER_SERVE = ("batch", "coalesced", "cost")
MARKER = '"provenance":{"cache":"hit"'

_names = st.lists(
    st.one_of(
        st.text(alphabet='"\\é→{}:,ab', min_size=1, max_size=6),
        st.sampled_from([MARKER, MARKER + "}", '"provenance":{"cache":"miss"',
                         'ünï"cödé\\']),
    ),
    min_size=3, max_size=3, unique=True,
)
_served = st.fixed_dictionaries({
    "path": st.sampled_from(["answer_warm", "handle_json", "batch",
                             "coalesced"]),
    "debug": st.booleans(),
    "paged": st.sampled_from([None, 0, 1]),
    "excluded": st.booleans(),
})


def _table(names: list[str]) -> DataTable:
    rng = np.random.default_rng(5)
    columns = {name: rng.normal(size=80) ** (index + 1)
               for index, name in enumerate(names)}
    return DataTable.from_columns(columns, name="odd")


def _requests(names: list[str], served: dict) -> list[InsightRequest]:
    payload = {"dataset": "odd", "insight_classes": list(CLASSES), "top_k": 2,
               "debug": served["debug"]}
    if served["excluded"]:
        payload["excluded"] = [names[0]]
    if served["paged"] is not None:
        payload["top_k"] = 1
        payload["cursor"] = (encode_cursor(1) if served["paged"] else None)
    first = InsightRequest.from_dict(payload)
    second = InsightRequest.from_dict({**payload, "top_k": payload["top_k"] + 1})
    return [first, second]


def _serve(workspace: Workspace, path: str,
           requests: list[InsightRequest]) -> list[str]:
    if path == "answer_warm":
        replies = [workspace.answer_warm(request) for request in requests]
        assert None not in replies
        return replies
    if path == "handle_json":
        return [workspace.handle_json(
            json.dumps({**request.to_dict(), "debug": request.debug}))
            for request in requests]
    if path == "batch":
        return [response.reply_json()
                for response in workspace.handle_many(requests)]

    async def coalesced() -> list[InsightResponse]:
        coalescer = RequestCoalescer(workspace.handle_many, window=0.05,
                                     max_batch=len(requests))
        return await asyncio.gather(*(coalescer.submit(request)
                                      for request in requests))

    return [response.reply_json() for response in asyncio.run(coalesced())]


@settings(max_examples=40, deadline=None)
@given(names=_names, served=_served)
def test_cached_text_and_reply_are_the_answer_encoded(names, served):
    workspace = Workspace()
    workspace.register("odd", _table(names))
    # The carousel fills the index: every request below is a warm miss.
    workspace.handle(InsightRequest(dataset="odd", insight_classes=CLASSES,
                                    top_k=5))
    requests = _requests(names, served)
    answers: list[InsightResponse] = []
    cache_json = InsightResponse.cache_json

    def spy(response: InsightResponse) -> str:
        answers.append(response)
        return cache_json(response)

    with mock.patch.object(InsightResponse, "cache_json", spy):
        replies = _serve(workspace, served["path"], requests)
    assert len(answers) == len(requests)
    version, seq = workspace.state("odd")
    for request, reply, answer in zip(requests, replies, answers):
        sent = answer.to_dict()
        assert sent["provenance"]["cache"] == "miss"
        assert reply == _canonical_json(sent)
        kept = {key: value for key, value in sent["provenance"].items()
                if key not in PER_SERVE}
        cached = workspace.cache.peek(
            ("odd", version, seq, request.canonical_key()))
        assert cached == _canonical_json(
            {**sent, "provenance": {**kept, "cache": "hit"}})
        assert ("cost" in sent["provenance"]) == request.debug
    if served["paged"] == 0:
        assert any(json.loads(reply)["next_cursor"] for reply in replies)


def test_a_cache_json_after_a_provenance_change_is_encoded_anew():
    response = InsightResponse(dataset="d", dataset_version=1,
                               provenance={"cache": "miss", "mode": "exact"})
    assert json.loads(response.cache_json())["provenance"]["cache"] == "hit"
    assert response.reply_json() == response.to_json()
    response.provenance["mode"] = "approximate"
    assert response.reply_json() == response.to_json()
    response.provenance = {**response.provenance, "batch": {"index": 0,
                                                            "size": 1}}
    assert response.reply_json() == response.to_json()
    assert json.loads(response.reply_json())["provenance"]["cache"] == "miss"


@contextlib.contextmanager
def _counted():
    """Call counts of the three steps a read must do once each."""
    with contextlib.ExitStack() as stack:
        mocks = {
            "InsightResponse.to_json": stack.enter_context(mock.patch.object(
                InsightResponse, "to_json", autospec=True,
                side_effect=InsightResponse.to_json)),
            "InsightRequest.to_json": stack.enter_context(mock.patch.object(
                InsightRequest, "to_json", autospec=True,
                side_effect=InsightRequest.to_json)),
            "Workspace._page_queries": stack.enter_context(mock.patch.object(
                Workspace, "_page_queries",
                side_effect=Workspace._page_queries)),
        }
        calls: dict[str, int] = {}
        yield calls
        calls.update({name: spy.call_count for name, spy in mocks.items()})


ONCE_EACH = {"InsightResponse.to_json": 1, "InsightRequest.to_json": 1,
             "Workspace._page_queries": 1}


def test_one_warm_miss_does_each_step_once(oecd_table):
    workspace = Workspace()
    workspace.register("oecd", oecd_table)
    workspace.handle(InsightRequest(dataset="oecd", insight_classes=CLASSES,
                                    top_k=3))
    request = InsightRequest.from_dict(
        {"dataset": "oecd", "insight_classes": list(CLASSES), "top_k": 2})
    with _counted() as calls:
        # The server's order: the cache peek, then the warm answer.
        assert workspace.peek_cached(request) is None
        reply = workspace.answer_warm(request)
    assert json.loads(reply)["provenance"]["cache"] == "miss"
    assert calls == ONCE_EACH


def test_one_miss_through_handle_json_encodes_its_answer_once(oecd_table):
    workspace = Workspace()
    workspace.register("oecd", oecd_table)
    text = InsightRequest(dataset="oecd", insight_classes=CLASSES,
                          top_k=2).to_json()
    with _counted() as calls:
        reply = workspace.handle_json(text)
    assert json.loads(reply)["provenance"]["cache"] == "miss"
    assert calls == ONCE_EACH
