"""Request fields are typed at the edge, and failures map through one table.

* Every ``InsightRequest`` field accepts only the JSON type docs/API.md
  documents; any other value is a ``protocol_error``, never a coercion
  and never an exception out of ``Workspace.handle_json`` or a 500.
* ``Workspace.handle_json`` and the HTTP server answer a failure with
  the same envelope (``repro.service.dto.error_reply``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.datasets import make_mixed_table
from repro.errors import (
    AdmissionRejected,
    DeltaValidationError,
    ForesightError,
    ProtocolError,
    QueryError,
    ReplicaReadOnlyError,
    UnknownDatasetError,
    UnknownInsightClassError,
)
from repro.server import ReproClient, ServerConfig, serving
from repro.service import InsightRequest, Workspace, is_error_envelope
from repro.service.dto import error_reply

BASE = {"dataset": "demo", "insight_classes": ["skew", "outliers"],
        "top_k": 2}

FIELDS = ("protocol", "dataset", "insight_classes", "top_k", "fixed",
          "excluded", "tags", "metric_min", "metric_max", "mode",
          "max_candidates", "cursor", "debug", "max_lag_seq")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def served():
    table = make_mixed_table(n_rows=120, n_numeric=3, n_categorical=1, seed=3)
    workspace = Workspace()
    workspace.register("demo", lambda: table)
    with serving(workspace, ServerConfig(port=0)) as handle:
        with ReproClient(*handle.address) as client:
            yield workspace, client
    workspace.close()


def _both(served, body: dict) -> tuple[dict, object]:
    """``handle_json``'s decoded answer and the HTTP exchange, same body."""
    workspace, client = served
    text = json.dumps(body)
    return json.loads(workspace.handle_json(text)), client.request_raw(
        "POST", "/v1/insights", text)


class TestTypedFields:
    @pytest.mark.parametrize("bad", [
        {"metric_min": "abc"},
        {"metric_min": {}},
        {"metric_max": True},
        {"max_candidates": "many"},
        {"cursor": 5},
        {"debug": "false"},
        {"top_k": "3"},
        {"top_k": 2.0},
        {"fixed": ["a", 1]},
        {"dataset": 7},
        {"insight_classes": None},
        {"max_lag_seq": 1.5},
        {"metric_min": 10 ** 400},
        {"protocol": True},
        {"protocol": 1.0},
    ], ids=lambda bad: f"{next(iter(bad))}={next(iter(bad.values()))!r}"[:40])
    def test_mistyped_field_is_a_protocol_error(self, served, bad):
        direct, http = _both(served, {**BASE, **bad})
        assert direct["code"] == "protocol_error", direct
        assert http.status == 400
        assert http.payload == direct

    def test_a_single_name_string_is_one_name(self):
        request = InsightRequest.from_dict({**BASE, "fixed": "attr_000"})
        assert request.fixed == ("attr_000",)

    def test_well_typed_wire_requests_decode_as_before(self):
        request = InsightRequest(
            dataset="demo", insight_classes=("skew",), top_k=3,
            fixed=("attr_000",), metric_min=0, metric_max=0.5, mode="exact",
            max_candidates=10, cursor=None)
        assert InsightRequest.from_json(request.to_json()) == request
        assert InsightRequest.from_json(request.to_json()).to_json() == \
            request.to_json()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(FIELDS), value=JSON_VALUES)
    def test_any_json_value_in_any_field(self, served, key, value):
        direct, http = _both(served, {**BASE, key: value})
        if http.status == 200:
            assert not is_error_envelope(direct)
        else:
            assert 400 <= http.status < 500, http.payload
            assert is_error_envelope(http.payload)
            assert http.payload == direct


class TestOneErrorTable:
    @pytest.mark.parametrize("exc", [
        AdmissionRejected("overloaded", "busy", 503, 1.0),
        UnknownDatasetError("nope", ["demo"]),
        UnknownInsightClassError("nope", ["skew"]),
        DeltaValidationError("demo", ["row 0: bad"]),
        ReplicaReadOnlyError("append", "demo"),
        ProtocolError("bad request"),
        QueryError("metric range is empty"),
        ForesightError("library fault"),
    ], ids=lambda exc: type(exc).__name__)
    def test_handle_json_and_http_give_the_same_envelope(self, served,
                                                         monkeypatch, exc):
        def refuse(cls, payload):
            raise exc

        monkeypatch.setattr(InsightRequest, "from_dict", classmethod(refuse))
        direct, http = _both(served, BASE)
        status, code, _details = error_reply(exc)
        assert direct["code"] == code
        assert (http.status, http.payload) == (status, direct)

    def test_an_empty_metric_range_is_an_envelope_not_a_raise(self, served):
        direct, http = _both(served, {**BASE, "metric_min": 0.9,
                                      "metric_max": 0.1})
        assert direct["code"] == "invalid_query"
        assert (http.status, http.payload) == (400, direct)

    def test_a_failure_from_outside_the_library_still_propagates(self):
        def broken():
            raise RuntimeError("loader bug")

        workspace = Workspace()
        workspace.register("broken", broken)
        with pytest.raises(RuntimeError):
            workspace.handle_json(json.dumps({**BASE, "dataset": "broken"}))
