"""Property tests: no POST body and no Content-Length header gets a 5xx.

Hypothesis builds request bodies for every POST endpoint (``/score``,
``/update``, ``/evict``, ``/swap``, ``/rollout``) from the real field names:
a valid request of the endpoint (the open stream, the served model, a valid
graph or delta payload or one with a field replaced), optional further
fields, then up to two fields set to arbitrary JSON — so generated requests
get past the first checks into the deep validation paths.  Some bodies are
arbitrary JSON, and arbitrary ``Content-Length`` strings are sent too.
Every answer of one module-scoped server must be below 500: a malformed
request is the client's fault and is answered as one, never with the
handler's defensive 500.
"""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ScoringClient, ScoringServer
from repro.serve.wire import delta_to_payload, graph_to_payload
from repro.stream import GraphDelta

STREAM = "fuzz-city"

#: every POST endpoint and the request fields it reads
ENDPOINT_FIELDS = {
    "/score": ("stream", "graph", "model", "version", "regions",
               "top_percent", "threshold"),
    "/update": ("stream", "graph", "delta", "model", "version", "rescore",
                "regions", "top_percent", "incremental",
                "incremental_cutoff", "fingerprints"),
    "/evict": ("stream",),
    "/swap": ("stream", "model", "version"),
    "/rollout": ("action", "model", "version", "stages", "canary_fraction",
                 "policy", "seed", "auto", "threshold", "act"),
}
#: the fields a valid request of each endpoint carries (one tuple per kind)
REQUIRED_FIELDS = {
    "/score": [("stream",), ("model", "graph")],
    "/update": [("stream", "delta"), ("stream", "model", "graph")],
    "/evict": [("stream",)],
    "/swap": [("stream", "model", "version")],
    "/rollout": [("action", "model", "version")],
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


def _post(server, path, body: bytes, length=None):
    """POST raw bytes on a fresh connection; returns (status, body)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length",
                       str(len(body)) if length is None else length)
        conn.endheaders()
        conn.send(body)
        # a Content-Length beyond the body then reads end-of-stream instead
        # of waiting for bytes that never come
        conn.sock.shutdown(socket.SHUT_WR)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _one_field_replaced(payload):
    """``payload`` as it is, or with one field replaced by arbitrary JSON."""
    replaced = st.sampled_from(sorted(payload)).flatmap(
        lambda key: JSON.map(lambda value: {**payload, key: value}))
    return st.just(payload) | replaced


@pytest.fixture(scope="module")
def server(model_registry, tiny_graph_small_image):
    with ScoringServer(model_registry, quiet=True) as running:
        client = ScoringClient(running.url)
        client.wait_until_ready()
        client.open_stream(STREAM, tiny_graph_small_image, "tiny")
        client.close()
        yield running


@pytest.fixture(scope="module")
def bodies(tiny_graph_small_image):
    """Request body strategy of each POST endpoint."""
    graph = tiny_graph_small_image
    rows = np.array([1, 2])
    delta = GraphDelta(kind="poi_patch", poi_rows=rows,
                       poi_values=graph.x_poi[rows] + 0.5)
    fraction = st.floats(0.01, 1.0)
    # values each field accepts (the open stream, the served model...)
    valid = {
        "stream": st.sampled_from([STREAM, "fuzz-other"]),
        "graph": _one_field_replaced(graph_to_payload(graph, encoding="json")),
        "delta": _one_field_replaced(delta_to_payload(delta, encoding="json")),
        "model": st.just("tiny"),
        "version": st.sampled_from(["1", 1]),
        "regions": st.lists(st.integers(0, graph.num_nodes - 1), max_size=4),
        "top_percent": st.floats(0.5, 100.0),
        "threshold": fraction,
        "rescore": st.booleans(),
        "incremental": st.sampled_from(["auto", "always", "never"]),
        "incremental_cutoff": fraction,
        "fingerprints": st.sampled_from(["chained", "content"]),
        # "start" reads the most fields, so it comes up most often
        "action": st.sampled_from(["start"] * 3 + [
            "status", "evaluate", "promote", "rollback", "abort"]),
        "stages": st.sampled_from([[1.0], [0.5, 1.0], [0.25, 0.5, 1.0]]),
        "canary_fraction": fraction,
        "policy": st.fixed_dictionaries({}, optional={
            "max_mean_abs_change": fraction, "min_pairs": st.integers(1, 3)}),
        "seed": st.integers(0, 99),
        "auto": st.booleans(),
        "act": st.booleans(),
    }

    def body(path):
        names = ENDPOINT_FIELDS[path]

        def corrupted(required):
            request = st.fixed_dictionaries(
                {name: valid[name] for name in required},
                optional={name: valid[name] for name in names
                          if name not in required})
            bad = st.just({}) | st.dictionaries(st.sampled_from(names), JSON,
                                                min_size=1, max_size=2)
            return st.tuples(request, bad).map(
                lambda pair: {**pair[0], **pair[1]})

        requests = st.sampled_from(REQUIRED_FIELDS[path]).flatmap(corrupted)
        # one body in eight is arbitrary JSON, mostly no object at all
        return st.integers(0, 7).flatmap(
            lambda kind: JSON if kind == 7 else requests)

    return {path: body(path) for path in ENDPOINT_FIELDS}


class TestNoServerErrors:
    @pytest.mark.parametrize("path", sorted(ENDPOINT_FIELDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_post_bodies_never_get_a_5xx(self, server, bodies, path, data):
        body = data.draw(bodies[path])
        status, raw = _post(server, path, json.dumps(body).encode("utf-8"))
        assert status < 500, (path, body, raw[:300])
        # end any rollout the body started, so the next example's start
        # reaches its field checks instead of "already in progress"
        status, raw = _post(server, "/rollout", b'{"action": "abort"}')
        assert status < 500, raw[:300]

    @settings(max_examples=100, deadline=None)
    @given(length=st.text(st.characters(min_codepoint=0x20,
                                        max_codepoint=0x7e), max_size=12)
           | st.integers(-3, 10 ** 9).map(str))
    def test_any_content_length_header_is_below_500(self, server, length):
        body = json.dumps({"stream": STREAM}).encode("utf-8")
        status, raw = _post(server, "/score", body, length=length)
        assert status < 500, (length, raw[:300])


class TestMalformedRequests:
    def test_non_numeric_content_length_is_400(self, server):
        status, raw = _post(server, "/score", b"{}", length="abc")
        assert status == 400
        assert "Content-Length" in json.loads(raw)["error"]

    @pytest.mark.parametrize("field", [
        {"seed": "x"}, {"seed": float("inf")}, {"threshold": [1]},
        {"stages": "abc"}, {"stages": 5}, {"canary_fraction": "x"},
    ], ids=lambda field: "-".join(map(str, field.items())))
    def test_wrong_typed_rollout_fields_are_400(self, server, field):
        body = {"action": "start", "model": "tiny", "version": "1", **field}
        try:
            status, raw = _post(server, "/rollout",
                                json.dumps(body).encode("utf-8"))
        finally:
            _post(server, "/rollout", b'{"action": "abort"}')
        assert status == 400, raw
        assert "bad rollout field" in json.loads(raw)["error"]

    @pytest.mark.parametrize("extra", [{}, {"top_percent": 50}],
                             ids=["plain", "top_percent"])
    def test_nested_regions_are_400(self, server, extra):
        """``regions`` must be a flat list: ``[[1, 2]]`` is a 400, not
        nested probabilities (or, with a screening budget, a 500)."""
        body = {"stream": STREAM, "regions": [[1, 2]], **extra}
        status, raw = _post(server, "/score", json.dumps(body).encode("utf-8"))
        assert status == 400
        assert "flat list" in json.loads(raw)["error"]
