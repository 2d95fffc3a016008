"""Per-layer arithmetic of the HTTP split on hand-built spans."""

import pytest

from cmsfbench.layers import UNITS, complete, http_layers
from cmsfbench.trace import Span


def span(id, name, start, end, parent=None, op=None, **attrs):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                thread=0, op=op, attrs=attrs)


def test_http_split_matches_client_and_server_ops_per_stream_and_kind():
    client = [
        # op 10: the first timed score of stream s (index 1: one untimed before it)
        span(1, "serve.client.score", 0.000, 0.050, op=10),
        span(2, "serve.client.raw", 0.001, 0.049, parent=1, op=10,
             request_bytes=20, response_bytes=2500),
        span(3, "serve.client.update", 0.100, 0.300, op=11),
        span(4, "serve.client.raw", 0.105, 0.295, parent=3, op=11,
             request_bytes=700, response_bytes=2600),
    ]
    server = []
    for op, start, kind, service, handle in ((1, 0.0, "score", 0.0002, 0.0030),
                                             (2, 1.0, "score", 0.0004, 0.0020),
                                             (3, 2.0, "update", 0.1500, 0.1540)):
        base = op * 10
        server += [span(base, "serve.server.request", start, start + handle + 0.001, op=op),
                   span(base + 1, "serve.server.service", start, start + service,
                        parent=base, op=op, kind=kind, stream="s"),
                   span(base + 2, "obs.observe", start + handle, start + handle + 0.0001,
                        parent=base, op=op, seconds=handle)]
    server.append(span(99, "serve.wire.delta_decode", 2.0, 2.001, parent=30, op=3))
    timed = {10: ("s", "score", 1), 11: ("s", "update", 0)}
    transport = [{"requests_sent": 10, "connections_created": 2}]
    stats = {"engines": [{"cache": {"hits": 3, "misses": 1}}]}
    values = http_layers(client, server, timed, transport, stats)
    assert values["serve.server.score.handle_ms"] == (pytest.approx(2.0), 1)
    assert values["serve.server.score.service_ms"] == (pytest.approx(0.4), 1)
    assert values["serve.server.score.codec_ms"] == (pytest.approx(1.6), 1)
    assert values["serve.transport.score_ms"] == (pytest.approx(48.0 - 2.0), 1)
    assert values["serve.client.score.codec_ms"] == (pytest.approx(2.0), 1)
    assert values["serve.transport.update_ms"] == (pytest.approx(190.0 - 154.0), 1)
    assert values["serve.wire.delta_decode_ms"] == (pytest.approx(1.0), 1)
    assert values["serve.wire.score_response_bytes"] == (2500, 1)
    assert values["serve.wire.update_request_bytes"] == (700, 1)
    assert values["serve.client.requests_per_connection"] == (5.0, 10)
    assert values["serve.engine.hit_rate"] == (0.75, 4)


def test_http_split_refuses_an_op_the_server_never_saw():
    client = [span(1, "serve.client.score", 0.0, 0.05, op=10),
              span(2, "serve.client.raw", 0.0, 0.05, parent=1, op=10,
                   request_bytes=1, response_bytes=1)]
    with pytest.raises(RuntimeError):
        http_layers(client, [], {10: ("s", "score", 0)}, [], {})


def test_complete_fills_layers_that_did_not_run():
    values = complete({"nn.forward_ms": (3.0, 2)})
    assert set(values) == set(UNITS)
    assert values["nn.forward_ms"] == (3.0, 2)
    assert values["obs.observe_ms"] == (0.0, 0)
    with pytest.raises(KeyError):
        complete({"not.a.metric": (1.0, 1)})
