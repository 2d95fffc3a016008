"""Per-layer metrics: their table and their computation from traced runs.

Each timing is a median per operation (a training epoch or one client
request) over the timed phase, with its sample count: the operations in
which the layer ran at all.  ``total`` timings are span durations;
``self`` timings subtract the wrapped layers called from inside
(see :func:`cmsfbench.trace.self_time`).  A layer that does not run on a
workload reports 0 with 0 samples there.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .stats import median
from .trace import Span, SpanIndex

#: (name, unit, better, workloads the layer runs on)
PER_LAYER: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("core.master.epoch_ms", "ms", "lower", ("train",)),
    ("core.gate.epoch_ms", "ms", "lower", ("train",)),
    ("nn.forward_ms", "ms", "lower", ("train",)),
    ("nn.backward_ms", "ms", "lower", ("train",)),
    ("nn.optim_ms", "ms", "lower", ("train",)),
    ("core.maga.forward_ms", "ms", "lower", ("train", "score_cold")),
    ("core.gscm.forward_ms", "ms", "lower", ("train", "score_cold")),
    ("core.gate.filter_ms", "ms", "lower", ("train", "score_cold")),
    ("core.master.head_ms", "ms", "lower", ("train", "score_cold")),
    ("core.forward_ms", "ms", "lower", ("score_cold",)),
    ("serve.engine.score_ms", "ms", "lower", ("score_cold",)),
    ("serve.engine.wait_ms", "ms", "lower", ("score_cold",)),
    ("serve.engine.compute_overlap", "ratio", "higher", ("score_cold",)),
    ("urg.graph.fingerprint_ms", "ms", "lower", ("score_cold",)),
    ("serve.fleet.dispatch_ms", "ms", "lower", ("stream_update",)),
    ("serve.fleet.shard_ms", "ms", "lower", ("stream_update",)),
    ("stream.scorer.update_ms", "ms", "lower", ("stream_update",)),
    ("stream.delta.apply_ms", "ms", "lower", ("stream_update",)),
    ("stream.delta.digest_ms", "ms", "lower", ("stream_update",)),
    ("core.incremental.seeds_ms", "ms", "lower", ("stream_update",)),
    ("nn.graphops.affected_ms", "ms", "lower", ("stream_update",)),
    ("core.incremental.encode_ms", "ms", "lower", ("stream_update",)),
    ("core.incremental.tail_ms", "ms", "lower", ("stream_update",)),
    ("core.incremental.full_ms", "ms", "lower", ("stream_update",)),
    ("nn.graphops.plan_ms", "ms", "lower", ("score_cold", "stream_update")),
    ("durable.wal.append_ms", "ms", "lower", ("stream_update",)),
    ("durable.wal.bytes_per_update", "bytes", "lower", ("stream_update",)),
    ("stream.scorer.affected_fraction", "ratio", "lower", ("stream_update",)),
    ("stream.scorer.incremental_share", "ratio", "higher", ("stream_update",)),
    ("serve.fleet.failovers", "count", "lower", ("stream_update",)),
    ("serve.server.score.handle_ms", "ms", "lower", ("http_stream",)),
    ("serve.server.update.handle_ms", "ms", "lower", ("http_stream",)),
    ("serve.server.score.service_ms", "ms", "lower", ("http_stream",)),
    ("serve.server.update.service_ms", "ms", "lower", ("http_stream",)),
    ("serve.server.score.codec_ms", "ms", "lower", ("http_stream",)),
    ("serve.server.update.codec_ms", "ms", "lower", ("http_stream",)),
    ("serve.transport.score_ms", "ms", "lower", ("http_stream",)),
    ("serve.transport.update_ms", "ms", "lower", ("http_stream",)),
    ("serve.client.score.codec_ms", "ms", "lower", ("http_stream",)),
    ("serve.client.update.codec_ms", "ms", "lower", ("http_stream",)),
    ("serve.wire.delta_decode_ms", "ms", "lower", ("http_stream",)),
    ("serve.wire.score_response_bytes", "bytes", "lower", ("http_stream",)),
    ("serve.wire.update_request_bytes", "bytes", "lower", ("http_stream",)),
    ("serve.client.requests_per_connection", "ratio", "higher", ("http_stream",)),
    ("serve.engine.hit_rate", "ratio", "higher", ("http_stream",)),
    ("obs.observe_ms", "ms", "lower", ("http_stream",)),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

#: one per-layer value: (value, number of samples behind it)
Value = Tuple[float, int]

_FORWARD = ("core.maga.forward", "core.gscm.forward", "core.gate.filter",
            "core.master.head")


def _ms(per_op: Dict[int, float]) -> Value:
    values = list(per_op.values())
    return (median(values) * 1e3 if values else 0.0), len(values)


def _forward_split(index: SpanIndex, ops) -> Dict[str, Value]:
    return {
        "core.maga.forward_ms": _ms(index.per_op("core.maga.forward", ops=ops)),
        "core.gscm.forward_ms": _ms(index.per_op("core.gscm.forward", ops=ops)),
        "core.gate.filter_ms": _ms(index.per_op("core.gate.filter", ops=ops)),
        "core.master.head_ms": _ms(index.per_op("core.master.head", ops=ops)),
    }


def train_layers(spans: Sequence[Span], ops: Iterable[int]) -> Dict[str, Value]:
    """``ops`` are the epoch operations of the timed fits."""
    index = SpanIndex(spans)
    ops = set(ops)
    stage_of = {span.id: span.name for span in index.spans
                if span.name in ("core.master.train", "core.gate.train")}
    epochs = {span.op: span for span in index.spans
              if span.name == "core.epoch" and span.op in ops}
    master = {op: e.duration for op, e in epochs.items()
              if stage_of.get(e.parent) == "core.master.train"}
    slave = {op: e.duration for op, e in epochs.items()
             if stage_of.get(e.parent) == "core.gate.train"}
    values = {
        "core.master.epoch_ms": _ms(master),
        "core.gate.epoch_ms": _ms(slave),
        "nn.forward_ms": _ms(index.per_op("nn.forward", ops=ops)),
        "nn.backward_ms": _ms(index.per_op("nn.backward", ops=ops)),
        "nn.optim_ms": _ms(index.per_op("nn.optim", ops=ops)),
    }
    values.update(_forward_split(index, ops))
    return values


def score_cold_layers(spans: Sequence[Span], ops: Iterable[int],
                      wall_s: float) -> Dict[str, Value]:
    """``ops`` are the timed score requests; ``wall_s`` the timed phase."""
    index = SpanIndex(spans)
    ops = set(ops)
    forward = index.per_op(_FORWARD, ops=ops)
    values = _forward_split(index, ops)
    values.update({
        "core.forward_ms": _ms(forward),
        "serve.engine.score_ms": _ms(index.per_op("serve.engine.score", ops=ops)),
        "serve.engine.wait_ms": _ms(index.per_op("serve.engine.score", "self",
                                                 ops=ops)),
        "serve.engine.compute_overlap": (sum(forward.values()) / wall_s,
                                         len(forward)),
        "urg.graph.fingerprint_ms": _ms(index.per_op("urg.graph.fingerprint",
                                                     ops=ops)),
        "nn.graphops.plan_ms": _ms(index.per_op("nn.graphops.plan", ops=ops)),
    })
    return values


def stream_layers(spans: Sequence[Span], ops: Iterable[int],
                  fleet_stats: Dict[str, object], wal_bytes: float,
                  updates_logged: int) -> Dict[str, Value]:
    """``ops`` are the timed updates; ``wal_bytes`` the log growth since
    the streams opened, over ``updates_logged`` logged deltas."""
    index = SpanIndex(spans)
    ops = set(ops)

    def per(name, mode="total"):
        return _ms(index.per_op(name, mode, ops=ops))

    counters = fleet_stats["totals"]["stream_counters"]
    cities = fleet_stats["cities"]
    regions = sum(c["regions"] for c in cities.values()) / max(len(cities), 1)
    incremental = counters.get("incremental_rescores", 0)
    updates = counters.get("updates", 0)
    return {
        "serve.fleet.dispatch_ms": per("serve.fleet.dispatch", "self"),
        "serve.fleet.shard_ms": per("serve.fleet.shard", "self"),
        "stream.scorer.update_ms": per("stream.scorer.update", "self"),
        "stream.delta.apply_ms": per("stream.delta.apply"),
        "stream.delta.digest_ms": per("stream.delta.digest"),
        "core.incremental.seeds_ms": per("core.incremental.seeds"),
        "nn.graphops.affected_ms": per("nn.graphops.affected"),
        "core.incremental.encode_ms": per("core.incremental.encode", "self"),
        "core.incremental.tail_ms": per("core.incremental.tail"),
        "core.incremental.full_ms": per("core.incremental.full"),
        "nn.graphops.plan_ms": per("nn.graphops.plan"),
        "durable.wal.append_ms": per("durable.wal.append"),
        "durable.wal.bytes_per_update": (wal_bytes / max(updates_logged, 1),
                                         updates_logged),
        "stream.scorer.affected_fraction": (
            counters.get("incremental_regions", 0) / max(incremental, 1) / regions,
            incremental),
        "stream.scorer.incremental_share": (incremental / max(updates, 1), updates),
        "serve.fleet.failovers": (float(fleet_stats["fleet"]["failovers"]), updates),
    }


def _server_ops(server_spans: Sequence[Span]) -> Dict[Tuple[str, str], List[Dict[str, float]]]:
    """Server-side view of each request, listed per (stream, kind) in the
    order the server handled them."""
    ops: Dict[int, Dict[str, object]] = {}
    for span in server_spans:
        if span.op is None:
            continue
        entry = ops.setdefault(span.op, {"decode": 0.0})
        if span.name == "serve.server.request":
            entry["start"] = span.start
        elif span.name == "serve.server.service":
            entry["kind"] = span.attrs.get("kind")
            entry["stream"] = span.attrs.get("stream")
            entry["service"] = span.duration
        elif span.name == "obs.observe":
            entry["handle"] = float(span.attrs["seconds"])
            entry["observe"] = span.duration
        elif span.name == "serve.wire.delta_decode":
            entry["decode"] += span.duration
    grouped: Dict[Tuple[str, str], List[Dict[str, float]]] = {}
    for entry in sorted((e for e in ops.values() if "kind" in e and "handle" in e),
                        key=lambda e: e["start"]):
        grouped.setdefault((entry["stream"], entry["kind"]), []).append(entry)
    return grouped


def http_layers(client_spans: Sequence[Span], server_spans: Sequence[Span],
                timed: Dict[int, Tuple[str, str, int]],
                transport: Sequence[Dict[str, int]],
                server_stats: Dict[str, object]) -> Dict[str, Value]:
    """``timed`` maps each timed client op id to (stream, kind, index of
    the op among that stream's ops of that kind, counting every op the
    client sent); the k-th such client op is the k-th server op."""
    index = SpanIndex(client_spans)
    server = _server_ops(server_spans)
    raw = {span.op: span for span in index.spans if span.name == "serve.client.raw"}
    roots = {span.op: span for span in index.spans
             if span.name in ("serve.client.score", "serve.client.update")}
    samples: Dict[str, Dict[str, List[float]]] = {
        kind: {key: [] for key in ("handle", "service", "codec", "transport",
                                   "client_codec", "decode", "observe", "bytes")}
        for kind in ("score", "update")}
    for op, (stream, kind, k) in timed.items():
        entries = server.get((stream, kind), [])
        if op not in raw or op not in roots or k >= len(entries):
            raise RuntimeError(f"traced {kind} #{k} on {stream!r} has no "
                               "matching server-side record")
        entry, wire, root = entries[k], raw[op], roots[op]
        bucket = samples[kind]
        bucket["handle"].append(entry["handle"])
        bucket["service"].append(entry["service"])
        bucket["codec"].append(entry["handle"] - entry["service"])
        bucket["transport"].append(wire.duration - entry["handle"])
        bucket["client_codec"].append(root.duration - wire.duration)
        bucket["observe"].append(entry["observe"])
        if kind == "update":
            bucket["decode"].append(entry["decode"])
            bucket["bytes"].append(wire.attrs["request_bytes"])
        else:
            bucket["bytes"].append(wire.attrs["response_bytes"])

    def ms(values: List[float]) -> Value:
        return (median(values) * 1e3 if values else 0.0), len(values)

    def plain(values: List[float]) -> Value:
        return (median(values) if values else 0.0), len(values)

    sent = sum(t["requests_sent"] for t in transport)
    dialled = sum(t["connections_created"] for t in transport)
    cache = server_stats["engines"][0]["cache"] if server_stats.get("engines") else {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    score, update = samples["score"], samples["update"]
    return {
        "serve.server.score.handle_ms": ms(score["handle"]),
        "serve.server.update.handle_ms": ms(update["handle"]),
        "serve.server.score.service_ms": ms(score["service"]),
        "serve.server.update.service_ms": ms(update["service"]),
        "serve.server.score.codec_ms": ms(score["codec"]),
        "serve.server.update.codec_ms": ms(update["codec"]),
        "serve.transport.score_ms": ms(score["transport"]),
        "serve.transport.update_ms": ms(update["transport"]),
        "serve.client.score.codec_ms": ms(score["client_codec"]),
        "serve.client.update.codec_ms": ms(update["client_codec"]),
        "serve.wire.delta_decode_ms": ms(update["decode"]),
        "serve.wire.score_response_bytes": plain(score["bytes"]),
        "serve.wire.update_request_bytes": plain(update["bytes"]),
        "serve.client.requests_per_connection": (sent / max(dialled, 1), sent),
        "serve.engine.hit_rate": (cache.get("hits", 0) / max(lookups, 1), lookups),
        "obs.observe_ms": ms(score["observe"] + update["observe"]),
    }


def complete(values: Dict[str, Value]) -> Dict[str, Value]:
    """Every per-layer metric, 0 with no samples where a layer did not run."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: values.get(name, (0.0, 0)) for name in UNITS}
