"""``http_stream``: two clients stream over HTTP to a server process.

A ``ScoringServer`` runs as its own process (``child.py serve``).  Each
client thread has its own ``ScoringClient`` (one keep-alive connection)
and owns two medium-city streams; per stream it sends four warm stream
scores, then one small feature delta, and moves to its next stream.  An
operation is one HTTP request.  Reads and writes meet here: JSON codec,
HTTP handling and the service's stream table dominate the scores, the
incremental path and the model lock dominate the updates.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from .common import MODEL, Context, Outcome, ServerProcess, digest, timed, train_bundle
from .inputs import HTTP_ROUND, city, city_variants, next_delta, rng_for
from .layers import http_layers
from .trace import Span, install_client

CLIENTS = 2
STREAMS_PER_CLIENT = 2
SCORES_PER_UPDATE = 4
SAMPLE_SHARE = 0.1


class _Client:
    """One closed-loop client and everything it saw."""

    def __init__(self, url: str, streams: Dict[str, object], seed: int, index: int) -> None:
        from repro.serve import ScoringClient
        self.api = ScoringClient(url)
        self.graphs = dict(streams)
        self.rngs = {name: rng_for(seed, 5, index, i) for i, name in enumerate(streams)}
        self.version = {name: 0 for name in streams}
        self.updates = {name: 0 for name in streams}
        #: (stream, version) -> digests of every response for that version
        self.seen: Dict[Tuple[str, int], set] = defaultdict(set)
        #: (stream, version) -> the client's own copy of that version
        self.kept: Dict[Tuple[str, int], object] = {}
        self.sent: Dict[Tuple[str, str], int] = defaultdict(int)
        #: timed ops: (kind, latency ms, op id, stream, index among that kind)
        self.timed: List[Tuple[str, float, object, str, int]] = []
        self.failed = 0
        self.attempted = 0

    def _send(self, recorder, stream: str, kind: str, call, timed_phase: bool):
        k = self.sent[(stream, kind)]
        self.sent[(stream, kind)] += 1
        if timed_phase:
            self.attempted += 1
        try:
            began, ended, payload, op = timed(
                recorder if timed_phase else None, f"serve.client.{kind}", call)
        except Exception:  # error responses raise in the client
            self.failed += 1
            return None
        if timed_phase:
            self.timed.append((kind, (ended - began) * 1e3, op, stream, k))
        return payload

    def open(self, model: str) -> None:
        for stream, graph in self.graphs.items():
            payload = self._send(None, stream, "open",
                                 lambda: self.api.open_stream(stream, graph, model), False)
            self._record(stream, 0, payload["score"]["probabilities"])

    def _record(self, stream, version, probabilities, graph=None) -> None:
        self.seen[(stream, version)].add(digest(probabilities))
        if graph is not None:
            self.kept[(stream, version)] = graph

    def round(self, recorder, stream: str, sampler, timed_phase: bool) -> None:
        for _ in range(SCORES_PER_UPDATE):
            payload = self._send(recorder, stream, "score",
                                 lambda: self.api.score_stream(stream), timed_phase)
            if payload is not None:
                self._record(stream, int(payload["stream_version"]),
                             payload["probabilities"])
        kind = HTTP_ROUND[self.updates[stream] % len(HTTP_ROUND)]
        self.updates[stream] += 1
        delta = next_delta(self.graphs[stream], kind, self.rngs[stream])
        payload = self._send(recorder, stream, "update",
                             lambda: self.api.update_stream(stream, delta), timed_phase)
        if payload is None:
            return
        graph = delta.apply(self.graphs[stream])
        self.graphs[stream] = graph
        version = int(payload["version"])
        self.version[stream] = version
        self._record(stream, version, payload["score"]["probabilities"],
                     graph if sampler.random() < SAMPLE_SHARE else None)

    def keep_last(self) -> None:
        for stream, version in self.version.items():
            self.kept[(stream, version)] = self.graphs[stream]


def run(ctx: Context) -> Outcome:
    from repro.serve import load_bundle
    from repro.serve.registry import ModelRegistry

    out = Outcome()
    registry = train_bundle(ctx)
    server = ServerProcess(ctx, registry)
    report = None
    clients: List[_Client] = []
    try:
        opening = city_variants(city("medium"), CLIENTS * STREAMS_PER_CLIENT, ctx.seed)
        names = list(opening)
        for index in range(CLIENTS):
            own = names[index * STREAMS_PER_CLIENT:(index + 1) * STREAMS_PER_CLIENT]
            clients.append(_Client(server.url, {n: opening[n] for n in own},
                                   ctx.seed, index))
        samplers = [rng_for(ctx.seed, 6, i) for i in range(CLIENTS)]
        for client, sampler in zip(clients, samplers):
            client.open(MODEL)
            for stream in client.graphs:
                client.round(None, stream, sampler, False)

        patches = install_client(ctx.recorder) if ctx.recorder else None
        start = time.perf_counter()
        out.setup_s = start - ctx.started
        ends = [start] * CLIENTS

        def loop(i: int) -> None:
            client, sampler = clients[i], samplers[i]
            while time.perf_counter() - start < ctx.seconds:
                for stream in client.graphs:
                    client.round(ctx.recorder, stream, sampler, True)
            ends[i] = time.perf_counter()

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if patches is not None:
                patches.restore()
        elapsed = max(ends) - start
        server_stats = clients[0].api.stats()
        transport = [client.api.transport_stats() for client in clients]
        for client in clients:
            client.api.close()
        report = server.stop()
    finally:
        if report is None:
            server.kill()

    out.attempted = sum(c.attempted for c in clients)
    out.failed = sum(c.failed for c in clients)
    done = [entry for c in clients for entry in c.timed]
    out.throughput_per_s = len(done) / elapsed
    for kind, latency, _, _, _ in done:
        out.latencies_ms.setdefault(kind, []).append(latency)
    out.peak_rss_mb = float(report["peak_rss_mb"])
    if ctx.recorder is not None:
        timed_ops = {op: (stream, kind, k) for kind, _, op, stream, k in done}
        out.layers = http_layers(ctx.recorder.spans,
                                 [Span(**span) for span in report["spans"]],
                                 timed_ops, transport, server_stats)

    # -- checks ---------------------------------------------------------
    detector = load_bundle(ModelRegistry(registry).resolve(MODEL)).detector
    split = [key for c in clients for key, digests in c.seen.items() if len(digests) != 1]
    out.check("one_answer_per_version", not split,
              f"{sum(len(c.seen) for c in clients)} stream versions, every "
              f"response of a version bit-identical" + (f"; split {split}" if split else ""))
    checked, mismatched = 0, []
    for client in clients:
        client.keep_last()
        for (stream, version), graph in sorted(client.kept.items()):
            reference = detector.predict_proba(graph)
            checked += 1
            if client.seen[(stream, version)] != {digest(reference)}:
                mismatched.append((stream, version))
    out.check("versions_vs_local", not mismatched,
              f"{checked} sampled versions equal to predict_proba in the client "
              f"process" + (f"; mismatched {mismatched}" if mismatched else ""))
    out.notes.append(f"{CLIENTS} clients x {STREAMS_PER_CLIENT} streams, "
                     f"{SCORES_PER_UPDATE} scores per update; transport {transport}")
    return out
