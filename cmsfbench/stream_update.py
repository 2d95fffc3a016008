"""``stream_update``: one client streams deltas through a two-shard fleet.

Three medium-city variants are opened as durable streams on a
``FleetRouter`` of two in-process ``EngineShard``s (each with its own
engine loaded from the bundle; write-ahead log on, default fsync policy).
The client then sends update-with-rescore operations in whole halves of
the mix :data:`cmsfbench.inputs.STREAM_ROUND`, each step of the mix
across all cities in turn.  Nothing contends: this is the
single-threaded baseline of the stream path.  An operation is one ``FleetRouter.update_stream``.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from .common import MODEL, Context, Outcome, digest, peak_rss_mb, timed, train_bundle
from .inputs import STREAM_HALF, STREAM_ROUND, city, city_variants, next_delta, rng_for
from .layers import stream_layers
from .trace import STREAM_TARGETS, install

CITIES = 3
SHARDS = 2
#: warm-up steps per city (the first update of an ``auto`` stream also
#: verifies the incremental path against a full rebuild); any five
#: consecutive steps of the mix have the same make-up, and the first
#: removal still precedes the first growth
WARMUP_STEPS = 1
#: share of versions compared against a full rebuild (each city's last
#: version always is)
SAMPLE_SHARE = 0.1


def run(ctx: Context) -> Outcome:
    from repro.durable import DurabilityLog
    from repro.serve import InferenceEngine
    from repro.serve.fleet import EngineShard, FleetRouter
    from repro.serve.registry import ModelRegistry

    out = Outcome()
    registry = train_bundle(ctx)
    bundle_dir = ModelRegistry(registry).resolve(MODEL)
    shards = [EngineShard(InferenceEngine.from_bundle(bundle_dir),
                          shard_id=f"shard-{i}") for i in range(SHARDS)]
    wal = DurabilityLog(ctx.work / "wal")
    fleet = FleetRouter(shards, wal=wal)
    try:
        opening = city_variants(city("medium"), CITIES, ctx.seed)
        for name, graph in opening.items():
            fleet.open_stream(name, graph)
        wal_opened = int(wal.status()["log_bytes"])
        current = dict(opening)
        rngs = {name: rng_for(ctx.seed, 3, i) for i, name in enumerate(opening)}
        #: every update sent, in order: (city, delta, version, response digest)
        history: List[Tuple[str, object, int, str]] = []
        sampler = rng_for(ctx.seed, 4)
        sampled = set()

        def step(index: int, timed_phase: bool) -> None:
            kind = STREAM_ROUND[index % len(STREAM_ROUND)]
            for name in opening:
                delta = next_delta(current[name], kind, rngs[name])
                if timed_phase:
                    out.attempted += 1
                try:
                    began, ended, payload, op = timed(
                        ctx.recorder if timed_phase else None, "client.update",
                        lambda: fleet.update_stream(name, delta))
                except Exception as error:  # a rejected update leaves the city as it was
                    out.failed += 1
                    out.notes.append(f"{kind} on {name} raised {error!r}")
                    continue
                current[name] = delta.apply(current[name])
                version = int(payload["version"])
                history.append((name, delta, version,
                                digest(payload["score"]["probabilities"])))
                if sampler.random() < SAMPLE_SHARE:
                    sampled.add((name, version))
                if timed_phase:
                    out.latencies_ms.setdefault(kind, []).append((ended - began) * 1e3)
                    ops.append(op)

        ops: List[int] = []
        for index in range(WARMUP_STEPS):
            step(index, False)
        patches = install(ctx.recorder, STREAM_TARGETS) if ctx.recorder else None
        start = time.perf_counter()
        out.setup_s = start - ctx.started
        index = WARMUP_STEPS
        try:
            # whole stretches of five steps only (each holds the mix's
            # make-up), so every run times the same share of each kind
            while time.perf_counter() - start < ctx.seconds:
                for _ in range(STREAM_HALF):
                    step(index, True)
                    index += 1
        finally:
            if patches is not None:
                patches.restore()
        elapsed = time.perf_counter() - start
        out.throughput_per_s = out.attempted / elapsed
        stats = fleet.stats()
        if ctx.recorder is not None:
            out.layers = stream_layers(
                ctx.recorder.spans, ops, stats,
                int(wal.status()["log_bytes"]) - wal_opened, len(history))
    finally:
        fleet.close()
        wal.close()
    out.peak_rss_mb = peak_rss_mb()

    # -- checks ---------------------------------------------------------
    last = {name: version for name, _, version, _ in history}
    sampled.update(last.items())
    mismatched = _rebuild_mismatches(bundle_dir, opening, history, sampled)
    out.check("versions_vs_rebuild", not mismatched,
              f"{len(sampled)} sampled versions bit-identical to a full-rebuild "
              f"predict_proba" + (f"; mismatched {mismatched}" if mismatched else ""))
    replayed = _replay(bundle_dir, opening, history)
    diverged = sum(a != b for a, b in zip(replayed, (h[3] for h in history)))
    out.failed += diverged
    out.check("single_shard_replay", diverged == 0 and len(replayed) == len(history),
              f"{len(history)} updates replayed on one EngineShard, "
              f"{diverged} digests differ")
    out.notes.append(
        f"{CITIES} cities of {opening[next(iter(opening))].num_nodes} regions on "
        f"{SHARDS} shards; {out.attempted} timed updates, stream counters "
        f"{stats['totals']['stream_counters']}")
    return out


def _replay(bundle_dir, opening, history) -> List[str]:
    """The same updates, in order, on a single shard without router or
    log: the score digest of every update."""
    from repro.serve import InferenceEngine
    from repro.serve.fleet import EngineShard

    shard = EngineShard(InferenceEngine.from_bundle(bundle_dir), shard_id="oracle")
    try:
        for name, graph in opening.items():
            shard.open_stream(name, graph)
        return [digest(shard.update_stream(name, delta)["score"]["probabilities"])
                for name, delta, _, _ in history]
    finally:
        shard.close()


def _rebuild_mismatches(bundle_dir, opening, history, sampled) -> List[Tuple[str, int]]:
    """Sampled versions whose streamed scores differ from a full-rebuild
    ``predict_proba`` of the opening graph with the same deltas applied."""
    from repro.serve import load_bundle

    detector = load_bundle(bundle_dir).detector
    graphs = dict(opening)
    mismatched = []
    for name, delta, version, streamed in history:
        graphs[name] = delta.apply(graphs[name])
        if (name, version) in sampled and \
                digest(detector.predict_proba(graphs[name])) != streamed:
            mismatched.append((name, version))
    return mismatched
