"""``score_cold``: two clients cold-score cities through one engine.

Every request is a structurally distinct rewiring of the large city
(more regions than the engine's 2048-region micro-batch), so each one is
a full cold forward on the chunked path: edge plan, MAGA levels, GSCM,
gate filter and gated head.  The two client threads meet at the engine's
model lock.  An operation is one ``InferenceEngine.score``.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from .common import MODEL, Context, Outcome, peak_rss_mb, timed, train_bundle
from .inputs import city, structural_variant
from .layers import score_cold_layers
from .trace import SCORE_COLD_TARGETS, install

CLIENTS = 2
WARMUP_REQUESTS = 2
#: cities generated before timing (about twice what a run scores today)
POOL = 40
#: the chunked head agrees with the monolithic forward to float64 round-off
ROUNDOFF = 1e-12


def run(ctx: Context) -> Outcome:
    from repro.serve import InferenceEngine, load_bundle
    from repro.serve.registry import ModelRegistry

    out = Outcome()
    registry = train_bundle(ctx)
    bundle_dir = ModelRegistry(registry).resolve(MODEL)
    engine = InferenceEngine.from_bundle(bundle_dir)
    base = city("large")
    if base.num_nodes <= engine.batch_size:
        raise RuntimeError("the large city must exceed the engine's micro-batch")
    # generated up front, so no client holds the interpreter lock building
    # a city while the other one computes; more are made on demand
    variants = {index: structural_variant(base, ctx.seed, index)
                for index in range(POOL)}
    lock = threading.Lock()

    def variant(index: int):
        with lock:
            graph = variants.get(index)
        if graph is None:
            graph = structural_variant(base, ctx.seed, index)
            with lock:
                variants[index] = graph
        return graph

    for index in range(WARMUP_REQUESTS):
        engine.score(structural_variant(base, ctx.seed, index, warmup=True))

    patches = install(ctx.recorder, SCORE_COLD_TARGETS) if ctx.recorder else None
    counter = itertools.count()
    results: Dict[int, Tuple[float, float, np.ndarray, object]] = {}
    errors: List[BaseException] = []
    start = time.perf_counter()
    out.setup_s = start - ctx.started
    stop_at = start + ctx.seconds

    def client() -> None:
        while time.perf_counter() < stop_at:
            index = next(counter)
            graph = variant(index)
            try:
                began, ended, result, op = timed(
                    ctx.recorder, "client.score", lambda: engine.score(graph))
            except Exception as error:  # counted as a failed operation
                with lock:
                    errors.append(error)
                    results[index] = (0.0, 0.0, None, None)
                continue
            with lock:
                results[index] = (began, ended, result.probabilities, op)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if patches is not None:
            patches.restore()
    out.peak_rss_mb = peak_rss_mb()
    done = [r for r in results.values() if r[2] is not None]
    elapsed = max(r[1] for r in done) - start
    out.attempted = len(results)
    out.throughput_per_s = len(done) / elapsed
    out.latencies_ms["score"] = [(r[1] - r[0]) * 1e3 for r in done]
    if ctx.recorder is not None:
        out.layers = score_cold_layers(ctx.recorder.spans,
                                       [r[3] for r in done], elapsed)

    # -- checks ---------------------------------------------------------
    detector = load_bundle(bundle_dir).detector
    worst = 0.0
    for index, (_, _, scores, _) in sorted(results.items()):
        if scores is None:
            out.failed += 1
            continue
        reference = detector.predict_proba(variants[index])
        diff = float(np.max(np.abs(scores - reference)))
        worst = max(worst, diff)
        if diff > ROUNDOFF or scores.min() < 0.0 or scores.max() > 1.0:
            out.failed += 1
    out.check("matches_predict_proba", out.failed == 0,
              f"worst |engine - predict_proba| {worst:.1e} over {len(done)} "
              f"requests; {len(errors)} raised")
    first = min(i for i, r in results.items() if r[2] is not None)
    engine.evict(variants[first].fingerprint())
    again = engine.score(variants[first]).probabilities
    out.check("repeat_bit_identical", np.array_equal(again, results[first][2]),
              "a city scored cold a second time")
    sent = WARMUP_REQUESTS + len(results) + 1
    out.check("cold_computes", engine.cold_computes == sent,
              f"engine cold computes {engine.cold_computes} for {sent} requests")
    out.notes.append(f"{CLIENTS} clients, {base.num_nodes}-region variants, "
                     f"micro-batch {engine.batch_size}")
    return out
