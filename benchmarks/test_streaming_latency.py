"""Streaming update latency: full rescore vs delta-localised incremental.

Measures, through the real :class:`~repro.stream.scorer.StreamingScorer`
(delta apply + validation + fingerprinting + rescore + engine seeding),
the per-update latency of ``incremental="never"`` (every update pays a
full forward pass) against ``incremental="always"`` (only a delta's
receptive field is recomputed) across ``synth.evolution`` scenarios —
small and 5%-of-city POI churn, imagery refresh, road rewiring and region
churn (removals freeing grid cells, then growth) — and asserts that the
streamed scores stay bit-identical (float64) to a full-rebuild
``predict_proba`` along every sequence.  Region churn changes the node
count, which the incremental path refuses by design (every per-node
product changes shape, voiding the bit-stability guarantee), so its rows
document the full-path fallback rather than a speedup.

Two detector configurations are timed side by side:

* ``master`` (CMSF-G, ``use_gate=False``) — the encoder dominates its
  forward, which is exactly what the incremental path localises; small
  feature deltas must come in >= 5x faster at the medium scale
  (override with REPRO_BENCH_MIN_SPEEDUP);
* ``gated`` (full CMSF) — recorded for honesty, not gated on a speedup:
  GSCM's cluster sums couple every region, so the per-region gate filter
  and gated head must re-run city-wide for exact scores, bounding the
  achievable speedup to roughly full/(gate + head + sub-encoder).

Results are written to ``.bench-out/BENCH_streaming.json`` (override with
``REPRO_BENCH_OUT_STREAMING``).  Defaults to the medium 32x36 city; CI
smoke runs set ``REPRO_BENCH_CITY=tiny`` — the speedup gate only applies
at the medium scale it was calibrated on.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_out_path
from repro.core import CMSFConfig, CMSFDetector
from repro.serve import InferenceEngine
from repro.stream import GraphDelta, StreamingScorer
from repro.synth import (EvolutionConfig, generate_city, generate_evolution,
                         mini_city, tiny_city)
from repro.urg import build_urg

BENCH_CITY = os.environ.get("REPRO_BENCH_CITY", "medium")
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
STEPS = 4
REPEATS = 3


def _city_config():
    if BENCH_CITY == "tiny":
        return tiny_city(seed=7)
    if BENCH_CITY == "mini":
        return mini_city(seed=1)
    if BENCH_CITY == "medium":
        return dataclasses.replace(mini_city(seed=1), name="medium",
                                   grid_height=32, grid_width=36)
    raise ValueError(f"unknown REPRO_BENCH_CITY {BENCH_CITY!r} "
                     "(expected tiny, mini or medium)")


@pytest.fixture(scope="module")
def bench_graph():
    return build_urg(generate_city(_city_config()))


def _fit(graph, **overrides):
    config = CMSFConfig(master_epochs=5, slave_epochs=3, patience=None,
                        dropout=0.0, seed=0, **overrides)
    return CMSFDetector(config).fit(graph, graph.labeled_indices())


def _scenario_deltas(graph):
    """Named, reproducible delta sequences against ``graph``."""
    def evo(**kwargs):
        return generate_evolution(graph, EvolutionConfig(
            steps=STEPS, seed=17, **kwargs))

    n = graph.num_nodes
    scenarios = {
        "poi_churn_small": evo(scenarios=("poi_churn",), poi_churn_count=2),
        "poi_churn_5pct": evo(scenarios=("poi_churn",),
                              poi_churn_fraction=0.05),
        "imagery_refresh_small": evo(scenarios=("imagery_refresh",),
                                     imagery_refresh_count=2),
        "road_rewiring": evo(scenarios=("road_rewiring",), rewire_edges=3),
    }
    # region churn: the synthetic grids are fully built out, so growth can
    # only fire after removals free cells — alternate the two.
    rng = np.random.default_rng(23)
    churn = []
    current = graph
    for _ in range(STEPS // 2):
        victims = np.sort(rng.choice(current.num_nodes, 2, replace=False))
        shrink = GraphDelta(kind="region_removal", remove_regions=victims)
        churn.append(shrink)
        current = shrink.apply(current)
        grow = generate_evolution(current, EvolutionConfig(
            steps=1, seed=int(rng.integers(1 << 31)),
            scenarios=("region_growth",), growth_regions=2))
        if grow:
            churn.append(grow[0])
            current = grow[0].apply(current)
    scenarios["region_churn"] = churn
    assert all(deltas for deltas in scenarios.values())
    assert n  # keep the summary below honest if scenarios ever change
    return scenarios


def _timed_walk(detector, graph, deltas, incremental):
    """Per-update wall-clock latencies through a fresh scorer, best of
    REPEATS replays (each replay restarts from the base graph)."""
    best = [float("inf")] * len(deltas)
    stats = None
    for _ in range(REPEATS):
        engine = InferenceEngine(detector, cache_size=8)
        scorer = StreamingScorer(engine, graph, warm=True,
                                 incremental=incremental)
        for index, delta in enumerate(deltas):
            start = time.perf_counter()
            scorer.update(delta)
            best[index] = min(best[index],
                              (time.perf_counter() - start) * 1e3)
        stats = scorer.stats.to_dict()
    return best, stats


def _verify_bitwise(detector, graph, deltas):
    engine = InferenceEngine(detector, cache_size=8)
    scorer = StreamingScorer(engine, graph, warm=True, incremental="always")
    current = graph
    for delta in deltas:
        update = scorer.update(delta)
        current = delta.apply(current)
        if not np.array_equal(update.probabilities,
                              detector.predict_proba(current)):
            return False
    return True


def test_streaming_latency(bench_graph):
    graph = bench_graph
    scenarios = _scenario_deltas(graph)
    detectors = {
        "master": _fit(graph, use_gate=False),
        "gated": _fit(graph),
    }

    results = {}
    identical = {}
    for det_name, detector in detectors.items():
        results[det_name] = {}
        for name, deltas in scenarios.items():
            full_ms, _ = _timed_walk(detector, graph, deltas, "never")
            inc_ms, stats = _timed_walk(detector, graph, deltas, "always")
            speedup = statistics.median(full_ms) / statistics.median(inc_ms)
            results[det_name][name] = {
                "updates": len(deltas),
                "full_ms_median": round(statistics.median(full_ms), 3),
                "incremental_ms_median": round(statistics.median(inc_ms), 3),
                "speedup": round(speedup, 3),
                "incremental_rescores": stats["incremental_rescores"],
                "full_rescores": stats["full_rescores"],
            }
        identical[det_name] = all(
            _verify_bitwise(detector, graph, deltas)
            for deltas in scenarios.values())

    payload = {
        "benchmark": "streaming_latency",
        "city": {"name": graph.name, "regions": int(graph.num_nodes),
                 "directed_edges": int(graph.num_edges),
                 "scale": BENCH_CITY},
        "steps_per_scenario": STEPS,
        "repeats": REPEATS,
        "scenarios": results,
        "float64_bit_identical": identical,
        "environment": {"platform": platform.platform(),
                        "python": platform.python_version(),
                        "numpy": np.__version__},
    }
    out_path = bench_out_path("REPRO_BENCH_OUT_STREAMING", "streaming")
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n[streaming-latency] wrote {out_path.resolve()}")
    for det_name, rows in results.items():
        for name, row in rows.items():
            print(f"  {det_name:7s} {name:22s} full={row['full_ms_median']:8.1f}ms "
                  f"inc={row['incremental_ms_median']:8.1f}ms "
                  f"speedup={row['speedup']:5.2f}x")

    assert identical["master"] and identical["gated"], (
        "incremental float64 scores diverged from full-rebuild "
        "predict_proba — the wavefront lost bit-exactness")
    # every small feature-only delta must actually take the incremental path
    for det_name in results:
        for name in ("poi_churn_small", "imagery_refresh_small"):
            row = results[det_name][name]
            assert row["incremental_rescores"] == row["updates"], (det_name, name)
    if BENCH_CITY == "medium":
        small = results["master"]["poi_churn_small"]["speedup"]
        assert small >= MIN_SPEEDUP, (
            f"incremental update latency is only {small:.2f}x better than a "
            f"full rescore for small feature deltas on the medium city; "
            f"expected >= {MIN_SPEEDUP}x")
