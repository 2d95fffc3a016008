"""Training / cold-scoring throughput: EdgePlan + float32 vs pre-PR kernels.

Like ``test_serving_throughput`` this benchmark measures the *system's*
speed, not reproduction fidelity.  It times, in the same run,

* **master-stage epochs** — the dominant training cost — under three kernel
  configurations: the pre-PR per-call kernels (``use_edge_plan=False``,
  float64), the precomputed :class:`~repro.nn.EdgePlan` kernels (float64,
  bit-identical results), and the full fast path (plan + float32);
* **slave-stage epochs** under the same three configurations;
* **cold and warm scoring latency** through the serving engine.

Results are written to ``.bench-out/BENCH_training.json`` (override the
path with ``REPRO_BENCH_OUT``) so the performance trajectory is tracked.
The city defaults to a *medium* 32x36 synthetic city; CI smoke runs set
``REPRO_BENCH_CITY=tiny`` to keep the job fast — the >= 3x speedup gate
only applies at the medium scale it was calibrated on.

Unlike the serving benchmark this one is left in the default ``slow``
benchmark lane: it runs ~10 full training fits and carries a wall-clock
assertion, which has no place in the ~40 s fast subset.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_out_path
from repro.core import CMSFConfig, CMSFDetector
from repro.core.master import MasterModel, train_master
from repro.core.gate import train_slave
from repro.serve import InferenceEngine, load_bundle, save_bundle
from repro.synth import generate_city, mini_city, tiny_city
from repro.urg import build_urg

BENCH_CITY = os.environ.get("REPRO_BENCH_CITY", "medium")
#: master-epoch speedup the fast path must show over the pre-PR kernels on
#: the medium city (override with REPRO_BENCH_MIN_SPEEDUP; the gate is
#: skipped entirely for the reduced tiny/mini CI cities)
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))

MASTER_EPOCHS = 5
SLAVE_EPOCHS = 3
REPEATS = 2

#: kernel configurations measured side by side, in one process
VARIANTS = {
    "legacy_float64": dict(use_edge_plan=False, dtype="float64"),
    "plan_float64": dict(use_edge_plan=True, dtype="float64"),
    "plan_float32": dict(use_edge_plan=True, dtype="float32"),
}


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


def _bench_config(**overrides) -> CMSFConfig:
    # Paper-default model sizes; dropout off so the timings measure the
    # kernels rather than the shared RNG cost.
    return CMSFConfig(master_epochs=MASTER_EPOCHS, slave_epochs=SLAVE_EPOCHS,
                      patience=None, dropout=0.0, seed=0, **overrides)


@pytest.fixture(scope="module")
def bench_graph():
    city = generate_city(_city_config())
    return build_urg(city)


def _master_seconds_per_epoch(graph, train_indices, **variant) -> float:
    config = _bench_config(**variant)
    best = float("inf")
    for _ in range(REPEATS):
        model = MasterModel(graph.poi_dim, graph.image_dim, config,
                            np.random.default_rng(0))
        start = time.perf_counter()
        train_master(model, graph, train_indices, config)
        best = min(best, (time.perf_counter() - start) / MASTER_EPOCHS)
    return best


def _slave_seconds_per_epoch(graph, train_indices, **variant):
    """(seconds-per-epoch, fitted detector) for one kernel configuration.

    The slave stage fine-tunes the master in place, so every timing needs a
    freshly trained master; the resulting two-stage detector is returned so
    the correctness gate and the scoring latencies reuse it instead of
    paying another full fit.
    """
    config = _bench_config(**variant)
    rng = np.random.default_rng(0)
    model = MasterModel(graph.poi_dim, graph.image_dim, config, rng)
    master_result = train_master(model, graph, train_indices, config)
    start = time.perf_counter()
    slave_result = train_slave(master_result, graph, train_indices, config, rng)
    seconds = (time.perf_counter() - start) / SLAVE_EPOCHS
    detector = CMSFDetector(config)
    detector.master_result = master_result
    detector.slave_result = slave_result
    detector._mark_fitted()
    return seconds, detector


def _score_latencies_ms(detector, graph, tmp_path, tag):
    """(cold_ms, warm_ms) through a freshly loaded bundle's engine."""
    save_bundle(detector, tmp_path / tag, graph, name=tag)
    engine = InferenceEngine.from_bundle(load_bundle(tmp_path / tag))
    cold = float("inf")
    for _ in range(3):
        engine.clear_cache()
        start = time.perf_counter()
        engine.predict_proba(graph)
        cold = min(cold, (time.perf_counter() - start) * 1e3)
    warm = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        engine.predict_proba(graph)
        warm = min(warm, (time.perf_counter() - start) * 1e3)
    return cold, warm


def test_training_throughput(bench_graph, tmp_path):
    graph = bench_graph
    train_indices = graph.labeled_indices()

    # Warm every code path once (allocator, BLAS threads, plan cache) so the
    # first timed variant is not penalised.
    warm_cfg = _bench_config(dtype="float32")
    warm_model = MasterModel(graph.poi_dim, graph.image_dim, warm_cfg,
                             np.random.default_rng(0))
    train_master(warm_model, graph, train_indices, warm_cfg)

    master = {name: _master_seconds_per_epoch(graph, train_indices, **variant)
              for name, variant in VARIANTS.items()}
    slave, detectors = {}, {}
    for name, variant in VARIANTS.items():
        slave[name], detectors[name] = _slave_seconds_per_epoch(
            graph, train_indices, **variant)
    speedup = {name: master["legacy_float64"] / master[name]
               for name in VARIANTS if name != "legacy_float64"}

    # The float64 plan path must reproduce the pre-PR kernels bit-for-bit.
    legacy_scores = detectors["legacy_float64"].predict_proba(graph)
    plan_scores = detectors["plan_float64"].predict_proba(graph)
    float64_identical = bool(np.array_equal(plan_scores, legacy_scores))

    scoring = {}
    for name in ("plan_float64", "plan_float32"):
        cold, warm = _score_latencies_ms(detectors[name], graph, tmp_path, name)
        scoring[name] = {"cold_ms": round(cold, 3), "warm_ms": round(warm, 3)}

    payload = {
        "benchmark": "training_throughput",
        "city": {"name": graph.name, "regions": int(graph.num_nodes),
                 "directed_edges": int(graph.num_edges),
                 "poi_dim": int(graph.poi_dim),
                 "image_dim": int(graph.image_dim),
                 "scale": BENCH_CITY},
        "epochs": {"master": MASTER_EPOCHS, "slave": SLAVE_EPOCHS,
                   "repeats": REPEATS},
        "master_s_per_epoch": {k: round(v, 6) for k, v in master.items()},
        "slave_s_per_epoch": {k: round(v, 6) for k, v in slave.items()},
        "master_speedup_vs_legacy": {k: round(v, 3) for k, v in speedup.items()},
        "cold_warm_score_ms": scoring,
        "float64_predict_bit_identical": float64_identical,
        "environment": {"platform": platform.platform(),
                        "python": platform.python_version(),
                        "numpy": np.__version__},
    }
    out_path = bench_out_path("REPRO_BENCH_OUT", "training")
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n[training-throughput] wrote {out_path.resolve()}")
    print(json.dumps(payload["master_s_per_epoch"], indent=2))
    print(f"fast-path master speedup: {speedup['plan_float32']:.2f}x "
          f"(float64 bit-identical: {float64_identical})")

    assert float64_identical, (
        "float64 predictions changed between the plan kernels and the "
        "pre-PR fallback — the EdgePlan refactor is no longer bit-exact")
    if BENCH_CITY == "medium":
        assert speedup["plan_float32"] >= MIN_SPEEDUP, (
            f"fast path is {speedup['plan_float32']:.2f}x vs the pre-PR "
            f"kernels; expected >= {MIN_SPEEDUP}x on the medium city")
