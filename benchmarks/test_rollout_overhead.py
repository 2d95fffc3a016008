"""Shadow-scoring overhead of a staged canary rollout.

A rollout mirrors every full-vector canary score onto the previous
version (:mod:`repro.serve.rollout`), so canary requests pay for two
engine evaluations plus a drift comparison.  At a 5% first stage that
cost lands on a small slice of traffic, so serving a realistic mixed
score/update trace through a live rollout must stay cheap: the gate
asserts the rollout replay's wall-clock is under ``MAX_OVERHEAD`` x a
plain single-version replay of the *identical* trace (the rollout op is
a no-op for the baseline backend, so both sides run the same ops).

Results land in ``.bench-out/BENCH_rollout.json`` (override
``REPRO_BENCH_OUT_ROLLOUT``); ``REPRO_BENCH_ROLLOUT_OPS`` scales the
trace and ``REPRO_BENCH_ROLLOUT_REPS`` the repetitions (best-of wins,
squeezing scheduler noise out of the ratio).
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from benchmarks.conftest import bench_out_path
from repro.bench import (WorkloadConfig, derive_cities, generate_workload,
                         replay_rollout_trace, replay_trace, with_rollout)
from repro.core import CMSFConfig, CMSFDetector
from repro.obs import MetricsRegistry
from repro.serve import (EngineShard, FleetRouter, InferenceEngine,
                         ModelRegistry, RolloutController, RolloutPolicy,
                         canary_assignment)
from repro.synth import generate_city, tiny_city
from repro.urg import UrgBuildConfig, build_urg
from repro.urg.image_features import ImageFeatureConfig

pytestmark = pytest.mark.not_slow

OPS = int(os.environ.get("REPRO_BENCH_ROLLOUT_OPS", "80"))
REPS = int(os.environ.get("REPRO_BENCH_ROLLOUT_REPS", "2"))
N_CITIES = 6
CANARY_FRACTION = 0.05
#: the PR's acceptance gate: shadow scoring at a 5% canary must stay
#: under 2x the single-version latency of the same traffic
MAX_OVERHEAD = 2.0

ROLLOUT_CONFIG = CMSFConfig(
    hidden_dim=16, image_reduce_dim=16, classifier_hidden=8, maga_layers=1,
    maga_heads=2, num_clusters=6, context_dim=8, master_epochs=12,
    slave_epochs=5, patience=None, dropout=0.0, seed=0,
)


@pytest.fixture(scope="module")
def rollout_setup(tmp_path_factory):
    """Two published versions (identical weights) and a mixed trace.

    The update ops keep the graphs moving, so every score is a real
    inference rather than a result-cache hit — the baseline latency the
    gate compares against is the latency of actual serving work.
    """
    city = generate_city(tiny_city(seed=7))
    graph = build_urg(city,
                      UrgBuildConfig(image=ImageFeatureConfig(reduce_dim=32)))
    detector = CMSFDetector(ROLLOUT_CONFIG).fit(graph,
                                                graph.labeled_indices())
    registry = ModelRegistry(tmp_path_factory.mktemp("rollout-bench"))
    registry.publish(detector, graph, "bench", version="1")
    registry.publish(detector, graph, "bench", version="2")
    cities = derive_cities(graph, N_CITIES, seed=11)
    trace = with_rollout(generate_workload(cities, WorkloadConfig(
        ops=OPS, seed=5, score_weight=0.5, update_weight=0.5,
        evict_weight=0.0)), at=0)
    # a seed putting at least one (not every) city in the 5% canary, so
    # the measured run actually pays the shadow path
    keys = [g.structural_fingerprint() for g in cities.values()]
    for seed in range(5000):
        flags = [canary_assignment(seed, key) < CANARY_FRACTION
                 for key in keys]
        if any(flags) and not all(flags):
            break
    else:
        raise AssertionError("no seed puts a city in the 5% canary")
    engines = {version: InferenceEngine.from_bundle(
        registry.resolve("bench", version), cache_size=N_CITIES)
        for version in ("1", "2")}
    return registry, trace, seed, engines


def _fleet(registry):
    return FleetRouter(
        [EngineShard(InferenceEngine.from_bundle(
            registry.resolve("bench", "1"), cache_size=N_CITIES),
            shard_id=f"shard-{i}") for i in range(2)],
        replication=2)


def test_shadow_scoring_overhead_under_gate(rollout_setup):
    registry, trace, seed, engines = rollout_setup

    baseline_s, rollout_s = float("inf"), float("inf")
    last_status = None
    for _ in range(REPS):
        # -- baseline: the same trace on a single version --------------
        fleet = _fleet(registry)
        result = replay_trace(trace, fleet, collect_stats=False,
                              keep_scores=False)
        baseline_s = min(baseline_s, result.elapsed_s)
        fleet.close()

        # -- identical trace through a rollout held at 5% --------------
        fleet = _fleet(registry)
        controller = RolloutController(
            fleet, "bench", "2",
            resolve_engine=lambda model, version: engines[version],
            policy=RolloutPolicy(min_pairs=10 ** 6),  # hold: never act
            stages=(CANARY_FRACTION, 1.0), seed=seed, auto=True,
            metrics=MetricsRegistry())
        result = replay_rollout_trace(trace, controller,
                                      collect_stats=False,
                                      keep_scores=False)
        rollout_s = min(rollout_s, result.elapsed_s)
        last_status = result.rollout_status
        fleet.close()

    assert last_status["state"] == "canary" and last_status["stage"] == 0
    canary_requests = sum(1 for d in result.decisions if d["canary"])
    assert canary_requests > 0, "the trace never hit the canary"
    assert last_status["shadow"]["pairs"] > 0

    ops = len(trace)
    per_op_base = baseline_s / ops * 1000
    per_op_rollout = rollout_s / ops * 1000
    overhead = rollout_s / baseline_s
    print(f"[rollout-bench] baseline: {per_op_base:.3f} ms/op, "
          f"rollout@{CANARY_FRACTION:.0%}: {per_op_rollout:.3f} ms/op "
          f"({canary_requests}/{ops} canary requests, "
          f"{last_status['shadow']['pairs']} shadow pairs)")
    print(f"[rollout-bench] shadow overhead x{overhead:.2f} "
          f"(gate: x{MAX_OVERHEAD})")

    payload = {
        "benchmark": "rollout_shadow_overhead",
        "schema_version": 1,
        "canary_fraction": CANARY_FRACTION,
        "repetitions": REPS,
        "trace": trace.summary(),
        "baseline_ms_per_op": round(per_op_base, 4),
        "rollout_ms_per_op": round(per_op_rollout, 4),
        "canary_requests": canary_requests,
        "shadow_pairs": last_status["shadow"]["pairs"],
        "overhead_ratio": round(overhead, 3),
        "gate_max": MAX_OVERHEAD,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    out_path = bench_out_path("REPRO_BENCH_OUT_ROLLOUT", "rollout")
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[rollout-bench] wrote {out_path}")

    assert overhead < MAX_OVERHEAD, (
        f"shadow scoring cost x{overhead:.2f} over single-version serving "
        f"(gate: x{MAX_OVERHEAD})")
