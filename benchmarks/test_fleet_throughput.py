"""Fleet replay throughput: 1-shard oracle vs sharded fleets.

Replays one seeded :class:`~repro.bench.workload.WorkloadTrace` (mixed
score/update/evict ops over several structurally distinct cities) against
a single in-process shard and against 2- and 3-shard
:class:`~repro.serve.fleet.FleetRouter` fleets, asserting the float64
score trajectories bit-identical along the way (the fleet's acceptance
invariant) and recording wall time, ops/s and the fleet's aggregated
cache/routing counters.

On one machine the fleets measure *routing overhead*, not speedup — the
replay is sequential and the shards share the GIL for non-BLAS work — so
the gate is on identity and on the overhead staying within an order of
magnitude, not on multi-shard throughput.

Results are written to ``.bench-out/BENCH_fleet.json`` (override with
``REPRO_BENCH_OUT_FLEET``).  ``REPRO_BENCH_CITY=tiny`` shrinks the base
city for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from benchmarks.conftest import bench_out_path
from repro.bench import (WorkloadConfig, derive_cities, generate_workload,
                         replay_trace, replays_identical, summarize_metrics)
from repro.core import CMSFConfig, CMSFDetector
from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.serve import EngineShard, FleetRouter, InferenceEngine, ModelRegistry
from repro.synth import generate_city, mini_city, tiny_city
from repro.urg import UrgBuildConfig, build_urg
from repro.urg.image_features import ImageFeatureConfig

pytestmark = pytest.mark.not_slow

BENCH_CITY = os.environ.get("REPRO_BENCH_CITY", "mini")
OPS = int(os.environ.get("REPRO_BENCH_FLEET_OPS", "40"))
N_CITIES = 3

FLEET_CONFIG = CMSFConfig(
    hidden_dim=16, image_reduce_dim=16, classifier_hidden=8, maga_layers=1,
    maga_heads=2, num_clusters=6, context_dim=8, master_epochs=12,
    slave_epochs=5, patience=None, dropout=0.0, seed=0,
)


@pytest.fixture(scope="module")
def fleet_setup(tmp_path_factory):
    """A published bundle plus a recorded trace over derived cities."""
    preset = tiny_city(seed=7) if BENCH_CITY == "tiny" else mini_city(seed=7)
    city = generate_city(preset)
    graph = build_urg(city, UrgBuildConfig(image=ImageFeatureConfig(reduce_dim=32)))
    detector = CMSFDetector(FLEET_CONFIG).fit(graph, graph.labeled_indices())
    registry = ModelRegistry(tmp_path_factory.mktemp("fleet-bench"))
    registry.publish(detector, graph, "bench")
    cities = derive_cities(graph, N_CITIES, seed=11)
    trace = generate_workload(cities, WorkloadConfig(ops=OPS, seed=5))
    return registry, trace


def _backend(registry, shards, obs):
    def make(i):
        return EngineShard(InferenceEngine.from_bundle(
            registry.resolve("bench"), cache_size=8, metrics=obs),
            shard_id=f"shard-{i}")
    if shards == 1:
        return make(0)
    return FleetRouter([make(i) for i in range(shards)], replication=2,
                       metrics=obs)


def test_fleet_replay_throughput(fleet_setup):
    registry, trace = fleet_setup
    results = {}
    replays = {}
    for shards in (1, 2, 3):
        # a fresh registry per topology: the scrape below is this
        # replay's traffic only, and latency percentiles land in the
        # JSON artifact next to the ops/s numbers
        obs = MetricsRegistry()
        backend = _backend(registry, shards, obs)
        replay = replay_trace(trace, backend)
        replays[shards] = replay
        entry = replay.summary()
        entry["metrics"] = summarize_metrics(
            parse_prometheus_text(obs.render()))
        if shards > 1:
            stats = backend.stats()
            entry["fleet"] = stats["fleet"]
            entry["cache_totals"] = stats["totals"]["cache"]
        results[f"shards_{shards}"] = entry
        print(f"[fleet-bench] {shards} shard(s): "
              f"{entry['ops']} ops in {entry['elapsed_s']}s "
              f"({entry['ops_per_second']} ops/s)")

    # the acceptance invariant: topology never changes the numbers
    for shards in (2, 3):
        identical, max_diff = replays_identical(replays[1], replays[shards])
        assert identical, (f"{shards}-shard fleet diverged from the oracle "
                           f"(max |diff| {max_diff})")

    # routing overhead must stay sane: the sequential replay through a
    # fleet should not be an order of magnitude slower than one shard
    baseline = max(replays[1].elapsed_s, 1e-9)
    for shards in (2, 3):
        overhead = replays[shards].elapsed_s / baseline
        results[f"shards_{shards}"]["overhead_vs_single"] = round(overhead, 3)
        assert overhead < 10.0, (f"{shards}-shard routing overhead "
                                 f"{overhead:.1f}x over single shard")

    payload = {
        "benchmark": "fleet_replay_throughput",
        "city": BENCH_CITY,
        "trace": trace.summary(),
        "results": results,
        "bit_identical_across_fleet_sizes": True,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    out_path = bench_out_path("REPRO_BENCH_OUT_FLEET", "fleet")
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[fleet-bench] wrote {out_path}")
