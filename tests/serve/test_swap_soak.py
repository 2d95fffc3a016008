"""Soak: hot swaps and rollbacks interleaved with incremental updates.

One :class:`EngineShard` on ``tiny:1`` serves three streams opened with
``incremental="always"`` and content fingerprints.  Three writer threads
stream seeded deltas to their own streams while a fourth thread swaps
streams to ``tiny:3`` and back, one swap per completed update, so
incremental rescores, full rebuilds after a swap and the swaps themselves
interleave across streams that share one engine per model version.
Invariants:

* **exact under swaps** — every update's scores equal, bit for bit,
  ``predict_proba`` of that version's graph by the model version the
  response names;
* **rollback is lossless** — after a final swap back to ``tiny:1`` each
  stream equals a serial, never-swapped replay of the same deltas.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from repro.serve import EngineShard, InferenceEngine
from repro.synth import EvolutionConfig, generate_evolution

STEPS = 8
STREAM_OPTIONS = {"incremental": "always", "fingerprints": "content"}


def _shard(registry, shard_id):
    engine = InferenceEngine.from_bundle(registry.load("tiny", "1"))
    return EngineShard(engine, shard_id=shard_id, **STREAM_OPTIONS)


def test_swaps_interleaved_with_incremental_updates_stay_exact(
        rollout_registry, fleet_cities):
    chains = {name: generate_evolution(graph, EvolutionConfig(
                  steps=STEPS, seed=40 + index))
              for index, (name, graph) in enumerate(fleet_cities.items())}
    names = sorted(chains)
    shard = _shard(rollout_registry, "soak")
    drifted = InferenceEngine.from_bundle(rollout_registry.load("tiny", "3"))
    for name in names:
        shard.open_stream(name, fleet_cities[name])

    responses = {name: [] for name in names}
    errors = []
    swaps = []
    completed = [0]
    progress = threading.Condition()
    start = threading.Barrier(len(names) + 1)

    def writer(name):
        start.wait()
        try:
            for delta in chains[name]:
                responses[name].append(shard.update_stream(name, delta))
                with progress:
                    completed[0] += 1
                    progress.notify_all()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(f"writer[{name}]: {error!r}")

    writers = [threading.Thread(target=writer, args=(name,)) for name in names]

    def swapper():
        target = {name: "1" for name in names}
        seen = 0
        start.wait()
        try:
            while any(thread.is_alive() for thread in writers):
                with progress:
                    if not progress.wait_for(lambda: completed[0] > seen,
                                             timeout=0.5):
                        continue
                    seen = completed[0]
                name = names[len(swaps) % len(names)]
                target[name] = "3" if target[name] == "1" else "1"
                shard.swap_stream(name, version=target[name],
                                  engine=drifted if target[name] == "3" else None)
                swaps.append((name, target[name]))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(f"swapper: {error!r}")

    threads = writers + [threading.Thread(target=swapper)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "soak hung"
    assert not errors, errors
    assert len(swaps) >= len(names)

    detectors = {version: rollout_registry.load("tiny", version).detector
                 for version in ("1", "3")}
    modes = Counter()
    scored_by = set()
    for name in names:
        graph = fleet_cities[name]
        assert len(responses[name]) == len(chains[name]) > 0
        for step, (delta, response) in enumerate(
                zip(chains[name], responses[name]), start=1):
            graph = delta.apply(graph)
            score = response["score"]
            assert response["version"] == step
            assert response["fingerprint"] == graph.fingerprint()
            np.testing.assert_array_equal(
                np.asarray(score["probabilities"]),
                detectors[score["version"]].predict_proba(graph),
                err_msg=f"{name} v{step} scored by tiny:{score['version']}")
            modes[response["mode"]] += 1
            scored_by.add(score["version"])
    # the soak exercised what it claims: both models, both rescore paths
    assert scored_by == {"1", "3"}, scored_by
    assert modes["incremental"] and modes["full"], modes

    for name in names:
        shard.swap_stream(name, version="1")
    replay = _shard(rollout_registry, "replay")
    for name in names:
        replay.open_stream(name, fleet_cities[name])
        for delta in chains[name]:
            replay.update_stream(name, delta)
        final, expected = shard.score_stream(name), replay.score_stream(name)
        assert final["version"] == expected["version"] == "1"
        assert final["fingerprint"] == expected["fingerprint"]
        np.testing.assert_array_equal(np.asarray(final["probabilities"]),
                                      np.asarray(expected["probabilities"]))
