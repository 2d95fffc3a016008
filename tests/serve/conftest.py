"""Shared fixtures for the serving-layer tests.

The reduced CMSF configuration and the session-scoped fitted detector live
in the top-level ``tests/conftest.py`` (the streaming tests share them);
this package only adds the published model registry.
"""

from __future__ import annotations

import pytest

from repro.bench import WorkloadConfig, derive_cities, generate_workload
from repro.serve import EngineShard, InferenceEngine, ModelRegistry


@pytest.fixture(scope="session")
def model_registry(tmp_path_factory, fitted_detector, tiny_graph_small_image):
    """A registry with the fitted detector published as ``tiny:1``."""
    registry = ModelRegistry(tmp_path_factory.mktemp("models"))
    registry.publish(fitted_detector, tiny_graph_small_image, "tiny")
    return registry


@pytest.fixture(scope="session")
def shard_factory(model_registry):
    """Build independent in-process shards from the published bundle.

    Every shard gets its *own* detector instance (loaded from the bundle,
    so identical float64 parameters), as every shard of a real fleet
    loads its own.
    """
    def make(shard_id, cache_size=8, **stream_defaults):
        engine = InferenceEngine.from_bundle(
            model_registry.resolve("tiny"), cache_size=cache_size)
        return EngineShard(engine, shard_id=shard_id, **stream_defaults)
    return make


@pytest.fixture(scope="session")
def rollout_registry(tmp_path_factory, fitted_detector, fast_config,
                     tiny_graph_small_image):
    """A registry for the rollout suites: ``tiny:1`` (baseline),
    ``tiny:2`` (identical twin — zero drift) and ``tiny:3`` (retrained
    with another seed — real drift)."""
    from repro.core import CMSFDetector

    registry = ModelRegistry(tmp_path_factory.mktemp("rollout-models"))
    graph = tiny_graph_small_image
    registry.publish(fitted_detector, graph, "tiny", version="1")
    registry.publish(fitted_detector, graph, "tiny", version="2")
    drifted = CMSFDetector(fast_config.with_overrides(seed=3)).fit(
        graph, graph.labeled_indices())
    registry.publish(drifted, graph, "tiny", version="3")
    return registry


@pytest.fixture(scope="session")
def fleet_cities(tiny_graph_small_image):
    """Three structurally distinct city variants sharing the bundle's dims."""
    return derive_cities(tiny_graph_small_image, 3, seed=11)


@pytest.fixture(scope="session")
def fleet_trace(fleet_cities):
    """A deterministic mixed score/update/evict trace over the cities."""
    return generate_workload(fleet_cities, WorkloadConfig(ops=20, seed=5))


@pytest.fixture(scope="session")
def traces_equal():
    """Full structural trace equality, shared by the replay and property
    suites (tests/ is not a package, so the helper travels as a fixture)."""
    def check(a, b):
        assert list(a.cities) == list(b.cities)
        for name in a.cities:
            assert a.cities[name].fingerprint() == b.cities[name].fingerprint()
        assert len(a.ops) == len(b.ops)
        for left, right in zip(a.ops, b.ops):
            assert left.op == right.op and left.city == right.city
            if left.delta is None:
                assert right.delta is None
            else:
                assert left.delta.digest() == right.delta.digest()
        assert (a.seed, a.name, a.meta) == (b.seed, b.name, b.meta)
    return check
