"""The inference engine: caching, the fused cold path, concurrency."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import repro.core.incremental as incremental
from repro.nn.graphops import clear_plan_cache
from repro.serve import InferenceEngine
from repro.stream import GraphDelta, StreamingScorer


@pytest.fixture()
def engine(model_registry):
    return InferenceEngine.from_bundle(model_registry.load("tiny"))


class TestCaching:
    def test_cold_then_cached_scores_identical(self, engine,
                                               tiny_graph_small_image,
                                               reference_scores):
        first = engine.score(tiny_graph_small_image)
        second = engine.score(tiny_graph_small_image)
        assert not first.cache_hit and second.cache_hit
        np.testing.assert_array_equal(first.probabilities, reference_scores)
        np.testing.assert_array_equal(second.probabilities, reference_scores)
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.misses == 1
        assert engine.cache_stats.hit_rate == 0.5

    def test_modified_graph_misses_cache(self, engine, tiny_graph_small_image):
        engine.score(tiny_graph_small_image)
        labels = tiny_graph_small_image.labels.copy()
        labels[int(np.flatnonzero(labels == 1)[0])] = 0
        changed = tiny_graph_small_image.with_labels(
            labels, tiny_graph_small_image.labeled_mask)
        result = engine.score(changed)
        assert not result.cache_hit
        assert engine.cache_stats.misses == 2

    def test_lru_eviction(self, model_registry, tiny_graph_small_image):
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"),
                                             cache_size=1)
        other = replace(tiny_graph_small_image, name="renamed")
        engine.score(tiny_graph_small_image)
        engine.score(other)
        assert engine.cache_stats.evictions == 1
        assert not engine.score(tiny_graph_small_image).cache_hit

    def test_cache_disabled(self, model_registry, tiny_graph_small_image):
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"),
                                             cache_size=0)
        engine.score(tiny_graph_small_image)
        assert not engine.score(tiny_graph_small_image).cache_hit

    def test_warm_prepopulates(self, engine, tiny_graph_small_image):
        fingerprint = engine.warm(tiny_graph_small_image)
        result = engine.score(tiny_graph_small_image)
        assert result.cache_hit
        assert result.fingerprint == fingerprint


class TestFusedTail:
    """Cold scores run the one fused, row-blocked inference tail."""

    def test_cold_scores_reproducible(self, model_registry,
                                      tiny_graph_small_image,
                                      reference_scores):
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"),
                                             cache_size=0)
        for _ in range(2):
            np.testing.assert_array_equal(
                engine.predict_proba(tiny_graph_small_image), reference_scores)

    def test_master_only_scores_bit_identical(self, tiny_graph_small_image,
                                              fast_config, tmp_path):
        from repro.core import CMSFDetector
        from repro.serve import save_bundle, load_bundle

        graph = tiny_graph_small_image
        config = fast_config.with_overrides(use_gate=False)
        detector = CMSFDetector(config).fit(graph, graph.labeled_indices())
        reference = detector.predict_proba(graph)
        bundle = load_bundle(save_bundle(detector, tmp_path / "b", graph, name="m"))
        engine = InferenceEngine.from_bundle(bundle)
        np.testing.assert_array_equal(engine.predict_proba(graph), reference)

    def test_multi_block_city_bit_identical_across_paths(self, model_registry):
        """On a city spanning three row blocks, the engine's cold path,
        ``predict_proba`` and a streamed incremental update agree bit for
        bit (they share one tail)."""
        from repro.core.gate import ROW_BLOCK
        from repro.stream import GraphDelta, StreamingScorer
        from repro.synth import generate_city, mini_city
        from repro.urg import UrgBuildConfig, build_urg
        from repro.urg.image_features import ImageFeatureConfig

        graph = build_urg(generate_city(mini_city(seed=7)), UrgBuildConfig(
            image=ImageFeatureConfig(reduce_dim=32)))
        assert graph.num_nodes > 2 * ROW_BLOCK
        detector = model_registry.load("tiny").detector
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"),
                                             cache_size=0)
        np.testing.assert_array_equal(engine.predict_proba(graph),
                                      detector.predict_proba(graph))

        rows = np.array([3, ROW_BLOCK + 5, 2 * ROW_BLOCK + 1])
        delta = GraphDelta(kind="poi_patch", poi_rows=rows,
                           poi_values=graph.x_poi[rows] + 0.25)
        streamed = InferenceEngine.from_bundle(model_registry.load("tiny"))
        scorer = StreamingScorer(streamed, graph, warm=True,
                                 incremental="always")
        update = scorer.update(delta)
        assert update.mode == "incremental"
        updated = delta.apply(graph)
        reference = detector.predict_proba(updated)
        np.testing.assert_array_equal(update.probabilities, reference)
        np.testing.assert_array_equal(engine.predict_proba(updated), reference)


class TestScoring:
    def test_region_subset(self, engine, tiny_graph_small_image, reference_scores):
        result = engine.score(tiny_graph_small_image, regions=[5, 0, 17])
        np.testing.assert_array_equal(result.probabilities,
                                      reference_scores[[5, 0, 17]])
        np.testing.assert_array_equal(result.regions, [5, 0, 17])

    def test_region_out_of_range(self, engine, tiny_graph_small_image):
        with pytest.raises(ValueError, match="out of range"):
            engine.score(tiny_graph_small_image, regions=[10_000])

    def test_non_integer_regions_rejected(self, engine, tiny_graph_small_image):
        with pytest.raises(ValueError, match="integer node indices"):
            engine.score(tiny_graph_small_image, regions=[1.9])
        with pytest.raises(ValueError, match="regions"):
            engine.score(tiny_graph_small_image, regions=["a"])
        # not a nested list: it would score as nested probabilities
        with pytest.raises(ValueError, match="flat list"):
            engine.score(tiny_graph_small_image, regions=[[1, 2]])
        # empty selections are fine
        result = engine.score(tiny_graph_small_image, regions=[])
        assert result.probabilities.size == 0

    def test_preprocessing_mismatch_reported_clearly(self, engine, tiny_graph):
        # tiny_graph keeps the full raw image features while the bundle was
        # trained on the reduced 32-d variant: the engine must name the
        # mismatch instead of failing inside the encoder
        with pytest.raises(ValueError, match=r"image_dim \d+ != 32"):
            engine.score(tiny_graph)

    def test_top_percent_shortlist(self, engine, tiny_graph_small_image,
                                   reference_scores):
        result = engine.score(tiny_graph_small_image, top_percent=5.0)
        budget = max(1, int(round(tiny_graph_small_image.num_nodes * 0.05)))
        assert result.selected.size == budget
        expected = np.argsort(-reference_scores, kind="stable")[:budget]
        np.testing.assert_array_equal(np.sort(result.selected), np.sort(expected))

    def test_invalid_top_percent(self, engine, tiny_graph_small_image):
        with pytest.raises(ValueError, match="top_percent"):
            engine.score(tiny_graph_small_image, top_percent=0)

    def test_predict_threshold(self, engine, tiny_graph_small_image,
                               reference_scores):
        predictions = engine.predict(tiny_graph_small_image, threshold=0.5)
        np.testing.assert_array_equal(predictions,
                                      (reference_scores >= 0.5).astype(np.int64))


class TestConcurrency:
    def test_score_many_in_order_and_consistent(self, engine,
                                                tiny_graph_small_image,
                                                reference_scores):
        other = replace(tiny_graph_small_image, name="renamed")
        graphs = [tiny_graph_small_image, other] * 3
        results = engine.score_many(graphs)
        assert len(results) == 6
        for result in results:
            np.testing.assert_array_equal(result.probabilities, reference_scores)
        fingerprints = {result.fingerprint for result in results}
        assert len(fingerprints) == 2
        # concurrent duplicates are deduplicated: only one forward pass per
        # unique fingerprint regardless of request interleaving
        assert engine.cold_computes == 2
        assert engine.cache_stats.requests == 6

    def test_score_many_empty(self, engine):
        assert engine.score_many([]) == []

    def test_cold_forwards_of_distinct_cities_overlap(self, model_registry,
                                                      fleet_cities,
                                                      monkeypatch):
        """Two cold forwards run at once on one engine: each waits at a
        two-party barrier inside the forward, which only passes while
        both are in flight (a lock around the model breaks it)."""
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"),
                                             cache_size=0)
        detector = engine.detector
        graphs = list(fleet_cities.values())[:2]
        assert graphs[0].fingerprint() != graphs[1].fingerprint()
        expected = [detector.predict_proba(graph) for graph in graphs]
        barrier = threading.Barrier(2, timeout=10)
        predict = detector.predict_proba

        def rendezvous(graph, plan=None):
            barrier.wait()
            return predict(graph, plan=plan)

        monkeypatch.setattr(detector, "predict_proba", rendezvous)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(engine.score, graphs))
        for result, reference in zip(results, expected):
            assert not result.cache_hit
            np.testing.assert_array_equal(result.probabilities, reference)
        assert engine.cold_computes == 2

    def test_concurrent_cold_scores_stress(self, model_registry, fleet_cities,
                                           monkeypatch):
        """Six threads on two cores each cold-score their own city five
        times under a short switch interval.  Each city has a relabelled
        twin that shares its freshly built edge plan, and every forward
        ends at a six-party barrier, so the threads count their computes
        at the same moment: every score stays exact and no count is lost."""
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"),
                                             cache_size=0)
        detector = engine.detector
        graphs = []
        for graph in fleet_cities.values():
            labels = np.where(graph.labels == 1, 0, graph.labels)
            graphs += [graph, graph.with_labels(labels, graph.labeled_mask)]
        expected = [detector.predict_proba(graph) for graph in graphs]
        clear_plan_cache()
        barrier = threading.Barrier(len(graphs), timeout=10)
        predict = detector.predict_proba

        def in_step(graph, plan=None):
            scores = predict(graph, plan=plan)
            barrier.wait()
            return scores

        monkeypatch.setattr(detector, "predict_proba", in_step)
        rounds = 5

        def client(graph):
            return [engine.score(graph).probabilities for _ in range(rounds)]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(graphs)) as pool:
                results = list(pool.map(client, graphs))
        finally:
            sys.setswitchinterval(previous)
        for scores, reference in zip(results, expected):
            for probabilities in scores:
                np.testing.assert_array_equal(probabilities, reference)
        assert engine.cold_computes == rounds * len(graphs)

    def test_incremental_rescores_of_two_streams_overlap(self, model_registry,
                                                         fleet_cities,
                                                         monkeypatch):
        """Incremental rescores of two streams sharing one engine run at
        once (same barrier, around ``subset_rescore``) and stay
        bit-identical to a full rebuild of each new version."""
        engine = InferenceEngine.from_bundle(model_registry.load("tiny"))
        detector = engine.detector
        graphs = list(fleet_cities.values())[:2]
        scorers = [StreamingScorer(engine, graph, warm=True,
                                   incremental="always") for graph in graphs]
        rows = np.array([3, 40])
        deltas = [GraphDelta(kind="poi_patch", poi_rows=rows,
                             poi_values=graph.x_poi[rows] + 0.25)
                  for graph in graphs]
        barrier = threading.Barrier(2, timeout=10)
        rescore = incremental.subset_rescore

        def rendezvous(*args, **kwargs):
            barrier.wait()
            return rescore(*args, **kwargs)

        monkeypatch.setattr(incremental, "subset_rescore", rendezvous)
        with ThreadPoolExecutor(max_workers=2) as pool:
            updates = list(pool.map(lambda job: job[0].update(job[1]),
                                    zip(scorers, deltas)))
        for update, graph, delta in zip(updates, graphs, deltas):
            assert update.mode == "incremental"
            np.testing.assert_array_equal(
                update.probabilities, detector.predict_proba(delta.apply(graph)))
