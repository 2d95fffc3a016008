"""Serving-layer surface of incremental rescoring.

Covers the ``/stats`` endpoint, the enriched ``/update`` responses
(``mode`` / ``affected_regions`` / timing), the stream-open knobs, the
engine's ``seed_scores`` hook and the cache-stampede guard (concurrent
cold requests for one city compute once even with the result LRU unable
to carry the answer between threads).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import InferenceEngine, ScoringClient, ScoringServer
from repro.serve.client import ScoringServiceError
from repro.synth import EvolutionConfig, generate_evolution


@pytest.fixture()
def streaming_server(model_registry):
    with ScoringServer(model_registry, cache_size=8) as server:
        client = ScoringClient(server.url)
        client.wait_until_ready()
        yield server, client


def _deltas(graph, steps=3, seed=11):
    return generate_evolution(graph, EvolutionConfig(
        steps=steps, seed=seed, scenarios=("poi_churn", "imagery_refresh")))


class TestUpdateResponses:
    def test_update_reports_mode_and_receptive_field(
            self, streaming_server, tiny_graph_small_image):
        _, client = streaming_server
        graph = tiny_graph_small_image
        client.open_stream("inc", graph, "tiny")
        first, second = _deltas(graph, steps=2)[:2]
        payload = client.update_stream("inc", first)
        assert payload["mode"] in ("incremental", "full")
        response = client.update_stream("inc", second)
        assert response["mode"] == "incremental"
        assert 0 < response["affected_regions"] <= graph.num_nodes
        assert 0 < response["affected_fraction"] <= 1
        assert response["elapsed_ms"] >= 0
        stats = response["stats"]
        assert stats["incremental_rescores"] >= 1

    def test_open_knobs_respected_and_validated(self, streaming_server,
                                                tiny_graph_small_image):
        _, client = streaming_server
        graph = tiny_graph_small_image
        client.open_stream("plain", graph, "tiny", incremental="never")
        (delta,) = _deltas(graph, steps=1)
        payload = client.update_stream("plain", delta)
        assert payload["mode"] == "full"
        with pytest.raises(ScoringServiceError) as excinfo:
            client.open_stream("bad", graph, "tiny", incremental="sometimes")
        assert excinfo.value.status == 400
        with pytest.raises(ScoringServiceError) as excinfo:
            client.open_stream("bad", graph, "tiny", incremental_cutoff=0)
        assert excinfo.value.status == 400


class TestStatsEndpoint:
    def test_stats_exposes_caches_and_stream_counters(
            self, streaming_server, tiny_graph_small_image):
        _, client = streaming_server
        graph = tiny_graph_small_image
        client.open_stream("watched", graph, "tiny")
        for delta in _deltas(graph, steps=3):
            client.update_stream("watched", delta)
        stats = client.stats()
        assert stats["plan_cache"]["builds"] >= 1
        (engine_entry,) = [e for e in stats["engines"] if e["model"] == "tiny"]
        assert engine_entry["cache"]["hits"] >= 1
        assert "stampedes_avoided" in engine_entry
        entry = [s for s in stats["streams"] if s["stream"] == "watched"][0]
        assert entry["incremental"] == "auto"
        assert entry["stats"]["incremental_rescores"] >= 1
        assert entry["stats"]["rescores"] >= 3


class TestSeedScores:
    def test_seeded_scores_serve_as_cache_hits(self, fitted_detector,
                                               tiny_graph_small_image):
        engine = InferenceEngine(fitted_detector, cache_size=4)
        graph = tiny_graph_small_image
        fingerprint = graph.fingerprint()
        scores = np.linspace(0, 1, graph.num_nodes)
        engine.seed_scores(fingerprint, scores)
        result = engine.score(graph)
        assert result.cache_hit
        assert engine.cold_computes == 0
        assert np.array_equal(result.probabilities, scores)

    def test_seed_scores_noop_when_cache_disabled(self, fitted_detector,
                                                  tiny_graph_small_image):
        engine = InferenceEngine(fitted_detector, cache_size=0)
        assert not engine.caching_enabled
        engine.seed_scores("abc", np.zeros(3))
        assert engine.cache_len == 0


class TestStampedeGuard:
    def test_concurrent_cold_requests_compute_once_without_cache(
            self, fitted_detector, tiny_graph_small_image, monkeypatch):
        """With the result cache disabled entirely, the LRU can never hand
        one thread's result to another — only the in-flight guard can.
        Every concurrent requester must still get the single computed
        vector, with exactly one forward pass paid."""
        engine = InferenceEngine(fitted_detector, cache_size=0)
        graph = tiny_graph_small_image
        barrier = threading.Barrier(5)
        original = engine._cold_scores

        def slow_cold(graph_arg, fingerprint):
            # hold the compute long enough for every waiter to line up
            # behind the in-flight entry (they all passed the barrier
            # before the owner got here)
            import time
            time.sleep(0.5)
            return original(graph_arg, fingerprint)

        monkeypatch.setattr(engine, "_cold_scores", slow_cold)

        def request(_):
            barrier.wait(timeout=10)
            return engine.score(graph).probabilities

        with ThreadPoolExecutor(max_workers=5) as pool:
            results = list(pool.map(request, range(5)))
        assert engine.cold_computes == 1
        assert engine.stampedes_avoided == 4
        for got in results[1:]:
            assert np.array_equal(got, results[0])

    def test_failed_compute_does_not_wedge_the_fingerprint(
            self, fitted_detector, tiny_graph_small_image, monkeypatch):
        engine = InferenceEngine(fitted_detector, cache_size=2)
        graph = tiny_graph_small_image
        calls = {"n": 0}
        original = engine._cold_scores

        def flaky(graph_arg, fingerprint):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")
            return original(graph_arg, fingerprint)

        monkeypatch.setattr(engine, "_cold_scores", flaky)
        with pytest.raises(RuntimeError, match="transient"):
            engine.score(graph)
        result = engine.score(graph)
        assert not engine._inflight
        assert result.probabilities.shape == (graph.num_nodes,)
