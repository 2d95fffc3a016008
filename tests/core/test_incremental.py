"""Equivalence tests for delta-localised incremental scoring.

The acceptance contract: for float64 detectors, ``subset_rescore``
produces scores **bit-identical** to a full-rebuild ``predict_proba`` of
the updated graph — across seeded delta sequences covering feature
patches, edge rewiring, region growth and removal, every ablation variant,
and deltas placed right at (and across) the labelled-region boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (CMSFConfig, CMSFDetector, build_score_cache,
                        delta_seeds, subset_rescore)
from repro.nn.graphops import EdgePlan
from repro.stream import GraphDelta
from repro.synth import EvolutionConfig, generate_evolution

BASE = dict(hidden_dim=16, image_reduce_dim=16, classifier_hidden=8,
            maga_layers=1, maga_heads=2, num_clusters=6, context_dim=8,
            master_epochs=8, slave_epochs=4, patience=None, dropout=0.0,
            seed=0)


def _fit(graph, **overrides):
    config = dict(BASE)
    config.update(overrides)
    detector = CMSFDetector(CMSFConfig(**config))
    return detector.fit(graph, graph.labeled_indices())


def _walk(detector, graph, deltas):
    """Apply ``deltas`` incrementally; yield (kind, incremental, oracle)."""
    plan = EdgePlan.for_graph(graph)
    cache = build_score_cache(detector, graph, plan)
    current = graph
    for delta in deltas:
        updated = delta.apply(current)
        seeds = delta_seeds(delta, current)
        if delta.touches_topology:
            plan = EdgePlan.for_graph(updated)
        result = subset_rescore(detector, updated, plan, seeds, cache)
        yield delta.kind, result, detector.predict_proba(updated)
        current, cache = updated, result.cache


def _evolution(graph, seed, steps=8):
    return generate_evolution(graph, EvolutionConfig(
        steps=steps, seed=seed,
        scenarios=("poi_churn", "road_rewiring", "imagery_refresh",
                   "region_growth")))


class TestWavefrontBitIdentity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_mixed_delta_sequences(self, tiny_graph_small_image, seed):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        for kind, result, oracle in _walk(detector, graph,
                                          _evolution(graph, seed)):
            assert oracle.dtype == np.float64
            assert np.array_equal(result.scores, oracle), kind

    @pytest.mark.parametrize("overrides", [
        dict(use_gate=False),
        dict(use_gate=False, use_gscm=False),
        dict(use_maga=False),
        dict(maga_layers=2),
        dict(maga_aggregation="sum"),
        dict(maga_aggregation="concat"),
        dict(cluster_aggregation="concat", use_gate=False),
    ], ids=["no-gate", "no-hierarchy", "no-maga", "two-layers", "agg-sum",
            "agg-concat", "cluster-concat"])
    def test_across_variants(self, tiny_graph_small_image, overrides):
        graph = tiny_graph_small_image
        detector = _fit(graph, **overrides)
        for kind, result, oracle in _walk(detector, graph,
                                          _evolution(graph, 7, steps=6)):
            assert np.array_equal(result.scores, oracle), kind

    def test_region_deltas_are_refused(self, tiny_graph_small_image):
        """Region growth/removal changes the node count — and with it the
        shape of every per-node BLAS product, which is exactly what the
        bit-stability guarantee rests on.  ``subset_rescore`` must refuse
        rather than return almost-right scores; the streaming layer routes
        these through the full path (covered in the streaming tests)."""
        graph = tiny_graph_small_image
        detector = _fit(graph)
        plan = EdgePlan.for_graph(graph)
        cache = build_score_cache(detector, graph, plan)
        shrink = GraphDelta(kind="shrink",
                            remove_regions=np.array([10, 20, 30]))
        updated = shrink.apply(graph)
        seeds = delta_seeds(shrink, graph)
        assert seeds.num_removed == 3
        with pytest.raises(ValueError, match="adds or removes regions"):
            subset_rescore(detector, updated, EdgePlan.for_graph(updated),
                           seeds, cache)
        smaller = updated
        grow = generate_evolution(smaller, EvolutionConfig(
            steps=1, seed=3, scenarios=("region_growth",)))
        assert grow, "removals must free grid cells for growth"
        grown = grow[0].apply(smaller)
        seeds = delta_seeds(grow[0], smaller)
        assert seeds.num_added > 0
        with pytest.raises(ValueError, match="adds or removes regions"):
            subset_rescore(detector, grown, EdgePlan.for_graph(grown),
                           seeds, cache)

    def test_deltas_at_and_across_the_labeled_boundary(
            self, tiny_graph_small_image):
        """Halo-boundary cases: patches adjacent to, and overlapping, the
        labelled mask behave no differently from any other region — the
        receptive field is structural, not label-aware."""
        graph = tiny_graph_small_image
        detector = _fit(graph)
        plan = EdgePlan.for_graph(graph)
        labeled = np.flatnonzero(graph.labeled_mask)
        src, dst = graph.edge_index
        boundary_mask = np.zeros(graph.num_nodes, dtype=bool)
        boundary_mask[dst[graph.labeled_mask[src]]] = True
        boundary_mask[labeled] = False
        adjacent = np.flatnonzero(boundary_mask)
        rng = np.random.default_rng(13)
        cases = {
            "overlapping-labels": labeled[:4],
            "adjacent-to-labels": adjacent[:4],
            "straddling": np.sort(np.concatenate([labeled[:2], adjacent[:2]])),
        }
        cache = build_score_cache(detector, graph, plan)
        for name, rows in cases.items():
            delta = GraphDelta(
                kind=name, poi_rows=rows,
                poi_values=graph.x_poi[rows]
                + rng.normal(0, 0.3, (rows.size, graph.poi_dim)))
            updated = delta.apply(graph)
            seeds = delta_seeds(delta, graph)
            result = subset_rescore(detector, updated, plan, seeds, cache)
            assert np.array_equal(result.scores,
                                  detector.predict_proba(updated)), name

    def test_empty_delta_returns_cached_scores(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        plan = EdgePlan.for_graph(graph)
        cache = build_score_cache(detector, graph, plan)
        delta = GraphDelta(kind="empty")
        seeds = delta_seeds(delta, graph)
        assert seeds.is_empty
        result = subset_rescore(detector, graph, plan, seeds, cache)
        assert result.interior.size == 0
        assert np.array_equal(result.scores, cache.scores)

    def test_float32_matches_to_roundoff(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph, dtype="float32")
        for kind, result, oracle in _walk(detector, graph,
                                          _evolution(graph, 3, steps=4)):
            assert result.scores.dtype == np.float32
            np.testing.assert_allclose(result.scores, oracle,
                                       rtol=1e-4, atol=1e-5, err_msg=kind)


class TestReceptiveField:
    def test_interior_is_receptive_field(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        plan = EdgePlan.for_graph(graph)
        cache = build_score_cache(detector, graph, plan)
        rows = np.array([17])
        delta = GraphDelta(kind="poke", poi_rows=rows,
                           poi_values=graph.x_poi[rows] + 1.0)
        updated = delta.apply(graph)
        result = subset_rescore(detector, updated, plan,
                                delta_seeds(delta, graph), cache)
        from repro.nn.graphops import affected_regions
        expected = affected_regions(plan, rows, 1, direction="out")
        assert result.interior.tolist() == expected.tolist()


class TestApiSurface:
    def test_build_score_cache_matches_predict(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        cache = detector.build_score_cache(graph)
        assert np.array_equal(cache.scores, detector.predict_proba(graph))
        assert cache.num_nodes == graph.num_nodes
        assert cache.nbytes() > 0

    def test_predict_proba_subset_public_api(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        cache = detector.build_score_cache(graph)
        touched = np.array([3, 40])
        patched = graph.x_poi.copy()
        patched[touched] += 0.5
        updated = GraphDelta(kind="edit", poi_rows=touched,
                             poi_values=patched[touched]).apply(graph)
        result = detector.predict_proba_subset(updated, touched, cache=cache)
        assert np.array_equal(result.scores, detector.predict_proba(updated))
        assert touched.tolist() == sorted(
            set(touched.tolist()) & set(result.interior.tolist()))

    def test_predict_proba_subset_requires_cache(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        with pytest.raises(ValueError, match="score cache"):
            detector.predict_proba_subset(graph, [0])

    def test_stale_cache_rejected(self, tiny_graph_small_image):
        graph = tiny_graph_small_image
        detector = _fit(graph)
        cache = detector.build_score_cache(graph)
        # a cache whose row count disagrees with the graph must be refused
        smaller = GraphDelta(kind="shrink", remove_regions=np.array([0]))
        updated = smaller.apply(graph)
        seeds = delta_seeds(GraphDelta(kind="edit", poi_rows=np.array([1]),
                                       poi_values=graph.x_poi[1:2]), updated)
        plan = EdgePlan.for_graph(updated)
        with pytest.raises(ValueError, match="different version"):
            subset_rescore(detector, updated, plan, seeds, cache)
