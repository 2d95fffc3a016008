"""Tests for the precomputed graph compute plans (EdgePlan / SegmentPlan).

The contract under test is twofold:

1. plan-based primitives compute the same thing as the naive ``np.add.at``
   reference — values *and* gradients — across random shapes, empty-edge
   graphs, single-node graphs and both supported dtypes;
2. for float64, plan-based results are **bit-identical** to the legacy
   per-call kernels, because the plan only moves structural work out of the
   hot path without changing the arithmetic order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.graphops import (EdgePlan, SegmentPlan, affected_regions,
                               clear_plan_cache, plan_cache_info)
from repro.nn.sparse import (gather_rows, segment_max_raw, segment_mean,
                             segment_softmax, segment_sum)
from repro.nn.tensor import Tensor, dtype_scope


def _reference_scatter_sum(ids, values, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


class TestSegmentPlan:
    def test_validates_once_at_construction(self):
        with pytest.raises(ValueError):
            SegmentPlan(np.array([0, 7]), 3)
        with pytest.raises(ValueError):
            SegmentPlan(np.array([-1, 0]), 3)
        with pytest.raises(ValueError):
            SegmentPlan(np.array([[0, 1]]), 3)

    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_scatter_sum_matches_add_at(self, n_entries, n_segments, cols, dtype):
        rng = np.random.default_rng(n_entries * 31 + n_segments * 7 + cols)
        ids = rng.integers(0, n_segments, size=n_entries)
        values = rng.normal(size=(n_entries, cols)).astype(dtype)
        plan = SegmentPlan(ids, n_segments)
        out = plan.scatter_sum(values)
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, _reference_scatter_sum(plan.ids, values, n_segments),
            rtol=1e-5 if dtype == np.float32 else 1e-12)

    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=30, deadline=None)
    def test_segment_max_matches_maximum_at(self, n_entries, n_segments):
        rng = np.random.default_rng(n_entries * 13 + n_segments)
        ids = rng.integers(0, n_segments, size=n_entries)
        values = rng.normal(size=(n_entries, 2))
        plan = SegmentPlan(ids, n_segments)
        reference = np.full((n_segments, 2), -np.inf)
        np.maximum.at(reference, ids, values)
        np.testing.assert_array_equal(plan.segment_max(values), reference)

    def test_counts_and_gather(self):
        plan = SegmentPlan(np.array([2, 0, 2, 2]), 4)
        np.testing.assert_array_equal(plan.counts, [1, 0, 3, 0])
        values = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(plan.gather(values),
                                      values[[2, 0, 2, 2]])

    def test_empty_ids(self):
        plan = SegmentPlan(np.zeros(0, dtype=np.int64), 3)
        out = plan.scatter_sum(np.zeros((0, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))
        np.testing.assert_array_equal(plan.segment_max(np.zeros((0, 2))),
                                      np.full((3, 2), -np.inf))


class TestEdgePlan:
    def test_appends_self_loops(self):
        edges = np.array([[0, 1], [1, 2]])
        plan = EdgePlan(edges, 3)
        assert plan.num_edges == 2 + 3
        np.testing.assert_array_equal(plan.src[-3:], [0, 1, 2])
        np.testing.assert_array_equal(plan.dst[-3:], [0, 1, 2])
        bare = EdgePlan(edges, 3, self_loops=False)
        assert bare.num_edges == 2

    def test_degrees_include_self_loops(self):
        plan = EdgePlan(np.array([[0, 1], [1, 2]]), 3)
        np.testing.assert_array_equal(plan.degrees, [1, 2, 2])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            EdgePlan(np.array([[0], [5]]), 3)
        with pytest.raises(ValueError):
            EdgePlan(np.zeros((3, 4), dtype=np.int64), 5)

    def test_empty_edge_graph(self):
        plan = EdgePlan(np.zeros((2, 0), dtype=np.int64), 4)
        assert plan.num_edges == 4  # just the self-loops
        np.testing.assert_array_equal(plan.degrees, np.ones(4))

    def test_single_node_graph(self):
        plan = EdgePlan(np.zeros((2, 0), dtype=np.int64), 1)
        values = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        out = segment_sum(gather_rows(values, plan.src_plan), plan.dst_plan, 1)
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])
        out.sum().backward()
        np.testing.assert_array_equal(values.grad, [[1.0, 1.0]])

    def test_for_edges_caches_by_content(self):
        clear_plan_cache()
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        first = EdgePlan.for_edges(edges, 3)
        second = EdgePlan.for_edges(edges.copy(), 3)  # same content, new array
        assert first is second
        assert plan_cache_info()["entries"] == 1
        different = EdgePlan.for_edges(edges, 4)
        assert different is not first

    def test_for_graph(self, tiny_graph):
        plan = EdgePlan.for_graph(tiny_graph)
        assert plan.num_nodes == tiny_graph.num_nodes
        assert plan.num_edges == tiny_graph.num_edges + tiny_graph.num_nodes
        assert EdgePlan.for_graph(tiny_graph) is plan

    def test_gcn_norm_matches_legacy_formula(self):
        plan = EdgePlan(np.array([[0, 1, 1], [1, 0, 2]]), 3)
        degree = np.maximum(plan.degrees.astype(np.float64), 1.0)
        expected = 1.0 / np.sqrt(degree[plan.src] * degree[plan.dst])
        np.testing.assert_array_equal(plan.gcn_norm(np.float64), expected)
        assert plan.gcn_norm(np.float32).dtype == np.float32


def _random_graph(rng, n_nodes, n_edges):
    edges = rng.integers(0, n_nodes, size=(2, n_edges)).astype(np.int64)
    return EdgePlan(edges, n_nodes)


class TestPlanPrimitivesBitIdentical:
    """Plan-based ops versus the raw-id legacy path, values and gradients."""

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=60),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_and_gradient(self, n_nodes, n_edges, cols, dtype):
        rng = np.random.default_rng(n_nodes * 101 + n_edges * 3 + cols)
        plan = _random_graph(rng, n_nodes, n_edges)
        raw = rng.normal(size=(plan.num_edges, cols)).astype(dtype)

        with dtype_scope(dtype):
            legacy_in = Tensor(raw.copy(), requires_grad=True)
            legacy = segment_sum(legacy_in, plan.dst, n_nodes)
            (legacy * legacy).sum().backward()

            planned_in = Tensor(raw.copy(), requires_grad=True)
            planned = segment_sum(planned_in, plan.dst_plan, n_nodes)
            (planned * planned).sum().backward()

        np.testing.assert_array_equal(planned.data, legacy.data)
        np.testing.assert_array_equal(planned_in.grad, legacy_in.grad)

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=60),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_gather_rows_and_gradient(self, n_nodes, n_edges, dtype):
        rng = np.random.default_rng(n_nodes * 17 + n_edges)
        plan = _random_graph(rng, n_nodes, n_edges)
        raw = rng.normal(size=(n_nodes, 3)).astype(dtype)

        with dtype_scope(dtype):
            legacy_in = Tensor(raw.copy(), requires_grad=True)
            legacy = gather_rows(legacy_in, plan.src)
            (legacy * legacy).sum().backward()

            planned_in = Tensor(raw.copy(), requires_grad=True)
            planned = gather_rows(planned_in, plan.src_plan)
            (planned * planned).sum().backward()

        np.testing.assert_array_equal(planned.data, legacy.data)
        # The backward scatter goes through the prebuilt CSR operator, which
        # sums in the same order as the per-call matrix: exact match.
        np.testing.assert_array_equal(planned_in.grad, legacy_in.grad)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_segment_softmax_and_gradient(self, n_nodes, n_edges):
        rng = np.random.default_rng(n_nodes * 29 + n_edges)
        plan = _random_graph(rng, n_nodes, n_edges)
        raw = rng.normal(size=(plan.num_edges, 2)) * 4

        legacy_in = Tensor(raw.copy(), requires_grad=True)
        legacy = segment_softmax(legacy_in, plan.dst, n_nodes)
        (legacy * legacy).sum().backward()

        planned_in = Tensor(raw.copy(), requires_grad=True)
        planned = segment_softmax(planned_in, plan.dst_plan, n_nodes)
        (planned * planned).sum().backward()

        np.testing.assert_array_equal(planned.data, legacy.data)
        np.testing.assert_array_equal(planned_in.grad, legacy_in.grad)
        # Softmax still normalises within every populated segment.
        for segment in np.unique(plan.dst):
            np.testing.assert_allclose(
                planned.data[plan.dst == segment].sum(axis=0), 1.0, atol=1e-8)

    def test_segment_mean_matches_legacy(self):
        plan = EdgePlan(np.array([[0, 1, 2, 2], [1, 1, 0, 2]]), 3)
        values = np.arange(plan.num_edges * 2, dtype=np.float64).reshape(-1, 2)
        legacy = segment_mean(Tensor(values), plan.dst, 3)
        planned = segment_mean(Tensor(values), plan.dst_plan, 3)
        np.testing.assert_array_equal(planned.data, legacy.data)

    def test_segment_max_raw_matches_legacy(self):
        plan = EdgePlan(np.array([[0, 1, 2, 2], [1, 1, 0, 2]]), 3)
        values = np.array([5.0, -1.0, 3.0, 9.0, 0.0, 1.0, 2.0])
        legacy = segment_max_raw(values, plan.dst, 3)
        planned = segment_max_raw(values, plan.dst_plan, 3)
        np.testing.assert_array_equal(planned, legacy)

    def test_plan_num_segments_mismatch_raises(self):
        plan = EdgePlan(np.array([[0], [1]]), 3)
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((plan.num_edges, 1))), plan.dst_plan, 5)


class TestAffectedRegions:
    """Receptive-field expansion over edge arrays and plans."""

    def _chain_plan(self, n=8):
        # 0 -> 1 -> 2 -> ... -> n-1 (directed chain)
        edges = np.stack([np.arange(n - 1), np.arange(1, n)])
        return EdgePlan(edges, n)

    def test_out_expansion_follows_message_flow(self):
        plan = self._chain_plan()
        assert affected_regions(plan, [2], 0).tolist() == [2]
        assert affected_regions(plan, [2], 1).tolist() == [2, 3]
        assert affected_regions(plan, [2], 3).tolist() == [2, 3, 4, 5]

    def test_in_expansion_is_the_transpose(self):
        plan = self._chain_plan()
        assert affected_regions(plan, [4], 2, direction="in").tolist() == [2, 3, 4]

    def test_both_directions(self):
        plan = self._chain_plan()
        assert affected_regions(plan, [4], 1,
                                direction="both").tolist() == [3, 4, 5]

    def test_raw_edge_arrays_do_not_imply_self_loops(self):
        edges = np.stack([np.arange(7), np.arange(1, 8)])
        got = affected_regions(edges, [2], 2, num_nodes=8)
        assert got.tolist() == [2, 3, 4]

    def test_converges_early_on_saturation(self):
        plan = self._chain_plan(4)
        assert affected_regions(plan, [0], 100).tolist() == [0, 1, 2, 3]

    def test_validates_inputs(self):
        plan = self._chain_plan()
        with pytest.raises(ValueError, match="direction"):
            affected_regions(plan, [0], 1, direction="sideways")
        with pytest.raises(ValueError, match="hops"):
            affected_regions(plan, [0], -1)
        with pytest.raises(ValueError, match="touched"):
            affected_regions(plan, [99], 1)
        with pytest.raises(ValueError, match="num_nodes"):
            affected_regions(np.zeros((2, 0), dtype=np.int64), [0], 1)


class TestFrontier:
    def test_gathers_every_in_edge_in_parent_order(self):
        edges = np.array([[0, 1, 2, 0], [1, 1, 1, 2]])
        plan = EdgePlan(edges, 3)
        frontier = plan.frontier(np.array([1]))
        # parent order for dst 1: raw edges (0,1), (1,1), (2,1), then loop
        assert frontier.edge_src.tolist() == [0, 1, 2, 1]
        assert frontier.edge_dst.tolist() == [1, 1, 1, 1]
        assert frontier.seg.ids.tolist() == [0, 0, 0, 0]
        assert frontier.num_dst == 1

    def test_multiple_dsts_group_contiguously(self):
        edges = np.array([[0, 1, 2, 0], [1, 1, 1, 2]])
        plan = EdgePlan(edges, 3)
        frontier = plan.frontier(np.array([0, 2]))
        # dst 0 has only its self-loop; dst 2 has (0,2) then its loop
        assert frontier.edge_src.tolist() == [0, 0, 2]
        assert frontier.seg.ids.tolist() == [0, 1, 1]

    def test_segment_reductions_match_full_plan(self):
        rng = np.random.default_rng(0)
        n, m = 30, 200
        edges = rng.integers(0, n, size=(2, m))
        plan = EdgePlan(edges, n)
        values = rng.normal(size=(plan.num_edges, 3))
        full = plan.dst_plan.scatter_sum(values)
        dsts = np.unique(rng.integers(0, n, size=10))
        frontier = plan.frontier(dsts)
        # gather the same per-edge values through the frontier's positions
        order = np.argsort(plan.dst, kind="stable")
        lookup = {}
        for pos in order:
            lookup.setdefault(int(plan.dst[pos]), []).append(pos)
        positions = np.concatenate([lookup[int(d)] for d in dsts])
        sub = frontier.seg.scatter_sum(values[positions])
        assert np.array_equal(sub, full[dsts])

    def test_validates_dst_nodes(self):
        plan = EdgePlan(np.array([[0], [1]]), 2)
        with pytest.raises(ValueError, match="sorted"):
            plan.frontier(np.array([1, 0]))
        with pytest.raises(ValueError, match="range"):
            plan.frontier(np.array([5]))
        with pytest.raises(ValueError, match="destination"):
            plan.frontier(np.array([], dtype=np.int64))
