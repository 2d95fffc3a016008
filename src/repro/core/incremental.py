"""Delta-localised incremental scoring (the streaming hot path).

Message passing is local: with ``k`` stacked MAGA layers, a change confined
to a set of regions can only influence their ``k``-hop out-neighbourhood
(:func:`repro.nn.graphops.affected_regions`).  This module exploits that to
rescore an updated city without re-running the encoder over every region:

* :class:`ScoreCache` holds one graph version's per-level encoder
  activations, its fused ``local_repr`` and its final scores;
* :func:`delta_seeds` derives, from a :class:`~repro.stream.delta.GraphDelta`,
  the set of regions whose layer-0 state or in-edge set changes (mapped into
  the post-delta id space);
* :func:`subset_rescore` recomputes the encoder layer by layer over
  shrinking frontiers of the seeds' receptive field (the "wavefront", from
  the cached activations), splices the recomputed rows into the cached
  activations, and re-runs everything downstream of the encoder.

Exactness contract (float64): the spliced ``local_repr`` is bit-identical
to a full encoder forward of the new graph, and the tail (GSCM, gate,
classifier — :func:`tail_scores`, the same code every inference path
runs) always covers the **full** region set from that spliced
representation, so the returned scores are bit-identical to a
full-rebuild ``predict_proba``.  Two structural facts shape the design:

* the tail cannot be localised: GSCM's cluster representations sum over
  every region (Eq. 10), so in exact arithmetic any delta perturbs every
  score through the shared global context.  The win is confined to the
  encoder, and the tail is kept fast instead (the fused, row-blocked
  :func:`~repro.core.gate.gated_scores`);
* BLAS selects kernels (and accumulation order) by operand shape, so a
  row-subset product can round differently than the same rows inside the
  full product.  The wavefront therefore keeps every per-node projection
  at the full graph shape (a few ms, row results provably independent of
  other rows for a fixed shape) and localises only the per-edge gathers,
  attention softmax and message scatters — which profiling shows dominate
  the encoder cost by far.

``float32`` detectors match to round-off (mirroring the float32 contract
elsewhere).  The streaming layer's ``auto`` mode additionally verifies its
first incremental result against the full oracle and falls back to full
rescoring on any mismatch.

Scope: incremental rescoring covers every node-count-preserving delta
(feature patches, edge addition/removal).  Region growth and removal
change the node count and with it the shape of every per-node product —
the very thing the bit-stability argument above pins down — so
:func:`subset_rescore` refuses them and the streaming layer routes them
through the full path instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn.graphops import EdgePlan, affected_regions
from ..nn.tensor import Tensor, dtype_scope, no_grad
from ..urg.graph import UrbanRegionGraph
from .gate import gated_scores

__all__ = ["ScoreCache", "DeltaSeeds", "SubsetScoreResult", "delta_seeds",
           "build_score_cache", "subset_rescore", "tail_scores"]

#: activation matrices per encoder level, as ``(poi, img)`` numpy pairs
Level = Tuple[np.ndarray, np.ndarray]

#: floor on the wavefront's destination-set size: the only subset-shaped
#: products left in the wavefront are the tiny per-destination aggregation
#: heads, whose BLAS kernels are row-count-stable beyond a handful of rows
#: (empirically m <= 5 can round differently); recomputing a few extra
#: regions is exact by construction, so padding costs only their edge work
_MIN_FRONTIER = 16


def _pad_frontier(ids: np.ndarray, num_nodes: int) -> np.ndarray:
    """Grow a destination set to ``_MIN_FRONTIER`` with the lowest free ids."""
    if ids.size >= min(_MIN_FRONTIER, num_nodes):
        return ids
    mask = np.ones(num_nodes, dtype=bool)
    mask[ids] = False
    filler = np.flatnonzero(mask)[:min(_MIN_FRONTIER, num_nodes) - ids.size]
    return np.union1d(ids, filler)


@dataclass
class ScoreCache:
    """Everything one graph version's full forward produced.

    ``levels[0]`` is the layer-0 input pair (raw POI features and the
    reduced image features); ``levels[j]`` for ``j >= 1`` is layer ``j``'s
    output pair as fed to layer ``j + 1``.  ``local_repr`` is the fused
    encoder output and ``scores`` the final per-region probabilities.
    All arrays are row-aligned with the graph's region ids.
    """

    levels: List[Level]
    local_repr: np.ndarray
    scores: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.scores.shape[0])

    def nbytes(self) -> int:
        """Approximate memory footprint of the cached activations."""
        total = self.local_repr.nbytes + self.scores.nbytes
        for poi, img in self.levels:
            total += poi.nbytes + img.nbytes
        return total

@dataclass(frozen=True)
class DeltaSeeds:
    """Where a delta touches the graph, in the post-delta id space."""

    #: regions whose layer-0 inputs or in-edge set change (sorted, unique)
    touched: np.ndarray
    #: regions whose raw image features change (need the image reduction)
    img_changed: np.ndarray
    #: old-id -> new-id row map (``None`` when region ids are unchanged)
    keep_mask: Optional[np.ndarray]
    num_added: int
    num_removed: int

    @property
    def is_empty(self) -> bool:
        return self.touched.size == 0


@dataclass
class SubsetScoreResult:
    """Outcome of one incremental rescore."""

    #: full per-region probability vector of the new graph version
    scores: np.ndarray
    #: regions whose encoder output was recomputed (the delta's k-hop
    #: receptive field, before kernel-stability padding)
    interior: np.ndarray
    #: the refreshed cache for the new graph version
    cache: ScoreCache


def delta_seeds(delta, graph: UrbanRegionGraph) -> DeltaSeeds:
    """Seed regions of ``delta`` against pre-delta ``graph``.

    A region is a seed when its layer-0 encoder input changes (feature
    patch, new region) or its in-edge set changes (edge endpoint, neighbour
    of a removed region).  Seeds are conservative: both endpoints of every
    changed edge are included, so directed and symmetric edge lists are
    handled alike.
    """
    n = graph.num_nodes
    num_added = delta.num_added_regions
    n_after_add = n + num_added

    seeds: List[np.ndarray] = []
    img_changed: List[np.ndarray] = []
    if delta.poi_rows is not None:
        seeds.append(delta.poi_rows)
    if delta.img_rows is not None:
        seeds.append(delta.img_rows)
        img_changed.append(delta.img_rows)
    for edges in (delta.remove_edges, delta.add_edges):
        if edges is not None:
            seeds.append(edges.reshape(-1))
    if num_added:
        added = np.arange(n, n_after_add, dtype=np.int64)
        seeds.append(added)
        img_changed.append(added)

    keep_mask: Optional[np.ndarray] = None
    new_id: Optional[np.ndarray] = None
    num_removed = delta.num_removed_regions
    if num_removed:
        keep_mask = np.ones(n_after_add, dtype=bool)
        keep_mask[delta.remove_regions] = False
        new_id = np.full(n_after_add, -1, dtype=np.int64)
        new_id[keep_mask] = np.arange(int(keep_mask.sum()))
        # the surviving neighbours of removed regions lose in-edges
        removed = np.zeros(n_after_add, dtype=bool)
        removed[delta.remove_regions] = True
        src, dst = graph.edge_index
        seeds.append(dst[removed[src]])
        seeds.append(src[removed[dst]])

    def mapped(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=np.int64)
        ids = np.unique(np.concatenate([np.asarray(p, dtype=np.int64).reshape(-1)
                                        for p in parts]))
        if new_id is not None:
            ids = new_id[ids]
            ids = ids[ids >= 0]
        return ids

    return DeltaSeeds(touched=mapped(seeds), img_changed=mapped(img_changed),
                      keep_mask=keep_mask, num_added=num_added,
                      num_removed=num_removed)


# ----------------------------------------------------------------------
# full forward with capture
# ----------------------------------------------------------------------
def build_score_cache(detector, graph: UrbanRegionGraph,
                      plan: Optional[EdgePlan] = None) -> ScoreCache:
    """One full forward pass, capturing every encoder level.

    This is ``CMSFDetector.predict_proba`` (which returns its ``scores``)
    and so also the serving engine's cold path: the encoder forward
    (capture only keeps references) followed by :func:`tail_scores`, in
    a per-thread evaluation scope that leaves every module's mode as it is.
    """
    detector.check_fitted()
    master = _master_model(detector)
    if plan is None:
        plan = master.graph_plan(graph)
    collect: List[Level] = []
    with detector._persisted_module().evaluating(), no_grad(), \
            dtype_scope(master.config.dtype):
        local = master.encoder(graph.x_poi, graph.x_img, graph.edge_index,
                               plan=plan, collect=collect)
        scores = tail_scores(detector, local)
    return ScoreCache(levels=collect, local_repr=local.data, scores=scores)


def tail_scores(detector, local_repr) -> np.ndarray:
    """Everything downstream of the encoder, over the full region set.

    The one post-encoder tail of every inference path: GSCM, then the
    fused slave-model kernel :func:`~repro.core.gate.gated_scores` for gated
    detectors or the shared classifier otherwise (GSCM skipped when the
    detector has none).  Feeding the encoder's own output therefore
    reproduces ``predict_proba`` bit for bit.  Nothing in the tail reads
    the train/eval mode.
    """
    master = _master_model(detector)
    local = local_repr if isinstance(local_repr, Tensor) else Tensor(local_repr)
    with no_grad(), dtype_scope(master.config.dtype):
        if master.gscm is None:
            return master.classifier(local).data
        gscm_out = master.gscm(local)
        if detector.slave_result is not None:
            return gated_scores(detector.slave_result.stage, gscm_out)
        return master.classifier(gscm_out.enhanced).data


def _master_model(detector):
    if detector.slave_result is not None:
        return detector.slave_result.stage.master
    return detector.master_result.model


# ----------------------------------------------------------------------
# subset encoders
# ----------------------------------------------------------------------
def _level0(encoder, graph: UrbanRegionGraph, seeds: DeltaSeeds,
            cache: ScoreCache) -> Level:
    """Refresh the layer-0 inputs: raw POI rows and reduced image rows.

    The image reduction is recomputed as a full-shape product (row results
    of a fixed-shape product depend only on their own input row, so the
    unchanged rows reproduce the cached values exactly) — it is a small,
    BLAS-friendly cost next to the per-edge work being skipped.
    """
    n = graph.num_nodes
    if encoder.has_poi:
        poi0 = graph.x_poi
    else:
        poi0 = cache.levels[0][0]
        if poi0.shape[0] != n:
            poi0 = np.zeros((n, 1), dtype=poi0.dtype)
    img0 = cache.levels[0][1]
    if not encoder.has_img:
        if img0.shape[0] != n:
            img0 = np.zeros((n, 1), dtype=img0.dtype)
        return poi0, img0
    if seeds.img_changed.size:
        img0 = encoder.image_reduce(Tensor(graph.x_img)).data
    return poi0, img0


def _encode_wavefront(encoder, graph: UrbanRegionGraph, plan: EdgePlan,
                      seeds: DeltaSeeds, cache: ScoreCache
                      ) -> Tuple[List[Level], np.ndarray]:
    """Layer-by-layer frontier recomputation from cached activations."""
    n = graph.num_nodes
    new_levels: List[Level] = [_level0(encoder, graph, seeds, cache)]
    frontier_ids = seeds.touched
    for j, layer in enumerate(encoder.layers):
        frontier_ids = affected_regions(plan, frontier_ids, 1, direction="out")
        frontier_ids = _pad_frontier(frontier_ids, n)
        frontier = plan.frontier(frontier_ids)
        poi_in, img_in = new_levels[j]
        out_poi, out_img = layer.forward_frontier(
            Tensor(poi_in), Tensor(img_in), frontier)
        poi_out = cache.levels[j + 1][0].copy()
        img_out = cache.levels[j + 1][1].copy()
        poi_out[frontier_ids] = out_poi.data
        img_out[frontier_ids] = out_img.data
        new_levels.append((poi_out, img_out))
    # report the true receptive field, not the padded recompute set (the
    # padding only recomputes values that provably cannot change)
    interior = affected_regions(plan, seeds.touched, len(encoder.layers),
                                direction="out")
    return new_levels, interior


def subset_rescore(detector, graph: UrbanRegionGraph, plan: EdgePlan,
                   seeds: DeltaSeeds, cache: ScoreCache) -> SubsetScoreResult:
    """Rescore ``graph`` incrementally from a previous version's cache.

    ``cache`` must describe the *previous* graph version; region additions
    and removals are handled by remapping its rows before the subset
    forward.  The returned result carries a refreshed cache for the new
    version; the input cache is never mutated, so a failed update cannot
    corrupt the stream's state.
    """
    detector.check_fitted()
    master = _master_model(detector)
    encoder = master.encoder
    if seeds.num_added or seeds.num_removed:
        # A changed node count changes the shape of *every* per-node
        # product, and BLAS row results are only reproducible for a fixed
        # shape — cached activations from the old shape cannot bit-match a
        # full rebuild at the new one.  Node-set deltas therefore always
        # take the full path (which also refreshes the cache).
        raise ValueError(
            "the delta adds or removes regions; incremental rescoring only "
            "covers node-count-preserving deltas — run a full rescore")
    if cache.num_nodes != graph.num_nodes:
        raise ValueError(
            "score cache rows (%d) do not match the graph (%d regions); the "
            "cache belongs to a different version"
            % (cache.num_nodes, graph.num_nodes))
    if seeds.is_empty:
        return SubsetScoreResult(scores=cache.scores.copy(),
                                 interior=np.zeros(0, dtype=np.int64),
                                 cache=cache)

    with detector._persisted_module().evaluating(), no_grad(), \
            dtype_scope(master.config.dtype):
        levels, interior = _encode_wavefront(encoder, graph, plan, seeds, cache)
        poi_k, img_k = levels[-1]
        local_repr = np.concatenate([poi_k, img_k], axis=-1)
        scores = tail_scores(detector, local_repr)
    new_cache = ScoreCache(levels=levels, local_repr=local_repr, scores=scores)
    return SubsetScoreResult(scores=scores, interior=interior, cache=new_cache)
