"""Precomputed graph compute plans for edge-list message passing.

Profiling the training loop shows that a large share of every forward *and*
backward pass through MAGA / GSCM / the GNN baselines is spent on work that
depends only on the graph structure, not on the learned parameters:

* building a fresh ``scipy.sparse.csr_matrix`` inside every scatter-add
  (forward ``segment_sum`` and the backward of ``gather_rows``),
* re-running ``add_self_loops`` over the full edge list once per forward,
* re-validating segment ids with ``min``/``max`` scans and ``astype`` copies
  on every primitive call,
* ``np.maximum.at`` (a notoriously slow ufunc-at loop) for the per-segment
  max inside ``segment_softmax``.

The graph is fixed for the lifetime of a training run or a serving request,
so all of it can be computed once.  :class:`EdgePlan` packages that
precomputation: the self-loop-augmented ``int64`` ``src``/``dst`` arrays and
one :class:`SegmentPlan` per endpoint role holding the prebuilt CSR scatter
operator (dtype-matched so float32 inputs stay float32), the stable sort
permutation + ``reduceat`` offsets used for per-segment maxima, and the
segment counts (degrees).

Numerical contract: the CSR scatter operator is built exactly like the
per-call matrix it replaces, so plan-based reductions are **bit-identical**
to the legacy kernels — training with plans reproduces the no-plan path to
the last bit for a fixed seed.  (``np.add.reduceat`` is deliberately *not*
used for sums: its pairwise summation changes the rounding order.)

Plans are cheap relative to one epoch but not free, so module-level LRU
caches keyed by the *content* of the edge index make reuse automatic:
:meth:`EdgePlan.for_edges` hashes the raw edge bytes (a few hundred KB at
most — microseconds, versus milliseconds per avoided rebuild) and returns a
shared instance.  The serving engine keeps an additional fingerprint-keyed
cache in front of this one so repeated cold scores of the same city skip
even the edge hash.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse as sp

__all__ = ["SegmentPlan", "EdgePlan", "Frontier",
           "affected_regions", "clear_plan_cache", "plan_cache_info"]


class SegmentPlan:
    """Reusable reduction machinery for one fixed segment-id array.

    A ``SegmentPlan`` validates its ids once at construction and then offers
    the raw (non-differentiable) kernels the ``repro.nn.sparse`` primitives
    are built from: scatter-sum via a prebuilt CSR operator, per-segment max
    via ``np.maximum.reduceat`` over a stable sort permutation, and gathers.
    """

    __slots__ = ("ids", "num_segments", "num_entries", "counts",
                 "_scatter_ops", "_perm", "_starts", "_present")

    def __init__(self, ids: np.ndarray, num_segments: int) -> None:
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("segment ids must be 1-D, got shape %s" % (ids.shape,))
        if num_segments < 0:
            raise ValueError("num_segments must be non-negative")
        if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
            raise ValueError(
                "segment ids must lie in [0, %d), got range [%d, %d]"
                % (num_segments, ids.min(), ids.max()))
        self.ids = ids
        self.num_segments = int(num_segments)
        self.num_entries = int(ids.shape[0])
        self.counts = np.bincount(ids, minlength=num_segments)
        #: one CSR scatter operator per value dtype (built lazily): matching
        #: the matrix data dtype to the operand keeps float32 inputs float32
        #: instead of silently upcasting through the product
        self._scatter_ops: Dict[np.dtype, sp.csr_matrix] = {}
        self._perm: Optional[np.ndarray] = None
        self._starts: Optional[np.ndarray] = None
        self._present: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # lazily built operators
    # ------------------------------------------------------------------
    def scatter_op(self, dtype) -> sp.csr_matrix:
        """The ``(num_segments, num_entries)`` 0/1 CSR scatter matrix.

        Identical (entry for entry, in the same index order) to the matrix
        the legacy per-call kernel builds, so products through it are
        bit-identical to the pre-plan path.
        """
        dtype = np.dtype(dtype)
        op = self._scatter_ops.get(dtype)
        if op is None:
            op = sp.csr_matrix(
                (np.ones(self.num_entries, dtype=dtype),
                 (self.ids, np.arange(self.num_entries))),
                shape=(self.num_segments, self.num_entries))
            self._scatter_ops[dtype] = op
        return op

    def _sorted_offsets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._perm is None:
            perm = np.argsort(self.ids, kind="stable")
            sorted_ids = self.ids[perm]
            present, starts = np.unique(sorted_ids, return_index=True)
            self._perm, self._starts, self._present = perm, starts, present
        return self._perm, self._starts, self._present

    # ------------------------------------------------------------------
    # raw kernels (plain numpy in / plain numpy out)
    # ------------------------------------------------------------------
    def scatter_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum rows of ``values`` into ``num_segments`` buckets."""
        if not self.num_entries:
            return np.zeros((self.num_segments,) + values.shape[1:],
                            dtype=values.dtype)
        flat = values.reshape(values.shape[0], -1)
        out = self.scatter_op(flat.dtype) @ flat
        return np.asarray(out).reshape((self.num_segments,) + values.shape[1:])

    def segment_max(self, values: np.ndarray, fill: float = -np.inf) -> np.ndarray:
        """Per-segment maximum with ``fill`` for empty segments.

        ``max`` is order-insensitive, so the ``reduceat`` formulation is
        exact — and several times faster than ``np.maximum.at``.
        """
        out = np.full((self.num_segments,) + values.shape[1:], fill,
                      dtype=values.dtype)
        if not self.num_entries:
            return out
        perm, starts, present = self._sorted_offsets()
        out[present] = np.maximum.reduceat(values[perm], starts, axis=0)
        return out

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Pick ``values`` rows by segment id (one output row per entry)."""
        return values[self.ids]


def _as_edge_arrays(edges: Union["EdgePlan", np.ndarray],
                    num_nodes: Optional[int]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Normalise an ``EdgePlan``-or-``(2, M)``-array argument."""
    if isinstance(edges, EdgePlan):
        return edges.src, edges.dst, edges.num_nodes
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[0] != 2:
        raise ValueError("edge_index must have shape (2, M), got %s"
                         % (edges.shape,))
    if num_nodes is None:
        raise ValueError("num_nodes is required with a raw edge array")
    return edges[0], edges[1], int(num_nodes)


def affected_regions(edges: Union["EdgePlan", np.ndarray],
                     touched: Sequence[int], hops: int,
                     num_nodes: Optional[int] = None,
                     direction: str = "out") -> np.ndarray:
    """Receptive-field expansion: every node within ``hops`` edges of ``touched``.

    This is the locality bound of message passing — after ``hops`` stacked
    layers, a change confined to ``touched`` can only influence the returned
    node set (``direction="out"``, following ``src -> dst`` message flow),
    and recomputing a node set exactly needs inputs from the returned set
    (``direction="in"``).  The touched nodes themselves are always included.

    Implemented as repeated CSR-style neighbour gathers over the edge
    arrays: O(hops * M) boolean work, no Python-level adjacency walk.
    """
    src, dst, n = _as_edge_arrays(edges, num_nodes)
    if direction not in ("out", "in", "both"):
        raise ValueError("direction must be 'out', 'in' or 'both', got %r"
                         % (direction,))
    if hops < 0:
        raise ValueError("hops must be non-negative")
    touched = np.asarray(touched, dtype=np.int64).reshape(-1)
    if touched.size and (touched.min() < 0 or touched.max() >= n):
        raise ValueError("touched ids must lie in [0, %d)" % n)
    mask = np.zeros(n, dtype=bool)
    mask[touched] = True
    for _ in range(hops):
        grown = mask.copy()
        if direction in ("out", "both"):
            grown[dst[mask[src]]] = True
        if direction in ("in", "both"):
            grown[src[mask[dst]]] = True
        if grown.sum() == mask.sum():
            break
        mask = grown
    return np.flatnonzero(mask)


class Frontier:
    """One wavefront step: every in-edge of a destination node set.

    Holds the machinery to aggregate messages into ``dst_nodes`` exactly as
    the parent :class:`EdgePlan` would: the gathered edge positions keep the
    parent's per-destination edge order (original edges first, self-loop
    last), so plan-based segment reductions over the frontier are
    bit-identical, per destination row, to the full-graph reductions.

    Edge endpoints stay in *global* node ids (``edge_src`` / ``edge_dst``
    index full-graph row matrices); only the destination segments are
    compacted to ``0..num_dst-1`` for the per-destination reductions.

    Attributes
    ----------
    dst_nodes:
        Sorted global node ids of the destination set.
    edge_src / edge_dst:
        Global endpoint ids of every gathered in-edge.
    seg:
        A :class:`SegmentPlan` over the compacted destination ids, ready
        for ``segment_softmax`` / ``segment_sum`` into ``num_dst`` rows.
    """

    __slots__ = ("dst_nodes", "edge_src", "edge_dst", "seg", "num_dst",
                 "num_edges")

    def __init__(self, plan: "EdgePlan", dst_nodes: np.ndarray) -> None:
        dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
        if dst_nodes.size == 0:
            raise ValueError("frontier needs at least one destination node")
        if np.any(np.diff(dst_nodes) <= 0):
            raise ValueError("dst_nodes must be sorted and unique")
        if dst_nodes[0] < 0 or dst_nodes[-1] >= plan.num_nodes:
            raise ValueError("dst_nodes out of range for a plan over %d nodes"
                             % plan.num_nodes)
        perm, starts, present = plan.dst_plan._sorted_offsets()
        counts = plan.dst_plan.counts[dst_nodes]
        # positions of `present` matching each requested dst (every dst has
        # at least its self-loop when the plan carries them; dsts without
        # any in-edge simply contribute an empty slice)
        if present is not None and present.size:
            where = np.searchsorted(present, dst_nodes)
            have = (where < present.size)
            have[have] = present[where[have]] == dst_nodes[have]
            counts = np.where(have, counts, 0)
            start_sel = np.where(have, starts[np.minimum(where, present.size - 1)], 0)
        else:
            counts = np.zeros(dst_nodes.size, dtype=np.int64)
            start_sel = np.zeros(dst_nodes.size, dtype=np.int64)
        total = int(counts.sum())
        # flat CSR row gather: positions of every in-edge, grouped by dst in
        # requested order, parent edge order preserved within each group
        offsets = np.zeros(dst_nodes.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        flat = np.arange(total, dtype=np.int64)
        flat += np.repeat(start_sel - offsets, counts)
        positions = perm[flat]
        self.dst_nodes = dst_nodes
        self.num_dst = int(dst_nodes.size)
        self.num_edges = total
        self.edge_src = plan.src[positions]
        self.edge_dst = plan.dst[positions]
        self.seg = SegmentPlan(
            np.repeat(np.arange(dst_nodes.size, dtype=np.int64), counts),
            self.num_dst)


class EdgePlan:
    """Graph-lifetime precomputation for one ``(edge_index, num_nodes)``.

    Holds the (optionally self-loop-augmented) endpoint arrays plus one
    :class:`SegmentPlan` per endpoint role:

    * :attr:`dst_plan` — dst→node reductions (message aggregation, attention
      softmax) and the scatter backward of dst-side gathers;
    * :attr:`src_plan` — the scatter backward of src-side gathers.
    """

    __slots__ = ("edge_index", "src", "dst", "num_nodes", "has_self_loops",
                 "dst_plan", "src_plan", "_gcn_norm")

    def __init__(self, edge_index: np.ndarray, num_nodes: int,
                 self_loops: bool = True) -> None:
        global _PLAN_BUILDS
        with _CACHE_LOCK:
            _PLAN_BUILDS += 1
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, M), got %s"
                             % (edge_index.shape,))
        if self_loops:
            loops = np.arange(num_nodes, dtype=np.int64)
            edge_index = np.concatenate(
                [edge_index, np.stack([loops, loops])], axis=1)
        else:
            # Own the array: without the augmentation copy above, a
            # C-contiguous caller array would be aliased and an in-place
            # mutation could silently desynchronise a cached plan from its
            # content-hash key.
            edge_index = edge_index.copy()
        self.edge_index = np.ascontiguousarray(edge_index)
        self.src = np.ascontiguousarray(self.edge_index[0])
        self.dst = np.ascontiguousarray(self.edge_index[1])
        self.num_nodes = int(num_nodes)
        self.has_self_loops = bool(self_loops)
        # SegmentPlan validates the endpoint ranges (once, for the lifetime
        # of the plan — the primitives skip their per-call checks).
        self.dst_plan = SegmentPlan(self.dst, num_nodes)
        self.src_plan = SegmentPlan(self.src, num_nodes)
        self._gcn_norm: Dict[np.dtype, np.ndarray] = {}

    @property
    def num_edges(self) -> int:
        """Number of message-passing edges (including any self-loops)."""
        return self.edge_index.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """In-degree of every node (including any self-loops)."""
        return self.dst_plan.counts

    def gcn_norm(self, dtype=np.float64) -> np.ndarray:
        """Per-edge symmetric normalisation ``1/sqrt(deg[src]*deg[dst])``.

        Computed in float64 exactly as the legacy GCN layer does, then cast
        to ``dtype`` (matching what lifting through ``Tensor`` would do).
        """
        dtype = np.dtype(dtype)
        norm = self._gcn_norm.get(dtype)
        if norm is None:
            degree = np.maximum(self.degrees.astype(np.float64), 1.0)
            norm = (1.0 / np.sqrt(degree[self.src] * degree[self.dst]))
            norm = np.ascontiguousarray(norm.astype(dtype, copy=False))
            self._gcn_norm[dtype] = norm
        return norm

    # ------------------------------------------------------------------
    # incremental machinery
    # ------------------------------------------------------------------
    def frontier(self, dst_nodes: np.ndarray) -> Frontier:
        """A :class:`Frontier` aggregating this plan's in-edges of ``dst_nodes``."""
        return Frontier(self, dst_nodes)

    # ------------------------------------------------------------------
    # cached construction
    # ------------------------------------------------------------------
    @classmethod
    def for_edges(cls, edge_index: np.ndarray, num_nodes: int,
                  self_loops: bool = True) -> "EdgePlan":
        """Return a (cached) plan for this edge content.

        The cache key is a content hash of the raw edge bytes plus the node
        count, so relabelled / refeatured copies of the same graph share one
        plan and mutating callers cannot poison the cache.
        """
        edge_index = np.asarray(edge_index, dtype=np.int64)
        digest = hashlib.sha256(np.ascontiguousarray(edge_index).tobytes())
        key = (digest.hexdigest(), int(num_nodes), bool(self_loops))
        with _CACHE_LOCK:
            plan = _PLAN_CACHE.get(key)
            if plan is not None:
                _PLAN_CACHE.move_to_end(key)
                return plan
        plan = cls(edge_index, num_nodes, self_loops=self_loops)
        with _CACHE_LOCK:
            _PLAN_CACHE[key] = plan
            _PLAN_CACHE.move_to_end(key)
            while len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
                _PLAN_CACHE.popitem(last=False)
        return plan

    @classmethod
    def for_graph(cls, graph, self_loops: bool = True) -> "EdgePlan":
        """Cached plan for an :class:`~repro.urg.graph.UrbanRegionGraph`."""
        return cls.for_edges(graph.edge_index, graph.num_nodes,
                             self_loops=self_loops)


#: module-level content-keyed LRU shared by every training loop and engine
_PLAN_CACHE: "OrderedDict[Tuple[str, int, bool], EdgePlan]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 64
_CACHE_LOCK = threading.Lock()
#: lifetime count of EdgePlan constructions — the streaming layer's tests
#: use it to prove that feature-only deltas never rebuild a plan
_PLAN_BUILDS = 0


def clear_plan_cache() -> None:
    """Drop every cached :class:`EdgePlan` (mainly for tests)."""
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()


def plan_cache_info() -> Dict[str, int]:
    """Size, capacity and lifetime build count of the plan machinery."""
    with _CACHE_LOCK:
        return {"entries": len(_PLAN_CACHE), "capacity": _PLAN_CACHE_CAPACITY,
                "builds": _PLAN_BUILDS}
