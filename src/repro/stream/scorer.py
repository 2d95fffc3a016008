"""Online rescoring over an evolving graph.

:class:`StreamingScorer` owns the *current* version of one city graph and
an :class:`~repro.serve.engine.InferenceEngine` to score it with.  Each
:meth:`update` applies a :class:`~repro.stream.delta.GraphDelta`, decides
what the delta invalidated, and swaps in the new version atomically:

* **feature-only deltas** keep the edge structure, so the existing
  :class:`~repro.nn.graphops.EdgePlan` stays valid — it is re-registered
  with the engine under the new fingerprint;
* **topology deltas** (edge or region changes) rebuild the plan once and
  register the fresh one;
* the superseded graph version's cache entries are evicted from the
  engine so the LRU holds live versions only.

Incremental rescoring
---------------------
A delta's influence on the encoder is bounded by its receptive field (the
``maga_layers``-hop out-neighbourhood of the touched regions), so instead
of a full-city forward pass the scorer can recompute just that
neighbourhood and splice it into the previous version's cached
activations (:mod:`repro.core.incremental`), then re-run the cheap
post-encoder tail.  The ``incremental`` knob picks the policy:

* ``"auto"`` (default) — use the incremental path when a
  :class:`~repro.core.incremental.ScoreCache` is available and the
  affected fraction of the city stays under ``incremental_cutoff``;
  otherwise fall back to a full rescore (which also refreshes the
  cache).  The first incremental update is verified against the full
  oracle — on any mismatch the scorer permanently reverts to full
  rescoring, so a platform whose BLAS breaks the row-stability
  assumptions degrades in speed, never in correctness;
* ``"always"`` — incremental whenever structurally possible, no cutoff,
  no verification (the mode the equivalence tests exercise);
* ``"never"`` — the pre-incremental behaviour: every rescore is a full
  forward pass through the engine.

Incremental float64 scores are bit-identical to a full-rebuild
``predict_proba`` of the same graph; float32 matches to round-off.  The
incremental path covers node-count-preserving deltas (feature patches and
edge rewiring); region growth/removal changes the shape of every
per-node product — the basis of the bit-stability guarantee — so those
updates rescore fully and refresh the cache in the same pass.

Version fingerprints: with the default ``"chained"`` scheme a new
version's cache key is ``sha256(previous_key + delta.digest())`` —
O(delta) instead of re-hashing every feature of the grown city.  Chained
keys identify a *version history* rather than graph content, which is
exactly what a stream needs; pass ``fingerprints="content"`` to keep the
content-addressed behaviour (e.g. when mixing streamed and one-shot
scoring of the same graphs through one engine).

Concurrency contract: the graph versions themselves are immutable
(:meth:`GraphDelta.apply` always builds a new graph), updates are
serialised by a lock, and readers obtain the whole version under the same
lock — so a concurrent :meth:`score` sees either the pre-delta or the
post-delta graph in full, never a half-applied state, and its scores are
always bit-identical to a full-rebuild ``predict_proba`` of whichever
version it observed.  Inference mutates no module state, so incremental
rescores of different streams sharing one engine run concurrently with
each other and with the engine's cold scoring of other graphs.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from ..nn.graphops import EdgePlan, affected_regions
from ..obs import FRACTION_BUCKETS
from ..urg.graph import UrbanRegionGraph
from .delta import GraphDelta

if TYPE_CHECKING:  # imported lazily to avoid cycles with repro.serve/core
    from ..core.incremental import DeltaSeeds, ScoreCache
    from ..durable.wal import RecoveredStream, StreamLog
    from ..serve.engine import InferenceEngine, ScoreResult

__all__ = ["StreamingScorer", "StreamStats", "StreamUpdateResult"]

#: valid values of the ``incremental`` knob
INCREMENTAL_MODES = ("auto", "always", "never")


@dataclass(frozen=True)
class _StreamState:
    """One immutable version of the evolving graph."""

    graph: UrbanRegionGraph
    fingerprint: str
    plan: Optional[EdgePlan]
    version: int
    #: cached activations/scores of this version (None until first rescore)
    cache: Optional[ScoreCache] = None
    #: seeds of deltas applied without rescoring since the cache was built
    pending: Optional[DeltaSeeds] = None


@dataclass
class StreamStats:
    """Counters over the lifetime of one stream."""

    updates: int = 0
    feature_updates: int = 0
    topology_updates: int = 0
    plan_reuses: int = 0
    plan_rebuilds: int = 0
    rescores: int = 0
    #: rescores served by the delta-localised incremental path
    incremental_rescores: int = 0
    #: rescores that ran the full forward pass
    full_rescores: int = 0
    #: auto-mode fallbacks because the delta's receptive field was too large
    cutoff_fallbacks: int = 0
    #: incremental results checked against the full oracle
    verified_rescores: int = 0
    #: oracle mismatches (incremental permanently disabled when > 0)
    verify_failures: int = 0
    #: total regions recomputed by incremental rescores
    incremental_regions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"updates": self.updates,
                "feature_updates": self.feature_updates,
                "topology_updates": self.topology_updates,
                "plan_reuses": self.plan_reuses,
                "plan_rebuilds": self.plan_rebuilds,
                "rescores": self.rescores,
                "incremental_rescores": self.incremental_rescores,
                "full_rescores": self.full_rescores,
                "cutoff_fallbacks": self.cutoff_fallbacks,
                "verified_rescores": self.verified_rescores,
                "verify_failures": self.verify_failures,
                "incremental_regions": self.incremental_regions}


@dataclass
class StreamUpdateResult:
    """Outcome of one applied delta."""

    kind: str
    version: int
    fingerprint: str
    topology_changed: bool
    plan_reused: bool
    num_regions: int
    elapsed_ms: float
    #: "incremental", "full" or "none" (rescore=False)
    mode: str = "none"
    #: regions whose encoder state was recomputed (incremental mode)
    affected_regions: int = 0
    #: affected_regions / num_regions
    affected_fraction: float = 0.0
    #: present when the update rescored
    result: Optional[ScoreResult] = None
    delta_summary: Dict[str, object] = field(default_factory=dict)

    @property
    def probabilities(self) -> Optional[np.ndarray]:
        return None if self.result is None else self.result.probabilities

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "topology_changed": self.topology_changed,
            "plan_reused": self.plan_reused,
            "num_regions": self.num_regions,
            "elapsed_ms": round(float(self.elapsed_ms), 3),
            "mode": self.mode,
            "affected_regions": int(self.affected_regions),
            "affected_fraction": round(float(self.affected_fraction), 4),
            "delta": dict(self.delta_summary),
        }
        if self.result is not None:
            payload["score"] = self.result.to_dict()
        return payload


class StreamingScorer:
    """Score one evolving city without ever re-uploading the whole graph.

    Parameters
    ----------
    engine:
        The engine to score with (typically shared with the HTTP service).
    graph:
        The initial graph version.
    warm:
        When True, score the initial version eagerly so the first request
        is a cache hit (and the incremental path starts primed).
    incremental:
        ``"auto"`` / ``"always"`` / ``"never"`` — see the module docs.
    incremental_cutoff:
        Affected-fraction threshold of the ``auto`` mode: a delta whose
        receptive field covers more than this fraction of the city falls
        back to a full rescore.
    fingerprints:
        ``"chained"`` (default) derives each version's cache key from the
        previous key and the delta digest in O(delta); ``"content"``
        re-hashes the full graph per version.
    wal:
        Optional :class:`~repro.durable.wal.StreamLog`.  When set, the
        stream is *durable*: opening writes a base snapshot (wiping any
        prior history at that path — restores go through
        :meth:`from_snapshot` instead), and every accepted delta is
        appended to the log **before** the version swap, so a crash can
        lose at most deltas the caller never saw acknowledged.
    """

    def __init__(self, engine: InferenceEngine, graph: UrbanRegionGraph,
                 warm: bool = False, incremental: str = "auto",
                 incremental_cutoff: float = 0.75,
                 fingerprints: str = "chained",
                 wal: Optional[StreamLog] = None) -> None:
        if incremental not in INCREMENTAL_MODES:
            raise ValueError("incremental must be one of %s, got %r"
                             % ("/".join(INCREMENTAL_MODES), incremental))
        if not 0.0 < incremental_cutoff <= 1.0:
            raise ValueError("incremental_cutoff must be in (0, 1], got %r"
                             % (incremental_cutoff,))
        if fingerprints not in ("chained", "content"):
            raise ValueError("fingerprints must be 'chained' or 'content', "
                             "got %r" % (fingerprints,))
        engine._check_dimensions(graph)
        self._engine = engine
        self._lock = threading.Lock()
        self.stats = StreamStats()
        self.incremental = incremental
        self.incremental_cutoff = float(incremental_cutoff)
        self.fingerprint_mode = fingerprints
        #: set after a verification failure; sticky for the stream lifetime
        self._incremental_disabled = False
        self._pending_verify = incremental == "auto"
        fingerprint = graph.fingerprint()
        plan = None
        if engine.detector.config.use_edge_plan:
            plan = EdgePlan.for_graph(graph)
            engine.seed_plan(fingerprint, plan)
        self._state = _StreamState(graph=graph, fingerprint=fingerprint,
                                   plan=plan, version=0)
        # streams report into their engine's registry, so one /metrics
        # scrape covers the whole serving stack of that engine
        self._m_update_seconds = engine.metrics.histogram(
            "repro_stream_update_seconds",
            "Latency of stream delta updates (apply + rescore), by rescore "
            "mode: incremental, full, or none (rescore deferred).",
            labelnames=("mode",))
        self._m_affected_fraction = engine.metrics.histogram(
            "repro_stream_affected_fraction",
            "Fraction of the city recomputed by incremental rescores "
            "(the delta's receptive field over the region count).",
            buckets=FRACTION_BUCKETS)
        if warm:
            self._full_rescore_locked()
        self._wal = wal
        self._warm_opened = bool(warm)
        if wal is not None:
            self._write_opening_snapshot()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _wal_options(self) -> Dict[str, object]:
        """The open options a restore must reproduce exactly.

        Beyond the scoring knobs, the options record which model the
        stream is currently bound to: snapshots are written atomically,
        so after a crash the recovered options name exactly one model
        version — the durability anchor of the no-torn-swap guarantee
        (:meth:`swap_engine`).
        """
        return {"incremental": self.incremental,
                "incremental_cutoff": self.incremental_cutoff,
                "fingerprints": self.fingerprint_mode,
                "model": self._engine.model_name,
                "model_version": self._engine.model_version}

    def _write_opening_snapshot(self) -> None:
        from ..durable.snapshot import SnapshotState
        self._wal.reset()
        with self._lock:
            state = self._state
            self._wal.write_snapshot(SnapshotState(
                graph=state.graph, fingerprint=state.fingerprint,
                seq=state.version, options=self._wal_options(),
                warm=self._warm_opened, cache=state.cache))

    def checkpoint(self, force: bool = False) -> Optional[Dict[str, object]]:
        """Compact the WAL into a snapshot of the current version.

        Returns None when the stream is not durable or the log is still
        under its compaction thresholds (pass ``force=True`` to compact
        regardless).  Called periodically by a
        :class:`~repro.durable.checkpoint.Checkpointer`.
        """
        if self._wal is None:
            return None
        from ..durable.snapshot import SnapshotState
        with self._lock:
            if not force and not self._wal.needs_compaction():
                return None
            state = self._state
            path = self._wal.write_snapshot(SnapshotState(
                graph=state.graph, fingerprint=state.fingerprint,
                seq=state.version, options=self._wal_options(),
                warm=self._warm_opened, cache=state.cache))
            return {"stream": self._wal.name, "seq": state.version,
                    "snapshot": str(path)}

    @classmethod
    def from_snapshot(cls, engine: InferenceEngine,
                      recovered: RecoveredStream,
                      wal: Optional[StreamLog] = None,
                      **defaults) -> "StreamingScorer":
        """Rebuild a scorer at its recovered pre-crash version.

        The stream resumes under the *recovered* version fingerprint (so
        chained histories survive the restart), with the snapshot's
        activation cache when the log tail was empty, or a deterministic
        full rescore when ``recovered.warm`` and the cache was
        invalidated by replayed deltas — either way later scores are
        bit-identical to the never-crashed stream.  Pass the (already
        recovered) ``wal`` to keep appending to the same history.
        ``defaults`` fill options the snapshot did not record (a shard's
        ``stream_defaults``); the snapshot always wins where both speak.
        """
        options = dict(defaults)
        options.update({key: recovered.options[key]
                        for key in ("incremental", "incremental_cutoff",
                                    "fingerprints")
                        if key in recovered.options})
        scorer = cls(engine, recovered.graph, warm=False, **options)
        with scorer._lock:
            state = scorer._state
            # the constructor registered the plan under the content
            # fingerprint of version 0; re-home it to the recovered
            # version's fingerprint and drop the temporary key
            if state.plan is not None:
                engine.seed_plan(recovered.fingerprint, state.plan)
            if state.fingerprint != recovered.fingerprint:
                engine.evict(state.fingerprint)
            cache = recovered.cache
            scorer._state = _StreamState(
                graph=state.graph, fingerprint=recovered.fingerprint,
                plan=state.plan, version=int(recovered.version),
                cache=cache)
            if cache is not None and engine.caching_enabled:
                engine.seed_scores(recovered.fingerprint, cache.scores)
        if recovered.warm and cache is None:
            if scorer.incremental_active:
                scorer._full_rescore_locked()
            else:
                scorer.score()
        scorer._wal = wal
        scorer._warm_opened = bool(recovered.warm)
        return scorer

    # ------------------------------------------------------------------
    # current version
    # ------------------------------------------------------------------
    @property
    def graph(self) -> UrbanRegionGraph:
        return self._state.graph

    @property
    def fingerprint(self) -> str:
        return self._state.fingerprint

    @property
    def version(self) -> int:
        return self._state.version

    @property
    def engine(self) -> InferenceEngine:
        return self._engine

    @property
    def incremental_active(self) -> bool:
        """Whether the incremental path can currently fire."""
        return (self.incremental != "never"
                and not self._incremental_disabled
                and self._engine.caching_enabled
                and self._engine.detector.config.use_edge_plan)

    def describe(self) -> Dict[str, object]:
        state = self._state
        return {
            "version": state.version,
            "fingerprint": state.fingerprint,
            "regions": state.graph.num_nodes,
            "edges": state.graph.num_edges,
            "incremental": self.incremental,
            "incremental_active": self.incremental_active,
            "durable": self._wal is not None,
            "model": self._engine.model_name,
            "model_version": self._engine.model_version,
            "stats": self.stats.to_dict(),
        }

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap_engine(self, engine: InferenceEngine) -> Dict[str, object]:
        """Atomically rebind this stream to a different engine (model).

        The stream keeps its graph version, chained fingerprint and WAL
        history — only the model scoring it changes.  Under the update
        lock the swap:

        * validates the current graph against the new engine's expected
          feature dimensions (a mismatched bundle is rejected before any
          state moves);
        * re-registers the current :class:`EdgePlan` with the new engine
          (plans describe graph structure, not model parameters, so they
          transfer verbatim — built fresh if the old engine did not keep
          one);
        * drops the activation :class:`ScoreCache` — cached encoder
          activations belong to the *old* model, and splicing them into
          the new model's incremental rescores would corrupt scores; the
          next update rebuilds the cache on the new model;
        * evicts the stream's entries from the old engine's caches (the
          old engine itself stays loaded and warm, so swapping back for
          a rollback is instant and recomputes deterministically);
        * for durable streams, writes an atomic snapshot whose options
          record the new model identity — a crash mid-rollout therefore
          recovers onto exactly one version, never a torn swap.

        Concurrent :meth:`score` calls observe either the old or the new
        engine in full; in-flight requests already past the rebind keep
        scoring on whichever engine they captured.
        """
        with self._lock:
            state = self._state
            engine._check_dimensions(state.graph)
            previous = self._engine
            if previous is not engine:
                plan = state.plan
                if engine.detector.config.use_edge_plan:
                    if plan is None:
                        plan = EdgePlan.for_graph(state.graph)
                    engine.seed_plan(state.fingerprint, plan)
                previous.evict(state.fingerprint)
                self._engine = engine
                # the new model must re-earn incremental trust in auto mode
                self._pending_verify = self.incremental == "auto"
                self._state = _StreamState(
                    graph=state.graph, fingerprint=state.fingerprint,
                    plan=plan, version=state.version, cache=None, pending=None)
                if self._wal is not None:
                    from ..durable.snapshot import SnapshotState
                    self._wal.write_snapshot(SnapshotState(
                        graph=state.graph, fingerprint=state.fingerprint,
                        seq=state.version, options=self._wal_options(),
                        warm=self._warm_opened, cache=None))
            return {
                "previous_model": previous.model_name,
                "previous_model_version": previous.model_version,
                "model": engine.model_name,
                "model_version": engine.model_version,
                "version": state.version,
                "fingerprint": state.fingerprint,
                "regions": state.graph.num_nodes,
            }

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score(self, regions: Optional[Sequence[int]] = None,
              top_percent: Optional[float] = None) -> ScoreResult:
        """Score the current graph version through the engine."""
        with self._lock:
            state = self._state
            self.stats.rescores += 1
        return self._engine.score(state.graph, regions=regions,
                                  top_percent=top_percent,
                                  fingerprint=state.fingerprint)

    def predict_proba(self) -> np.ndarray:
        return self.score().probabilities

    def evict(self) -> str:
        """Drop the current version's entries from the engine caches.

        Frees a cold city's slots under cache pressure (the fleet
        workload's ``evict`` op); the next score recomputes through the
        engine's cold path.  The scorer keeps its own activation cache,
        so later deltas still rescore incrementally.  Returns the evicted
        fingerprint.
        """
        with self._lock:
            fingerprint = self._state.fingerprint
        self._engine.evict(fingerprint)
        return fingerprint

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, delta: GraphDelta, rescore: bool = True,
               regions: Optional[Sequence[int]] = None,
               top_percent: Optional[float] = None) -> StreamUpdateResult:
        """Apply ``delta`` to the current version (atomically) and
        optionally rescore the result."""
        start = time.perf_counter()
        with self._lock:
            state = self._state
            new_graph = delta.apply(state.graph)
            # validate the whole request before committing anything: a
            # rejected update must leave the stream exactly as it was
            if rescore:
                self._engine.validate_request(new_graph, regions, top_percent)
            else:
                self._engine._check_dimensions(new_graph)
            topology_changed = delta.touches_topology
            plan = None
            plan_reused = False
            if self._engine.detector.config.use_edge_plan:
                if not topology_changed and state.plan is not None:
                    plan = state.plan
                    plan_reused = True
                    self.stats.plan_reuses += 1
                else:
                    plan = EdgePlan.for_graph(new_graph)
                    self.stats.plan_rebuilds += 1
            fingerprint = self._next_fingerprint(state, delta, new_graph)
            seeds = self._combined_seeds(state, delta)

            mode = "none"
            affected = np.zeros(0, dtype=np.int64)
            cache: Optional[ScoreCache] = None
            pending: Optional[DeltaSeeds] = None
            if rescore:
                mode, cache, affected = self._rescore(
                    state, new_graph, plan, seeds)
            elif (seeds is not None and state.cache is not None
                    and not (seeds.num_added or seeds.num_removed)):
                # carry the (now partially stale) cache plus the seeds it
                # is stale at; a later rescore recomputes exactly those.
                # Region adds/removals would require remapping the pending
                # ids, so they drop the cache instead (next rescore: full).
                cache = state.cache
                pending = seeds

            if self._wal is not None:
                # durability point: the delta hits the log (fsynced per
                # policy) before any engine or stream state advances, so
                # a failed append leaves the version exactly as it was —
                # and a logged delta is exactly an acknowledged one
                self._wal.append_delta(delta, state.version + 1, fingerprint)

            if plan is not None:
                self._engine.seed_plan(fingerprint, plan)
            if rescore and cache is not None and self._engine.caching_enabled:
                self._engine.seed_scores(fingerprint, cache.scores)
            self._engine.evict(state.fingerprint)
            new_state = _StreamState(graph=new_graph, fingerprint=fingerprint,
                                     plan=plan, version=state.version + 1,
                                     cache=cache, pending=pending)
            self._state = new_state
            self.stats.updates += 1
            if topology_changed:
                self.stats.topology_updates += 1
            else:
                self.stats.feature_updates += 1
            if rescore:
                self.stats.rescores += 1
                if mode == "incremental":
                    self.stats.incremental_rescores += 1
                    self.stats.incremental_regions += int(affected.size)
                else:
                    self.stats.full_rescores += 1

        result: Optional[ScoreResult] = None
        if rescore:
            result = self._engine.score(new_state.graph, regions=regions,
                                        top_percent=top_percent,
                                        fingerprint=new_state.fingerprint)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        num_regions = new_state.graph.num_nodes
        self._m_update_seconds.labels(mode=mode).observe(elapsed_ms / 1000.0)
        if mode == "incremental":
            self._m_affected_fraction.observe(
                affected.size / num_regions if num_regions else 0.0)
        return StreamUpdateResult(
            kind=delta.kind, version=new_state.version,
            fingerprint=new_state.fingerprint,
            topology_changed=topology_changed, plan_reused=plan_reused,
            num_regions=num_regions, elapsed_ms=elapsed_ms,
            mode=mode, affected_regions=int(affected.size),
            affected_fraction=(affected.size / num_regions if num_regions else 0.0),
            result=result, delta_summary=delta.summary())

    # ------------------------------------------------------------------
    # internals (all called with self._lock held)
    # ------------------------------------------------------------------
    def _next_fingerprint(self, state: _StreamState, delta: GraphDelta,
                          new_graph: UrbanRegionGraph) -> str:
        if self.fingerprint_mode == "content":
            return new_graph.fingerprint()
        chained = hashlib.sha256()
        chained.update(state.fingerprint.encode("ascii"))
        chained.update(delta.digest().encode("ascii"))
        return chained.hexdigest()

    def _combined_seeds(self, state: _StreamState,
                        delta: GraphDelta) -> Optional[DeltaSeeds]:
        """Seeds of this delta, merged with any pending unscored ones.

        Returns None when the incremental path cannot describe the
        combination (pending seeds followed by a region add/remove would
        need remapping the pending ids — a full rescore handles it).
        """
        from ..core.incremental import DeltaSeeds, delta_seeds
        if not self.incremental_active:
            return None
        seeds = delta_seeds(delta, state.graph)
        if state.pending is None:
            return seeds
        if seeds.num_added or seeds.num_removed:
            return None
        return DeltaSeeds(
            touched=np.union1d(state.pending.touched, seeds.touched),
            img_changed=np.union1d(state.pending.img_changed,
                                   seeds.img_changed),
            keep_mask=None, num_added=0, num_removed=0)

    def _rescore(self, state: _StreamState, new_graph: UrbanRegionGraph,
                 plan: Optional[EdgePlan], seeds: Optional[DeltaSeeds]):
        """Compute the new version's scores; returns (mode, cache, affected)."""
        from ..core.incremental import (_master_model, build_score_cache,
                                        subset_rescore)
        detector = self._engine.detector
        if not self.incremental_active:
            # the pre-incremental behaviour: no activation cache is kept,
            # the engine's own cold path computes the scores on demand
            return "full", None, np.zeros(0, np.int64)
        # region growth/removal changes the node count — and with it the
        # shape of every per-node product, whose bit-reproducibility the
        # incremental path depends on — so those deltas rescore fully
        incremental_ok = (plan is not None and seeds is not None
                          and state.cache is not None
                          and not (seeds.num_added or seeds.num_removed))
        if not incremental_ok:
            return ("full", build_score_cache(detector, new_graph, plan),
                    np.zeros(0, np.int64))

        hops = len(_master_model(detector).encoder.layers)
        # the seeds live in the new id space, so measure the receptive
        # field on the new plan before paying for any recomputation
        affected = affected_regions(plan, seeds.touched, hops, direction="out")
        fraction = affected.size / max(new_graph.num_nodes, 1)
        if self.incremental == "auto" and fraction > self.incremental_cutoff:
            self.stats.cutoff_fallbacks += 1
            return ("full", build_score_cache(detector, new_graph, plan),
                    np.zeros(0, np.int64))

        result = subset_rescore(detector, new_graph, plan, seeds, state.cache)
        if self._pending_verify and self.incremental == "auto":
            self._pending_verify = False
            self.stats.verified_rescores += 1
            oracle = build_score_cache(detector, new_graph, plan)
            if not self._scores_match(result.scores, oracle.scores):
                self.stats.verify_failures += 1
                self._incremental_disabled = True
                return "full", oracle, np.zeros(0, np.int64)
        return "incremental", result.cache, result.interior

    def _full_rescore_locked(self) -> None:
        """Warm the initial version (scores + activation cache)."""
        with self._lock:
            state = self._state
            if self.incremental_active:
                cache = self._engine.detector.build_score_cache(state.graph, state.plan)
                if self._engine.caching_enabled:
                    self._engine.seed_scores(state.fingerprint, cache.scores)
                self._state = _StreamState(
                    graph=state.graph, fingerprint=state.fingerprint,
                    plan=state.plan, version=state.version, cache=cache)
            else:
                self._engine.warm(state.graph)

    def _scores_match(self, scores: np.ndarray, oracle: np.ndarray) -> bool:
        if scores.dtype == np.float64:
            return bool(np.array_equal(scores, oracle))
        return bool(np.allclose(scores, oracle, rtol=1e-4, atol=1e-6))
