"""The batch inference engine behind the scoring service.

An :class:`InferenceEngine` wraps one loaded model bundle and serves
predictions over :class:`~repro.urg.graph.UrbanRegionGraph` inputs with
speed mechanisms the offline pipeline does not have:

* **LRU result cache** — full-graph probability vectors are cached keyed
  by :meth:`UrbanRegionGraph.fingerprint`, so repeated scoring of the same
  city (the common serving pattern: many requests about one region set)
  costs one hash instead of a forward pass;
* **concurrent cold scoring** — inference mutates no module state, so
  cold forwards of different cities run at once, from :meth:`score_many`'s
  thread pool or concurrent callers (numpy releases the GIL);
* **edge-plan cache** — cold forward passes reuse a fingerprint-keyed
  :class:`~repro.nn.graphops.EdgePlan` (self-loop augmentation, prebuilt
  scatter operators, validated ids), so repeated cold scoring across many
  cities pays the structural precomputation once per city, not per request;
* **cache-stampede guard** — concurrent cold requests for one fingerprint
  rendezvous on a per-fingerprint in-flight entry, so N threads asking for
  the same city pay one forward pass between them even when LRU eviction
  pressure would have dropped the result before the waiters reached it;
  it only deduplicates requests, the model itself needs no lock.

The engine also accepts externally computed state: the streaming layer
seeds full score vectors (:meth:`InferenceEngine.seed_scores`) and edge
plans (:meth:`InferenceEngine.seed_plan`) for graph versions it derived
incrementally, turning follow-up requests into cache hits.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.cmsf import CMSFDetector
from ..core.gate import ROW_BLOCK
from ..nn.graphops import EdgePlan
from ..obs import MetricsRegistry, default_registry
from ..urg.graph import UrbanRegionGraph
from .bundle import ModelBundle, load_bundle
from .resilience import check_deadline


@dataclass
class CacheStats:
    """Counters of the engine's fingerprint-keyed result cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": round(self.hit_rate, 4)}


@dataclass
class ScoreResult:
    """Outcome of one scoring request."""

    probabilities: np.ndarray
    fingerprint: str
    cache_hit: bool
    elapsed_ms: float
    #: indices of the scored regions (None means every region, in order)
    regions: Optional[np.ndarray] = None
    #: regions selected by the optional top-percent screening budget
    selected: Optional[np.ndarray] = None
    model: Optional[str] = None
    version: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "probabilities": np.asarray(self.probabilities).tolist(),
            "fingerprint": self.fingerprint,
            "cache_hit": bool(self.cache_hit),
            "elapsed_ms": round(float(self.elapsed_ms), 3),
        }
        if self.regions is not None:
            payload["regions"] = np.asarray(self.regions).tolist()
        if self.selected is not None:
            payload["selected"] = np.asarray(self.selected).tolist()
        if self.model is not None:
            payload["model"] = self.model
        if self.version is not None:
            payload["version"] = self.version
        return payload


@dataclass
class _LRUCache:
    """A tiny thread-safe LRU mapping fingerprint -> probability vector."""

    capacity: int
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        #: optional ``callback(count)`` fired after entries are evicted
        #: (outside the cache lock) — how the engine exports evictions to
        #: its metrics registry without the cache knowing about metrics
        self.on_evict = None

    def get(self, key: str) -> Optional[np.ndarray]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def peek(self, key: str) -> Optional[np.ndarray]:
        """Like :meth:`get` but without touching the hit/miss counters."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: str, value: np.ndarray) -> None:
        if self.capacity <= 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        if evicted and self.on_evict is not None:
            self.on_evict(evicted)

    def discard(self, key: str) -> None:
        """Drop ``key`` if present (no effect on the hit/miss counters)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _InflightCompute:
    """Rendezvous for concurrent cold requests of one fingerprint."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class InferenceEngine:
    """Load a detector once, then score graphs fast and concurrently.

    Parameters
    ----------
    detector:
        A fitted :class:`CMSFDetector` (typically from a loaded bundle).
    cache_size:
        Maximum number of full-graph score vectors kept in the LRU cache
        (0 disables caching).
    max_workers:
        Thread-pool width used by :meth:`score_many`.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` cache/stampede counters
        and the cold-compute latency histogram are exported to, all
        labelled ``model=<model_name>``.  ``None`` (the default) uses the
        process-global registry served by ``GET /metrics``; tests and the
        experiment runner inject a fresh one to observe in isolation.
    """

    def __init__(self, detector: CMSFDetector, cache_size: int = 32,
                 max_workers: int = 4,
                 model_name: Optional[str] = None,
                 model_version: Optional[str] = None,
                 expected_poi_dim: Optional[int] = None,
                 expected_image_dim: Optional[int] = None,
                 expected_dtype: Optional[str] = None,
                 plan_cache_size: int = 8,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        detector.check_fitted()
        if (expected_dtype is not None
                and expected_dtype != detector.config.dtype):
            raise ValueError(
                f"bundle manifest records dtype {expected_dtype!r} but the "
                f"loaded detector computes in {detector.config.dtype!r}; the "
                "bundle is inconsistent — repackage it")
        self.detector = detector
        self.max_workers = max(1, int(max_workers))
        self.model_name = model_name
        self.model_version = model_version
        #: feature dimensions of the training graph (from the bundle
        #: manifest); incoming graphs are checked against them so a
        #: preprocessing mismatch fails with a clear message instead of a
        #: shape error deep inside the encoder
        self.expected_poi_dim = expected_poi_dim
        self.expected_image_dim = expected_image_dim
        #: number of actual forward passes (cache misses that computed)
        self.cold_computes = 0
        self._cache = _LRUCache(capacity=cache_size)
        #: fingerprint-keyed :class:`EdgePlan` cache: cold scoring of a city
        #: whose result was evicted (or whose labels changed) reuses the
        #: structural precomputation without even re-hashing the edge bytes
        self._plan_cache = _LRUCache(capacity=plan_cache_size)
        #: per-fingerprint in-flight computes: concurrent cold requests for
        #: the same city wait on the first thread's result instead of each
        #: recomputing it (the LRU alone cannot guarantee that — under
        #: eviction pressure the first result may already be gone by the
        #: time the second thread looks)
        self._inflight: Dict[str, _InflightCompute] = {}
        self._inflight_lock = threading.Lock()
        #: number of requests that waited on another thread's in-flight
        #: compute instead of running their own forward pass
        self.stampedes_avoided = 0
        #: the registry this engine's counters live in — the streaming
        #: layer instruments its per-stream updates against the same one
        self.metrics = metrics if metrics is not None else default_registry()
        label = model_name or "unnamed"
        self._m_hits = self.metrics.counter(
            "repro_engine_cache_hits_total",
            "Result-cache hits (score requests served without a forward pass).",
            labelnames=("model",)).labels(model=label)
        self._m_misses = self.metrics.counter(
            "repro_engine_cache_misses_total",
            "Result-cache misses on score requests.",
            labelnames=("model",)).labels(model=label)
        self._m_evictions = self.metrics.counter(
            "repro_engine_cache_evictions_total",
            "Score vectors dropped from the result cache by LRU pressure.",
            labelnames=("model",)).labels(model=label)
        self._m_stampedes = self.metrics.counter(
            "repro_engine_stampedes_avoided_total",
            "Cold requests that reused another thread's in-flight compute.",
            labelnames=("model",)).labels(model=label)
        self._m_cold_seconds = self.metrics.histogram(
            "repro_engine_cold_compute_seconds",
            "Latency of full cold forward passes (one per cold compute).",
            labelnames=("model",)).labels(model=label)
        self._cache.on_evict = self._m_evictions.inc

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_bundle(cls, bundle: Union[ModelBundle, str, "object"],
                    **kwargs) -> "InferenceEngine":
        """Build an engine from a loaded bundle or a bundle directory."""
        if not isinstance(bundle, ModelBundle):
            bundle = load_bundle(bundle)
        kwargs.setdefault("model_name", bundle.name)
        kwargs.setdefault("model_version", bundle.version)
        kwargs.setdefault("expected_poi_dim", bundle.manifest.poi_dim)
        kwargs.setdefault("expected_image_dim", bundle.manifest.image_dim)
        kwargs.setdefault("expected_dtype", bundle.manifest.dtype)
        return cls(bundle.detector, **kwargs)

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Rows per block of the fused inference tail on the cold path
        (:data:`repro.core.gate.ROW_BLOCK`; a constant, not a setting)."""
        return ROW_BLOCK

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()

    def evict(self, fingerprint: str) -> None:
        """Drop one fingerprint from the result and plan caches.

        The streaming layer calls this when a delta supersedes a graph
        version: the old entries are still *correct* for the old graph,
        but a stream never scores it again, so keeping them would only
        push live entries out of the LRU.
        """
        self._cache.discard(fingerprint)
        self._plan_cache.discard(fingerprint)

    def seed_plan(self, fingerprint: str, plan: EdgePlan) -> None:
        """Register a known-valid :class:`EdgePlan` for ``fingerprint``.

        Used by :class:`~repro.stream.scorer.StreamingScorer` after a
        feature-only delta: the edge structure is untouched, so the
        existing plan is re-registered under the new fingerprint and the
        next cold score skips even the edge-content hash.
        """
        self._plan_cache.put(fingerprint, plan)

    def seed_scores(self, fingerprint: str, scores: np.ndarray) -> None:
        """Register a known-valid full-graph score vector for ``fingerprint``.

        The streaming layer computes incremental scores itself (splicing a
        delta's receptive field into the previous version's vector) and
        publishes them here, so the next :meth:`score` of that version is a
        cache hit instead of a forward pass.
        """
        self._cache.put(fingerprint, np.ascontiguousarray(scores))

    @property
    def caching_enabled(self) -> bool:
        """Whether the result cache can hold seeded score vectors."""
        return self._cache.capacity > 0

    def stats_summary(self) -> Dict[str, object]:
        """The engine's performance counters as one JSON-shaped dict.

        Shared by the server's ``/stats`` endpoint and the fleet layer's
        per-shard aggregation, so both report the same fields.
        """
        return {"cache": self.cache_stats.to_dict(),
                "cached_graphs": self.cache_len,
                "cold_computes": self.cold_computes,
                "stampedes_avoided": self.stampedes_avoided}

    def warm(self, graph: UrbanRegionGraph) -> str:
        """Pre-populate the cache for ``graph``; returns its fingerprint."""
        self._check_dimensions(graph)
        fingerprint = graph.fingerprint()
        self._compute_or_reuse(fingerprint, graph)
        return fingerprint

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def predict_proba(self, graph: UrbanRegionGraph) -> np.ndarray:
        """UV probability per region, served from the cache when possible."""
        return self.score(graph).probabilities

    def predict(self, graph: UrbanRegionGraph, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction by thresholding :meth:`predict_proba`."""
        return (self.predict_proba(graph) >= threshold).astype(np.int64)

    def validate_request(self, graph: UrbanRegionGraph,
                         regions: Optional[Sequence[int]] = None,
                         top_percent: Optional[float] = None,
                         ) -> Tuple[Optional[np.ndarray], Optional[float]]:
        """Normalise and validate a scoring request against ``graph``.

        Returns the ``(region_index, top_percent)`` pair :meth:`score`
        works with, raising :class:`ValueError` on malformed input.  The
        streaming layer calls this *before* committing a delta, so a
        request that would be rejected cannot advance the stream.
        """
        self._check_dimensions(graph)
        region_index: Optional[np.ndarray] = None
        if regions is not None:
            try:
                region_index = np.asarray(list(regions))
                if region_index.ndim != 1:
                    raise ValueError(f"got shape {region_index.shape}")
            except (TypeError, ValueError) as error:
                raise ValueError(f"regions must be a flat list of node "
                                 f"indices: {error}") from error
            if region_index.size and not np.issubdtype(region_index.dtype,
                                                       np.integer):
                # an int64 cast would silently truncate 1.9 -> region 1
                raise ValueError("regions must be integer node indices, got "
                                 f"dtype {region_index.dtype}")
            region_index = region_index.astype(np.int64)
            if region_index.size and (region_index.min() < 0
                                      or region_index.max() >= graph.num_nodes):
                raise ValueError("requested region indices out of range for "
                                 f"a graph with {graph.num_nodes} regions")
        if top_percent is not None:
            try:
                top_percent = float(top_percent)
            except (TypeError, ValueError) as error:
                raise ValueError(f"top_percent must be a number: {error}") from error
            if not 0 < top_percent <= 100:
                raise ValueError("top_percent must be in (0, 100]")
        return region_index, top_percent

    def score(self, graph: UrbanRegionGraph,
              regions: Optional[Sequence[int]] = None,
              top_percent: Optional[float] = None,
              fingerprint: Optional[str] = None) -> ScoreResult:
        """Score ``graph``, optionally restricted to ``regions``.

        ``top_percent`` additionally reports the highest-scoring regions
        within the requested screening budget (the paper's deployment
        scenario: hand planners a ranked shortlist).  ``fingerprint`` is a
        trusted precomputed ``graph.fingerprint()`` (the streaming layer
        passes the one it already paid for); leave it ``None`` otherwise.
        """
        start = time.perf_counter()
        # a request whose propagated deadline already passed is shed
        # before the forward pass — finishing work nobody is waiting for
        # only steals capacity from requests that can still make it
        check_deadline("engine score")
        # validate the request before paying the forward pass, so malformed
        # input fails fast and cheap
        region_index, top_percent = self.validate_request(graph, regions,
                                                          top_percent)
        if fingerprint is None:
            fingerprint = graph.fingerprint()
        scores = self._cache.get(fingerprint)
        cache_hit = scores is not None
        (self._m_hits if cache_hit else self._m_misses).inc()
        if scores is None:
            scores = self._compute_or_reuse(fingerprint, graph)

        returned = scores
        if region_index is not None:
            returned = scores[region_index]

        selected: Optional[np.ndarray] = None
        if top_percent is not None:
            pool = region_index if region_index is not None else np.arange(scores.shape[0])
            budget = max(1, int(round(pool.size * top_percent / 100.0)))
            order = np.argsort(-scores[pool], kind="stable")
            selected = pool[order[:budget]]

        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return ScoreResult(probabilities=returned.copy(), fingerprint=fingerprint,
                           cache_hit=cache_hit, elapsed_ms=elapsed_ms,
                           regions=region_index, selected=selected,
                           model=self.model_name, version=self.model_version)

    def score_many(self, graphs: Sequence[UrbanRegionGraph]) -> List[ScoreResult]:
        """Score several graphs concurrently (one thread per graph).

        Results are returned in input order.  Cold forward passes of
        distinct cities run concurrently; duplicates of one city share a
        single forward (the stampede guard), and any graph already cached
        completes without touching the model at all.
        """
        if not graphs:
            return []
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(self.score, graphs))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_dimensions(self, graph: UrbanRegionGraph) -> None:
        mismatches = []
        if (self.expected_poi_dim is not None
                and graph.poi_dim != self.expected_poi_dim):
            mismatches.append(f"poi_dim {graph.poi_dim} != {self.expected_poi_dim}")
        if (self.expected_image_dim is not None
                and graph.image_dim != self.expected_image_dim):
            mismatches.append(
                f"image_dim {graph.image_dim} != {self.expected_image_dim}")
        if mismatches:
            model = self.model_name or "the loaded model"
            raise ValueError(
                f"graph '{graph.name}' does not match the preprocessing "
                f"{model} was trained with ({'; '.join(mismatches)}); rebuild "
                "the graph with the same feature configuration as the "
                "bundle's training graph")

    # ------------------------------------------------------------------
    # cold path
    # ------------------------------------------------------------------
    def _compute_or_reuse(self, fingerprint: str, graph: UrbanRegionGraph) -> np.ndarray:
        """Compute scores once per fingerprint, however many threads ask.

        A per-fingerprint in-flight entry hands the first thread's result
        directly to every concurrent requester of the same city, so the
        dedup holds even when LRU pressure evicts the entry before the
        waiters get to the cache — previously each of N concurrent cold
        requests could pay its own forward pass in that window.  Forwards
        of different fingerprints run concurrently: nothing locks the
        model.  If the computing thread fails, one waiter at a time
        retries so a transient error cannot wedge the fingerprint.
        """
        while True:
            scores = self._cache.peek(fingerprint)
            if scores is not None:
                return scores
            with self._inflight_lock:
                entry = self._inflight.get(fingerprint)
                owner = entry is None
                if owner:
                    entry = _InflightCompute()
                    self._inflight[fingerprint] = entry
            if owner:
                try:
                    scores = self._cache.peek(fingerprint)
                    if scores is None:
                        cold_start = time.perf_counter()
                        scores = self._cold_scores(graph, fingerprint)
                        self._m_cold_seconds.observe(
                            time.perf_counter() - cold_start)
                        with self._inflight_lock:
                            self.cold_computes += 1
                        self._cache.put(fingerprint, scores)
                    entry.result = scores
                except BaseException as error:
                    entry.error = error
                    raise
                finally:
                    with self._inflight_lock:
                        self._inflight.pop(fingerprint, None)
                    entry.done.set()
                return scores
            entry.done.wait()
            if entry.error is None and entry.result is not None:
                with self._inflight_lock:
                    self.stampedes_avoided += 1
                self._m_stampedes.inc()
                return entry.result
            # the computing thread failed; loop and try to take over

    def _graph_plan(self, graph: UrbanRegionGraph,
                    fingerprint: str) -> Optional[EdgePlan]:
        """The compute plan for ``graph``, cached per fingerprint.

        Two cache levels: this engine's fingerprint-keyed LRU (no hashing at
        all on repeat requests) in front of the module-level content-keyed
        cache in :mod:`repro.nn.graphops` (which deduplicates plans across
        relabelled copies of the same city).
        """
        if not self.detector.config.use_edge_plan:
            return None
        plan = self._plan_cache.peek(fingerprint)
        if plan is None:
            plan = EdgePlan.for_graph(graph)
            self._plan_cache.put(fingerprint, plan)
        return plan

    def _cold_scores(self, graph: UrbanRegionGraph,
                     fingerprint: str) -> np.ndarray:
        """One full forward pass: ``predict_proba`` on the cached plan."""
        return self.detector.predict_proba(
            graph, plan=self._graph_plan(graph, fingerprint))
