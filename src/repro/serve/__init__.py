"""Model packaging and online scoring for trained CMSF detectors.

Everything before this subpackage reproduces the paper; :mod:`repro.serve`
turns the reproduction into a deployable system — train once, package the
fitted detector, then score many cities fast:

* :mod:`repro.serve.bundle` — versioned on-disk model bundles (parameters,
  config, graph-preprocessing metadata, integrity checksum) with a
  save/load round-trip back to a scoring :class:`~repro.core.CMSFDetector`;
* :mod:`repro.serve.registry` — a :class:`ModelRegistry` that publishes,
  discovers and resolves bundles by name and version (the model-side
  mirror of :class:`~repro.data.DatasetRegistry`);
* :mod:`repro.serve.engine` — an :class:`InferenceEngine` that loads a
  bundle once and serves predictions with an LRU result cache keyed by
  :meth:`~repro.urg.graph.UrbanRegionGraph.fingerprint`, a cached edge plan
  per city and a thread pool for concurrent multi-city requests;
* :mod:`repro.serve.wire` — the JSON wire format shipping graphs, graph
  deltas and scores over HTTP;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — a stdlib-only
  HTTP scoring service (``/healthz``, ``/models``, ``/streams``,
  ``/score``, ``/update``, ``/evict``) and its matching client; the
  ``/update`` route backs the streaming layer (:mod:`repro.stream`) so
  evolving cities are rescored from incremental deltas instead of full
  re-uploads;
* :mod:`repro.serve.fleet` — horizontal scale: a consistent-hash
  :class:`FleetRouter` spreading cities across N shard workers
  (:class:`EngineShard` in-process, :class:`RemoteShard` over HTTP) with
  replication, health checks and lossless failover, paired with the
  deterministic workload traces in :mod:`repro.bench.workload`;
* :mod:`repro.serve.resilience` — overload protection and graceful
  degradation: per-endpoint :class:`AdmissionController`\\ s (bounded
  concurrency + queue, shed with ``503 + Retry-After``), per-shard
  :class:`CircuitBreaker`\\ s with gray-failure detection and
  self-reviving half-open probes, a fleet-wide :class:`RetryBudget`,
  propagated request deadlines (:func:`deadline_scope`), and an opt-in
  degraded mode answering shed scores from bounded-staleness cache;
* :mod:`repro.serve.rollout` — online model lifecycle: a
  :class:`RolloutController` driving staged canary rollouts of a new
  bundle version (hot ``swap_stream`` on live streams, deterministic
  hash-keyed canary routing, shadow scoring into
  :func:`repro.analysis.drift.score_drift_report`, and a pluggable
  :class:`RolloutPolicy` promoting 5% → 25% → 100% or rolling back
  fleet-wide).

Every layer reports into a :mod:`repro.obs` metrics registry (the
process-global one by default, injectable via each component's
``metrics=`` parameter); ``GET /metrics`` on the server renders the
whole stack's counters and latency histograms in the Prometheus text
exposition format.
"""

from .bundle import (BundleManifest, ModelBundle, load_bundle, read_manifest,
                     save_bundle)
from .client import ScoringClient
from .engine import CacheStats, InferenceEngine, ScoreResult
from .fleet import (ChaosShard, ConsistentHashRing, EngineShard, FleetError,
                    FleetRouter, FleetStats, RemoteShard, ShardBackend,
                    ShardFailure)
from .registry import ModelRegistry
from .resilience import (DEADLINE_HEADER, AdmissionConfig,
                         AdmissionController, BreakerConfig, CircuitBreaker,
                         Deadline, DeadlineExceeded, ResilienceConfig,
                         RetryBudget, ShedError, StaleScoreCache,
                         current_deadline, deadline_scope)
from .rollout import (DEFAULT_STAGES, RolloutController, RolloutDecision,
                      RolloutError, RolloutPolicy, RolloutStateMachine,
                      ShadowStats, canary_assignment, is_canary,
                      stages_for_fraction)
from .server import ScoringServer

__all__ = [
    "BundleManifest",
    "ModelBundle",
    "save_bundle",
    "load_bundle",
    "read_manifest",
    "ModelRegistry",
    "InferenceEngine",
    "CacheStats",
    "ScoreResult",
    "ScoringServer",
    "ScoringClient",
    "ConsistentHashRing",
    "ShardBackend",
    "EngineShard",
    "RemoteShard",
    "ChaosShard",
    "FleetRouter",
    "FleetStats",
    "FleetError",
    "ShardFailure",
    "DEADLINE_HEADER",
    "AdmissionConfig",
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "ResilienceConfig",
    "RetryBudget",
    "ShedError",
    "StaleScoreCache",
    "current_deadline",
    "deadline_scope",
    "DEFAULT_STAGES",
    "RolloutController",
    "RolloutDecision",
    "RolloutError",
    "RolloutPolicy",
    "RolloutStateMachine",
    "ShadowStats",
    "canary_assignment",
    "is_canary",
    "stages_for_fraction",
]
