"""A stdlib-only HTTP scoring service for packaged CMSF detectors.

The server exposes these JSON endpoints:

``GET /healthz``
    Liveness probe — uptime, number of loaded models, request counter.
``GET /models``
    Every model the backing registry knows, with the manifest summary and
    the live cache statistics of any engine already loaded.
``GET /models/<name>[?version=v]``
    Manifest summary of one model — the fleet health-check probe.
    Unknown models/versions answer with a clean 404 payload.
``GET /streams``
    Every open update stream with its current version and statistics.
``GET /stats``
    Serving-wide performance counters: the compute-plan cache, each
    engine's result cache / cold computes / stampedes avoided, and each
    stream's incremental-rescoring counters.
``GET /metrics``
    The Prometheus text exposition of the service's metrics registry
    (``text/plain; version=0.0.4``): per-endpoint request/error counters
    and latency histograms (``repro_http_*``) plus every engine, stream
    and fleet metric registered against the same registry.
``POST /score``
    Score a graph with a named model.  The request body is a JSON object::

        {"model": "shenzhen",          # required (unless "stream")
         "version": "2",               # optional (latest when omitted)
         "graph": {...},               # wire payload (repro.serve.wire)
         "regions": [0, 4, 17],        # optional subset to return
         "top_percent": 5.0,           # optional screening budget
         "threshold": 0.5}             # optional binary predictions

    Alternatively ``{"stream": "sz-live"}`` scores the *current version*
    of an open update stream without re-uploading its graph — the fleet
    shard hot path.

``POST /evict``
    ``{"stream": "sz-live"}`` drops the stream's current version from its
    engine's result/plan caches (the workload harness's cache-pressure
    op); the next score of that version recomputes cold.

``POST /update``
    Open an update stream or push an incremental delta to it.  Opening
    uploads the full graph once; every later request ships only the
    delta::

        {"stream": "sz-live",          # required stream name
         "model": "shenzhen",          # required when opening
         "graph": {...},               # open/reset: full wire payload
         "delta": {...},               # update: delta wire payload
         "rescore": true,              # score the new version (default)
         "incremental": "auto",        # open only: auto|always|never
         "incremental_cutoff": 0.75,   # open only: auto-mode fallback
         "fingerprints": "chained",    # open only: chained|content
         "regions": [...], "top_percent": 5.0}   # as for /score

    Update responses report how the rescore ran: ``mode``
    ("incremental"/"full"/"none"), ``affected_regions`` /
    ``affected_fraction`` (the delta's receptive field) and
    ``elapsed_ms``.

``POST /swap``
    ``{"stream": "sz-live", "model": "shenzhen", "version": "2"}`` —
    atomically rebind an open stream to another packaged bundle version
    without dropping its graph, WAL chain or in-flight requests.  The
    previous engine stays loaded (warm), so swapping back is instant.

``GET /rollout`` / ``POST /rollout``
    Status and control of a staged canary rollout across this service's
    streams (see :mod:`repro.serve.rollout`).  Control actions::

        {"action": "start", "model": "shenzhen", "version": "2",
         "canary_fraction": 0.05,        # first stage (ladder continues
                                         # through the defaults to 100%)
         "seed": 0, "auto": true,        # deterministic canary keying
         "policy": {"max_mean_abs_change": 0.05, ...}}
        {"action": "promote" | "rollback" | "abort" | "evaluate"
                 | "status"}

Engines are created lazily per model/version on first use and kept for the
lifetime of the server, so the bundle-load cost is paid once and the
fingerprint cache accumulates across requests.  Built on
``http.server.ThreadingHTTPServer`` — no third-party dependency, which
keeps the serving path importable in the same minimal environment as the
rest of the reproduction.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

from ..durable import Checkpointer, DurabilityError, DurabilityLog
from ..obs import MetricsRegistry, default_registry
from ..stream.scorer import StreamingScorer
from .bundle import read_manifest
from .engine import InferenceEngine
from .registry import ModelRegistry
from .resilience import (DEADLINE_HEADER, AdmissionConfig,
                         AdmissionController, Deadline, DeadlineExceeded,
                         ShedError, StaleScoreCache, check_deadline,
                         deadline_scope)
from .rollout import (DEFAULT_STAGES, RolloutController, RolloutError,
                      RolloutPolicy, stages_for_fraction)
from .wire import delta_from_payload, graph_from_payload

#: request bodies larger than this are rejected up front (64 MiB covers the
#: biggest preset city with raw image features several times over)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: content type of the Prometheus text exposition format
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: how often the background accept loop looks for a shutdown request, so
#: :meth:`ScoringServer.stop` returns within this bound (the stdlib's
#: default is 0.5 s)
_SHUTDOWN_POLL_S = 0.05

#: fixed endpoint labels (GET method) — anything else is "other", and
#: ``/models/<name>`` collapses to one label, so a scanner probing random
#: paths cannot blow up the metric cardinality
_GET_ENDPOINTS = frozenset(
    ("/healthz", "/models", "/streams", "/stats", "/metrics", "/rollout"))
_POST_ENDPOINTS = frozenset(("/score", "/update", "/evict", "/swap",
                             "/rollout"))

#: POST endpoints behind admission control.  The rollout control plane
#: (/swap, /rollout) is deliberately NOT gated: a rollback issued during
#: an overload is exactly the request that must not be shed.
_ADMITTED_ENDPOINTS = ("/evict", "/score", "/update")


def endpoint_label(path: str, method: str) -> str:
    """The bounded-cardinality ``endpoint`` label for a request path."""
    if method == "POST":
        return path if path in _POST_ENDPOINTS else "other"
    if path in _GET_ENDPOINTS:
        return path
    if path.startswith("/models/"):
        return "/models/:name"
    return "other"


class ServiceError(Exception):
    """An error with an HTTP status code attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ScoringService:
    """The framework-free application logic behind the HTTP endpoints.

    Separating this from the request handler keeps every endpoint testable
    in-process without sockets and reusable behind a different transport.
    """

    def __init__(self, registry: Union[ModelRegistry, str],
                 cache_size: int = 32, max_workers: int = 4,
                 metrics: Optional[MetricsRegistry] = None,
                 wal_dir=None, fsync: str = "interval",
                 checkpoint_interval_s: float = 30.0,
                 admission: Optional[AdmissionConfig] = None,
                 degraded: bool = False,
                 degraded_max_version_lag: int = 8) -> None:
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.cache_size = cache_size
        self.max_workers = max_workers
        self.started_at = time.time()
        self.requests_served = 0
        self._engines: Dict[Tuple[str, str], InferenceEngine] = {}
        #: open update streams: name -> (scorer, model, version)
        self._streams: Dict[str, Tuple[StreamingScorer, str, str]] = {}
        #: the active staged-rollout controller, if any (POST /rollout)
        self._rollout: Optional[RolloutController] = None
        self._lock = threading.Lock()
        #: the registry ``GET /metrics`` renders; engines created by this
        #: service (and their streams) report into the same one, so a
        #: single scrape covers the whole process
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_http_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by endpoint, method and status code.",
            labelnames=("endpoint", "method", "status"))
        self._m_http_errors = self.metrics.counter(
            "repro_http_errors_total",
            "HTTP requests answered with a 4xx/5xx status.",
            labelnames=("endpoint", "status"))
        self._m_http_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "Wall time from request receipt to response written.",
            labelnames=("endpoint",))
        # overload protection: per-endpoint admission controllers bound
        # the concurrency and queueing of every POST endpoint; excess
        # work is shed with 503 + Retry-After instead of queueing
        # without bound.  Degraded mode (opt-in) answers shed stream
        # scores from the last known-good payload, flagged
        # ``degraded: true`` with bounded version-lag staleness
        self._admission: Dict[str, AdmissionController] = {}
        if admission is not None:
            for endpoint in _ADMITTED_ENDPOINTS:
                self._admission[endpoint] = AdmissionController(
                    endpoint, admission).bind_metrics(
                        self.metrics, component="server")
        self._stale: Optional[StaleScoreCache] = None
        if degraded:
            self._stale = StaleScoreCache(
                max_version_lag=degraded_max_version_lag)
        # durability: streams opened on this service append to per-stream
        # WALs; the checkpointer compacts over-threshold logs in the
        # background and reports to <wal_dir>/checkpointer.json
        self._wal: Optional[DurabilityLog] = None
        self._checkpointer: Optional[Checkpointer] = None
        if wal_dir is not None:
            self._wal = DurabilityLog(wal_dir, fsync=fsync,
                                      metrics=self.metrics)
            self._checkpointer = Checkpointer(
                self.checkpoint, interval_s=checkpoint_interval_s,
                status_path=self._wal.root / "checkpointer.json").start()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self, force: bool = False) -> Dict[str, object]:
        """Compact every open durable stream's WAL past its thresholds."""
        with self._lock:
            open_streams = dict(self._streams)
        report: Dict[str, object] = {}
        for name in sorted(open_streams):
            scorer = open_streams[name][0]
            result = scorer.checkpoint(force=force)
            if result is not None:
                report[name] = result
        return report

    def durability_status(self) -> Dict[str, object]:
        if self._wal is None:
            return {"wal_enabled": False}
        try:
            status = self._wal.status()
        except DurabilityError as error:
            return {"wal_enabled": True, "error": str(error)}
        if self._checkpointer is not None:
            status["checkpointer"] = self._checkpointer.status()
        return status

    def close(self) -> None:
        """Stop the background checkpointer and close WAL handles."""
        if self._checkpointer is not None:
            self._checkpointer.stop()
        if self._wal is not None:
            self._wal.close()

    def observe_http(self, endpoint: str, method: str, status: int,
                     seconds: float) -> None:
        """Record one handled HTTP request (called by the handler)."""
        status_label = str(int(status))
        self._m_http_requests.labels(endpoint=endpoint, method=method,
                                     status=status_label).inc()
        self._m_http_seconds.labels(endpoint=endpoint).observe(seconds)
        if status >= 400:
            self._m_http_errors.labels(endpoint=endpoint,
                                       status=status_label).inc()

    def metrics_text(self) -> str:
        """The Prometheus text exposition of :attr:`metrics`."""
        return self.metrics.render()

    # ------------------------------------------------------------------
    # overload protection
    # ------------------------------------------------------------------
    def _admit(self, endpoint: str):
        """The endpoint's admission gate, or a no-op when unbounded."""
        controller = self._admission.get(endpoint)
        if controller is None:
            return contextlib.nullcontext()
        return controller.admit()

    def resilience_status(self) -> Dict[str, object]:
        status: Dict[str, object] = {
            "admission": {endpoint: controller.describe()
                          for endpoint, controller
                          in sorted(self._admission.items())},
        }
        if self._stale is not None:
            status["stale_cache"] = self._stale.describe()
        return status

    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------
    def _resolve_bundle(self, model: str, version: Optional[str]):
        """Resolve ``model:version`` to a bundle directory or a clean error.

        ``KeyError`` needs its message unwrapped: ``str(KeyError(msg))``
        is the *repr* of the message (``"'msg'"``), and before this helper
        existed a fleet health check probing an unknown model got that
        quoted repr back in its 404 payload.
        """
        try:
            return self.registry.resolve(model, version)
        except ValueError as error:
            # malformed name/version in the request, not a missing model
            raise ServiceError(400, str(error)) from error
        except KeyError as error:
            message = error.args[0] if error.args else str(error)
            raise ServiceError(404, str(message)) from error

    def engine_for(self, model: str, version: Optional[str] = None) -> InferenceEngine:
        """The (lazily created) engine serving ``model:version``."""
        directory = self._resolve_bundle(model, version)
        key = (model.lower(), directory.name)
        with self._lock:
            engine = self._engines.get(key)
        if engine is None:
            # load outside the lock so a cold bundle load (disk read +
            # checksum + module rebuild) cannot stall requests for models
            # that are already warm; concurrent first-loads of the same
            # model may both load, setdefault keeps exactly one
            engine = InferenceEngine.from_bundle(
                directory, cache_size=self.cache_size,
                max_workers=self.max_workers, metrics=self.metrics)
            with self._lock:
                engine = self._engines.setdefault(key, engine)
        return engine

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """Liveness plus load context: a fleet health check learns not
        just that the shard answers, but how loaded it is (uptime, total
        requests, how many models/bundles it can serve)."""
        uptime = round(time.time() - self.started_at, 3)
        with self._lock:
            engines_loaded = len(self._engines)
            streams_open = len(self._streams)
        return {
            "status": "ok",
            "uptime_s": uptime,
            "uptime_seconds": uptime,
            "models_available": len(self.registry.models()),
            "bundles_available": len(self.registry.entries()),
            "engines_loaded": engines_loaded,
            "streams_open": streams_open,
            "requests_served": self.requests_served,
            "requests_total": self.requests_served,
            "durability": self.durability_status(),
            "resilience": self.resilience_status(),
        }

    def models(self) -> Dict[str, object]:
        entries = []
        for entry in self.registry.entries():
            key = (str(entry["name"]), str(entry["version"]))
            engine = self._engines.get(key)
            if engine is not None:
                entry = dict(entry)
                entry["cache"] = engine.cache_stats.to_dict()
                entry["cached_graphs"] = engine.cache_len
            entries.append(entry)
        return {"models": entries}

    def model_info(self, model: str, version: Optional[str] = None) -> Dict[str, object]:
        """Manifest summary of one model — the fleet health-check probe.

        Resolves without loading: a health check must be cheap and must
        not force a cold bundle load.  Unknown models/versions surface as
        a clean 404 payload via :meth:`_resolve_bundle`.
        """
        if not model or not isinstance(model, str):
            raise ServiceError(400, "missing required model name")
        directory = self._resolve_bundle(model, version)
        manifest = read_manifest(directory)
        payload: Dict[str, object] = {
            "model": manifest.name,
            "version": manifest.version,
            "description": manifest.describe(),
            "trained_on": manifest.graph.get("name"),
            "dtype": manifest.dtype,
        }
        with self._lock:
            engine = self._engines.get((model.lower(), directory.name))
        payload["loaded"] = engine is not None
        if engine is not None:
            payload["engine"] = engine.stats_summary()
        return payload

    def score(self, request: Dict[str, object]) -> Dict[str, object]:
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")
        stream = request.get("stream")
        graph_payload = request.get("graph")
        if stream is not None and graph_payload is not None:
            raise ServiceError(400, "send either 'stream' (score the live "
                                    "version of an open stream) or 'graph', "
                                    "not both")
        if stream is not None and (request.get("model") is not None
                                   or request.get("version") is not None):
            # a stream is bound to its model at open time; silently scoring
            # it with a different model than requested would be worse than
            # an error
            raise ServiceError(400, "'model'/'version' cannot be combined "
                                    "with 'stream' — the stream already "
                                    "determines the model")
        try:
            with self._admit("/score"):
                check_deadline("score")
                if stream is not None:
                    payload, engine, graph = self._score_stream(stream,
                                                                request)
                else:
                    payload, engine, graph = self._score_graph(request)

                threshold = request.get("threshold")
                if threshold is not None:
                    try:
                        threshold = float(threshold)
                    except (ValueError, TypeError) as error:
                        raise ServiceError(
                            400, f"bad threshold: {error}") from error
                    payload["predictions"] = [
                        int(p >= threshold)
                        for p in payload["probabilities"]]
                payload["graph_name"] = graph.name
                payload["num_regions"] = graph.num_nodes
                payload["cache"] = engine.cache_stats.to_dict()
                if self._stale is not None and stream is not None:
                    self._stale.put(stream.strip(),
                                    int(payload.get("stream_version", 0)),
                                    payload)
                self.requests_served += 1
                return payload
        except DeadlineExceeded:
            raise  # nobody is waiting — a stale answer helps no one
        except ShedError:
            stale = self._stale_answer(stream)
            if stale is not None:
                self.requests_served += 1
                return stale
            raise

    def _stale_answer(self, stream) -> Optional[Dict[str, object]]:
        """A degraded-mode answer for a shed stream score, if possible."""
        if self._stale is None or not isinstance(stream, str) \
                or not stream.strip():
            return None
        with self._lock:
            entry = self._streams.get(stream.strip())
        if entry is None:
            return None
        return self._stale.get(stream.strip(), entry[0].version)

    def _score_graph(self, request: Dict[str, object]):
        """The classic ``/score`` body: a full graph payload + model."""
        model = request.get("model")
        if not model or not isinstance(model, str):
            raise ServiceError(400, "missing required field 'model'")
        version = request.get("version")
        if version is not None:
            version = str(version)
        graph_payload = request.get("graph")
        if graph_payload is None:
            raise ServiceError(400, "missing required field 'graph'")
        try:
            graph = graph_from_payload(graph_payload)
        except ValueError as error:
            raise ServiceError(400, f"bad graph payload: {error}") from error

        engine = self.engine_for(model, version)
        try:
            # TypeError covers wrong-typed optional fields (e.g. a string
            # top_percent) — a malformed request, not a server fault
            result = engine.score(graph,
                                  regions=request.get("regions"),
                                  top_percent=request.get("top_percent"))
        except (ValueError, TypeError) as error:
            raise ServiceError(400, str(error)) from error
        return result.to_dict(), engine, graph

    def _score_stream(self, stream, request: Dict[str, object]):
        """``/score`` with ``stream``: score an open stream's current
        version without re-uploading the graph (the fleet-shard hot path)."""
        scorer, model, _ = self._stream_entry(stream)
        name = stream.strip()
        # canary routing: an active rollout for this stream's model makes
        # its (deterministic) canary decision before the score runs, so a
        # canary stream is already hot-swapped to the new version here
        rollout = self._rollout
        canary = False
        if rollout is not None and model == rollout.model:
            canary = rollout.admit(name)
        try:
            result = scorer.score(regions=request.get("regions"),
                                  top_percent=request.get("top_percent"))
        except (ValueError, TypeError) as error:
            raise ServiceError(400, str(error)) from error
        payload = result.to_dict()
        payload["stream"] = name
        payload["stream_version"] = scorer.version
        if rollout is not None:
            payload["canary"] = canary
            rollout.observe(name, payload, canary,
                            regions=request.get("regions"))
        return payload, scorer.engine, scorer.graph

    def _stream_entry(self, stream) -> Tuple[StreamingScorer, str, str]:
        if not stream or not isinstance(stream, str) or not stream.strip():
            raise ServiceError(400, "'stream' must be a non-empty string")
        with self._lock:
            entry = self._streams.get(stream.strip())
        if entry is None:
            raise ServiceError(404, f"unknown stream {stream.strip()!r}; "
                                    "open it first by sending a full 'graph' "
                                    "to /update")
        return entry

    def evict(self, request: Dict[str, object]) -> Dict[str, object]:
        """Drop a stream's current version from its engine's caches.

        The fleet workload's ``evict`` op: simulates cache pressure so the
        next score of that city runs the cold path.
        """
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")
        with self._admit("/evict"):
            check_deadline("evict")
            scorer, model, version = self._stream_entry(request.get("stream"))
            fingerprint = scorer.evict()
            self.requests_served += 1
            return {"stream": str(request.get("stream")).strip(),
                    "evicted": fingerprint, "model": model,
                    "model_version": version}

    def swap(self, request: Dict[str, object]) -> Dict[str, object]:
        """Hot-swap an open stream onto another packaged bundle version.

        The stream keeps its graph, version counter and WAL chain; the
        scorer's engine is atomically rebound
        (:meth:`~repro.stream.scorer.StreamingScorer.swap_engine`) and
        the previous engine stays loaded for an instant swap back.
        """
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")
        scorer, model, _ = self._stream_entry(request.get("stream"))
        stream = str(request.get("stream")).strip()
        new_model = request.get("model") or model
        if not isinstance(new_model, str):
            raise ServiceError(400, "'model' must be a string")
        version = request.get("version")
        if version is not None:
            version = str(version)
        engine = self.engine_for(new_model, version)
        try:
            payload = dict(scorer.swap_engine(engine))
        except ValueError as error:
            # dimension mismatch etc. — the request asked for an
            # incompatible bundle, the stream is untouched
            raise ServiceError(400, str(error)) from error
        with self._lock:
            self._streams[stream] = (scorer, new_model,
                                     engine.model_version or version or "")
        payload["stream"] = stream
        payload["swapped"] = True
        self.requests_served += 1
        return payload

    # ------------------------------------------------------------------
    # rollout control plane
    # ------------------------------------------------------------------
    def rollout_status(self) -> Dict[str, object]:
        rollout = self._rollout
        if rollout is None:
            return {"active": False}
        return {"active": True, **rollout.status()}

    def rollout(self, request: Dict[str, object]) -> Dict[str, object]:
        """Control the staged canary rollout over this service's streams."""
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")
        action = request.get("action")
        if not isinstance(action, str) or not action:
            raise ServiceError(400, "missing required field 'action'")
        try:
            if action == "start":
                return self._rollout_start(request)
            rollout = self._rollout
            if rollout is None:
                if action == "status":
                    return {"active": False}
                raise ServiceError(409, "no rollout has been started")
            if action == "status":
                return self.rollout_status()
            if action == "evaluate":
                decision = rollout.evaluate(act=bool(request.get("act",
                                                                 False)))
                return {"decision": decision.to_dict(),
                        **self.rollout_status()}
            if action == "promote":
                rollout.promote()
            elif action == "rollback":
                rollout.rollback()
            elif action == "abort":
                rollout.abort()
            else:
                raise ServiceError(
                    400, f"unknown rollout action {action!r} (expected "
                         "start/status/evaluate/promote/rollback/abort)")
            self.requests_served += 1
            return self.rollout_status()
        except RolloutError as error:
            # lifecycle violations (promote after rollback, double start)
            # are conflicts with the rollout's current state, not client
            # syntax errors
            raise ServiceError(409, str(error)) from error

    def _rollout_start(self, request: Dict[str, object]) -> Dict[str, object]:
        model = request.get("model")
        if not model or not isinstance(model, str):
            raise ServiceError(400, "starting a rollout requires 'model'")
        version = request.get("version")
        if version is None:
            raise ServiceError(400, "starting a rollout requires 'version'")
        rollout = self._rollout
        if rollout is not None and rollout.machine.state == "canary":
            raise RolloutError("a rollout is already in progress — abort "
                               "or finish it before starting another")
        stages = request.get("stages")
        try:
            if stages is None:
                fraction = request.get("canary_fraction")
                stages = (stages_for_fraction(float(fraction))
                          if fraction is not None else DEFAULT_STAGES)
            stages = [float(stage) for stage in stages]
            seed = int(request.get("seed", 0))
            threshold = float(request.get("threshold", 0.5))
        except (TypeError, ValueError, OverflowError) as error:
            raise ServiceError(400, f"bad rollout field: {error}") from error
        policy_fields = request.get("policy") or {}
        if not isinstance(policy_fields, dict):
            raise ServiceError(400, "'policy' must be an object")
        try:
            policy = RolloutPolicy(**policy_fields)
        except TypeError as error:
            raise ServiceError(400, f"bad policy: {error}") from error
        # verify the target bundle exists (and load it) before committing
        self.engine_for(model, str(version))
        controller = RolloutController(
            _ServiceRolloutBackend(self), model, str(version),
            resolve_engine=self.engine_for, policy=policy, stages=stages,
            seed=seed, auto=bool(request.get("auto", True)),
            threshold=threshold,
            metrics=self.metrics)
        with self._lock:
            streams = sorted(name for name, entry in self._streams.items()
                             if entry[1] == model)
        self._rollout = controller
        status = controller.start(streams)
        self.requests_served += 1
        return {"active": True, **status}

    def stats(self) -> Dict[str, object]:
        """Serving-wide performance counters.

        One stop for the cache/compute health of the process: the
        module-level plan cache (entries and builds), every
        engine's result-cache statistics, cold computes and stampedes
        avoided, and every open stream's incremental-rescoring counters.
        """
        from ..nn.graphops import plan_cache_info
        with self._lock:
            engines = dict(self._engines)
            open_streams = dict(self._streams)
        engine_entries = []
        for (name, version), engine in sorted(engines.items()):
            entry: Dict[str, object] = {"model": name, "version": version}
            entry.update(engine.stats_summary())
            engine_entries.append(entry)
        stream_entries = []
        for stream_name in sorted(open_streams):
            scorer, model, version = open_streams[stream_name]
            stream_entries.append({
                "stream": stream_name,
                "model": model,
                "incremental": scorer.incremental,
                "incremental_active": scorer.incremental_active,
                "stats": scorer.stats.to_dict(),
            })
        return {
            "plan_cache": plan_cache_info(),
            "engines": engine_entries,
            "streams": stream_entries,
            "requests_served": self.requests_served,
            "durability": self.durability_status(),
        }

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def streams(self) -> Dict[str, object]:
        with self._lock:
            open_streams = dict(self._streams)
        entries = []
        for name in sorted(open_streams):
            scorer, model, version = open_streams[name]
            entry = {"stream": name, "model": model, "model_version": version}
            entry.update(scorer.describe())
            entries.append(entry)
        return {"streams": entries}

    def update(self, request: Dict[str, object]) -> Dict[str, object]:
        """Open an update stream (full graph) or apply a delta to one."""
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")
        stream = request.get("stream")
        if not stream or not isinstance(stream, str) or not stream.strip():
            raise ServiceError(400, "missing required field 'stream'")
        stream = stream.strip()
        graph_payload = request.get("graph")
        delta_payload = request.get("delta")
        if (graph_payload is None) == (delta_payload is None):
            raise ServiceError(
                400, "send exactly one of 'graph' (open/reset the stream) "
                     "or 'delta' (update it)")
        rescore = request.get("rescore", True)
        if not isinstance(rescore, bool):
            raise ServiceError(400, "'rescore' must be a boolean")

        with self._admit("/update"):
            check_deadline("update")
            return self._update_admitted(request, stream, graph_payload,
                                         delta_payload, rescore)

    def _update_admitted(self, request: Dict[str, object], stream: str,
                         graph_payload, delta_payload,
                         rescore: bool) -> Dict[str, object]:
        if graph_payload is not None:
            model = request.get("model")
            if not model or not isinstance(model, str):
                raise ServiceError(400, "opening a stream requires 'model'")
            version = request.get("version")
            if version is not None:
                version = str(version)
            options = {}
            for knob in ("incremental", "fingerprints"):
                value = request.get(knob)
                if value is not None:
                    if not isinstance(value, str):
                        raise ServiceError(400, f"'{knob}' must be a string")
                    options[knob] = value
            cutoff = request.get("incremental_cutoff")
            if cutoff is not None:
                try:
                    options["incremental_cutoff"] = float(cutoff)
                except (TypeError, ValueError) as error:
                    raise ServiceError(
                        400, f"bad incremental_cutoff: {error}") from error
            try:
                graph = graph_from_payload(graph_payload)
            except ValueError as error:
                raise ServiceError(400, f"bad graph payload: {error}") from error
            engine = self.engine_for(model, version)
            if self._wal is not None:
                options["wal"] = self._wal.stream(stream)
            try:
                # warming under rescore both serves the opening score from
                # the cache and primes the incremental activation cache, so
                # the very first delta can already rescore incrementally
                scorer = StreamingScorer(engine, graph, warm=bool(rescore),
                                         **options)
            except ValueError as error:
                raise ServiceError(400, str(error)) from error
            with self._lock:
                self._streams[stream] = (scorer, model,
                                         engine.model_version or version or "")
            payload: Dict[str, object] = {"stream": stream, "opened": True,
                                          "model": model,
                                          "model_version": engine.model_version}
            payload.update(scorer.describe())
            if rescore:
                try:
                    result = scorer.score(regions=request.get("regions"),
                                          top_percent=request.get("top_percent"))
                except (ValueError, TypeError) as error:
                    raise ServiceError(400, str(error)) from error
                payload["score"] = result.to_dict()
            payload["cache"] = engine.cache_stats.to_dict()
            self.requests_served += 1
            return payload

        with self._lock:
            entry = self._streams.get(stream)
        if entry is None:
            raise ServiceError(404, f"unknown stream {stream!r}; open it "
                                    "first by sending a full 'graph'")
        scorer, model, version = entry
        try:
            delta = delta_from_payload(delta_payload)
        except ValueError as error:
            raise ServiceError(400, f"bad delta payload: {error}") from error
        try:
            # mask the deadline past this point: aborting a half-applied
            # delta for a missed deadline would cost exactly-once
            # semantics far more than the late answer costs capacity
            with deadline_scope(None):
                update = scorer.update(delta, rescore=rescore,
                                       regions=request.get("regions"),
                                       top_percent=request.get("top_percent"))
        except (ValueError, TypeError) as error:
            raise ServiceError(400, str(error)) from error
        payload = {"stream": stream, "opened": False, "model": model,
                   "model_version": version}
        payload.update(update.to_dict())
        payload["stats"] = scorer.stats.to_dict()
        payload["cache"] = scorer.engine.cache_stats.to_dict()
        self.requests_served += 1
        return payload


class _ServiceRolloutBackend:
    """Adapts a :class:`ScoringService`'s own streams to the stream-swap
    protocol a :class:`~repro.serve.rollout.RolloutController` drives
    (``swap_stream``/``score_stream`` + graph/key accessors)."""

    def __init__(self, service: ScoringService) -> None:
        self._service = service

    def swap_stream(self, name, version=None, model=None,
                    engine=None) -> Dict[str, object]:
        # engine factories are ignored: the service resolves versions
        # through its own registry-backed engine cache
        return self._service.swap({"stream": name, "model": model,
                                   "version": version})

    def score_stream(self, name, regions=None,
                     top_percent=None) -> Dict[str, object]:
        return self._service.score({"stream": name, "regions": regions,
                                    "top_percent": top_percent})

    def stream_graph(self, name):
        return self._service._stream_entry(name)[0].graph

    def stream_fingerprint(self, name) -> str:
        return self._service._stream_entry(name)[0].fingerprint

    def stream_key(self, name) -> str:
        return self._service._stream_entry(name)[0].fingerprint


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the :class:`ScoringService` endpoints."""

    server_version = "repro-serve/1"
    #: HTTP/1.1 so keep-alive is the default and the pooled
    #: :class:`~repro.serve.client.ScoringClient` transport can reuse
    #: connections; every response carries an explicit Content-Length
    #: (see ``_send_body``), which HTTP/1.1 persistent connections require
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: ``_send_body`` writes the
    #: headers and the body as separate sends, and with Nagle's algorithm on
    #: the body would wait for the client's delayed ACK (~40 ms a response)
    disable_nagle_algorithm = True
    #: set by ScoringServer when quiet (the default for tests / in-process use)
    quiet = True

    @property
    def service(self) -> ScoringService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, object],
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, "application/json", body,
                        extra_headers=extra_headers)

    def _send_body(self, status: int, content_type: str, body: bytes,
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        # observe BEFORE the body goes out: once the client has the
        # response, a /metrics scrape it issues next must already include
        # this request (observing in a finally-block after the write loses
        # that happens-before edge)
        self._observe_once(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for header, value in (extra_headers or {}).items():
            self.send_header(header, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status": status})

    def _send_shed(self, error: ShedError) -> None:
        """A shed request: 503 (overload, with Retry-After) or 504
        (deadline already passed — retrying immediately cannot help)."""
        status = 504 if isinstance(error, DeadlineExceeded) else 503
        headers = None
        if status == 503:
            headers = {"Retry-After": f"{max(0.0, error.retry_after_s):.3f}"}
        self._send_json(status, {"error": str(error), "status": status,
                                 "shed": True, "reason": error.reason},
                        extra_headers=headers)

    # ------------------------------------------------------------------
    def _observe_once(self, status: int) -> None:
        """Record the in-flight request (first response wins)."""
        if getattr(self, "_observed", True):
            return
        self._observed = True
        try:
            self.service.observe_http(
                self._request_endpoint, self._request_method, status,
                time.perf_counter() - self._request_start)
        except Exception:  # pragma: no cover - metrics must not 500
            pass

    def _handle(self, method: str, run) -> None:
        """Run one endpoint handler with error mapping + instrumentation.

        Every request — including 404s on unknown paths and defensive
        500s — lands in the endpoint counters and latency histogram; the
        endpoint label is normalised by :func:`endpoint_label` so the
        metric cardinality stays bounded.
        """
        path = urllib.parse.urlsplit(self.path).path
        self._request_endpoint = endpoint_label(path, method)
        self._request_method = method
        self._request_start = time.perf_counter()
        self._observed = False
        # deadline propagation: a client-sent budget header becomes this
        # request thread's active deadline, so admission and the compute
        # layers below can shed work nobody is waiting for anymore
        deadline = None
        budget_ms = self.headers.get(DEADLINE_HEADER)
        if budget_ms is not None:
            try:
                deadline = Deadline.after_ms(float(budget_ms))
            except (TypeError, ValueError):
                deadline = None  # malformed header: serve without one
        try:
            try:
                with deadline_scope(deadline):
                    run()
            except ServiceError as error:
                self._send_error_json(error.status, str(error))
            except ShedError as error:
                self._send_shed(error)
            except Exception as error:  # pragma: no cover - defensive
                self._send_error_json(500, f"internal error: {error}")
        finally:
            # a handler that crashed before sending anything still counts
            self._observe_once(500)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        self._handle("GET", self._run_get)

    def _run_get(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
        elif path == "/models":
            self._send_json(200, self.service.models())
        elif path.startswith("/models/"):
            name = urllib.parse.unquote(path[len("/models/"):])
            query = urllib.parse.parse_qs(parsed.query)
            version = (query.get("version") or [None])[0]
            self._send_json(200, self.service.model_info(name, version))
        elif path == "/streams":
            self._send_json(200, self.service.streams())
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/rollout":
            self._send_json(200, self.service.rollout_status())
        elif path == "/metrics":
            self._send_body(200, METRICS_CONTENT_TYPE,
                            self.service.metrics_text().encode("utf-8"))
        else:
            self._send_error_json(404, f"unknown endpoint {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming convention
        self._handle("POST", self._run_post)

    def _run_post(self) -> None:
        handlers = {"/score": self.service.score,
                    "/update": self.service.update,
                    "/evict": self.service.evict,
                    "/swap": self.service.swap,
                    "/rollout": self.service.rollout}
        handler = handlers.get(self.path)
        if handler is None:
            raise ServiceError(404, f"unknown endpoint {self.path!r}")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as error:
            raise ServiceError(400, "bad Content-Length header") from error
        if length <= 0:
            raise ServiceError(400, "missing request body")
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        raw = self.rfile.read(length)
        try:
            request = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, f"invalid JSON body: {error}") from error
        self._send_json(200, handler(request))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)


class ScoringServer:
    """Own a :class:`ScoringService` plus its threaded HTTP front-end.

    ``port=0`` binds an ephemeral port (the default, test- and
    multi-instance-friendly); the bound address is available as
    :attr:`url` once constructed.  Use :meth:`start` for a background
    thread (in-process serving, tests) or :meth:`serve_forever` to block
    (the CLI ``repro-uv serve`` path).
    """

    def __init__(self, registry: Union[ModelRegistry, str],
                 host: str = "127.0.0.1", port: int = 0,
                 cache_size: int = 32, max_workers: int = 4, quiet: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 wal_dir=None,
                 admission: Optional[AdmissionConfig] = None,
                 degraded: bool = False,
                 degraded_max_version_lag: int = 8) -> None:
        self.service = ScoringService(
            registry, cache_size=cache_size,
            max_workers=max_workers, metrics=metrics, wal_dir=wal_dir,
            admission=admission, degraded=degraded,
            degraded_max_version_lag=degraded_max_version_lag)
        handler = type("Handler", (_Handler,), {"quiet": quiet})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        #: whether a serve loop ever ran; ``shutdown()`` waits for an event
        #: only the serve loop sets, so without one it would block forever
        self._served = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "ScoringServer":
        """Serve in a daemon background thread and return immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name="repro-serve", daemon=True)
        self._served = True
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._served = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut the server down and release the socket (also when it never
        served)."""
        if self._served:
            self._httpd.shutdown()
        self._httpd.server_close()
        self.service.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ScoringServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
