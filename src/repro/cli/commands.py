"""Implementations of the ``repro-uv`` sub-commands.

Each handler takes the parsed ``argparse`` namespace, prints human-readable
output and returns an exit code (``None`` means success).  Handlers are thin:
all real work happens in the library packages so the CLI stays a veneer.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from ..baselines import available_methods, make_detector
from ..core.cmsf import CMSFDetector
from ..core.config import CMSFConfig
from ..data import (DatasetRegistry, export_predictions_csv, load_city_dir,
                    load_graph_npz, regions_to_geojson, save_city_dir,
                    save_geojson, save_graph_npz)
from ..eval import block_kfold, compare_methods, rank_regions
from ..eval.reporting import TABLE2_HEADERS, format_table, table2_rows
from ..experiments import (run_fig5a, run_fig5b, run_fig6a, run_fig6b, run_fig6c,
                           run_fig7, run_table1, run_table2, run_table3)
from ..analysis import score_drift_report
from ..bench import (LOAD_SCHEMA_VERSION, ExperimentConfig, LoadConfig,
                     WorkloadConfig, derive_cities, format_experiment_table,
                     format_load_report, generate_workload,
                     load_matches_serial_oracle, load_trace,
                     replay_rollout_trace, replay_trace, replays_identical,
                     resume_point, resumed_tail_identical,
                     rollout_replays_identical, run_experiment, run_load,
                     save_trace, summarize_metrics, with_rollout)
from ..durable import DurabilityLog
from ..obs import MetricsRegistry, parse_prometheus_text
from ..nn.graphops import plan_cache_info
from ..serve import (AdmissionConfig, BreakerConfig, ChaosShard, EngineShard,
                     FleetRouter, InferenceEngine, ModelRegistry,
                     RemoteShard, ResilienceConfig, RolloutController,
                     RolloutPolicy, ScoringClient, ScoringServer,
                     read_manifest, save_bundle, stages_for_fraction)
from ..stream import StreamingScorer
from ..synth import (EvolutionConfig, generate_city, generate_evolution,
                     get_preset)
from ..synth.city import SyntheticCity
from ..urg import UrgBuildConfig, build_urg, build_urg_variant
from ..urg.graph import UrbanRegionGraph
from ..urg.image_features import ImageFeatureConfig
from ..viz import comparison_markdown, render_detection_map, render_label_map, render_land_use_map


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _load_or_generate_city(args: argparse.Namespace) -> SyntheticCity:
    if getattr(args, "city_dir", None):
        return load_city_dir(args.city_dir)
    config = get_preset(args.preset)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return generate_city(config)


def _load_or_build_graph(args: argparse.Namespace) -> UrbanRegionGraph:
    if getattr(args, "graph", None):
        return load_graph_npz(args.graph)
    city = _load_or_generate_city(args)
    return build_urg(city)


def _detector_factory(method: str, epochs: Optional[int],
                      dtype: Optional[str] = None):
    def make(seed: int):
        if method.upper().startswith("CMSF"):
            config = CMSFConfig()
            if epochs is not None:
                config = config.with_overrides(master_epochs=epochs,
                                               slave_epochs=max(epochs // 4, 5))
            if dtype is not None:
                config = config.with_overrides(dtype=dtype)
            return make_detector(method, seed=seed, cmsf_config=config)
        if dtype is not None and dtype != "float64":
            raise ValueError("--dtype is only supported for CMSF variants; "
                             f"{method!r} always trains in float64")
        return make_detector(method, seed=seed, epochs=epochs)
    return make


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_generate_city(args: argparse.Namespace) -> int:
    city = _load_or_generate_city(args)
    directory = save_city_dir(city, args.output)
    summary = city.summary()
    print(f"wrote city '{city.name}' to {directory}")
    print("  regions: %(regions)d, POIs: %(pois)d, road intersections: "
          "%(road_intersections)d" % summary)
    print("  true UV regions: %(true_uv_regions)d, labelled UV: %(labeled_uv)d, "
          "labelled non-UV: %(labeled_non_uv)d" % summary)
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    city = _load_or_generate_city(args)
    image = ImageFeatureConfig(reduce_dim=args.image_dim if args.image_dim > 0 else None)
    base = UrgBuildConfig(image=image, block_size=args.block_size)
    graph = build_urg_variant(city, args.ablation, base)
    path = save_graph_npz(graph, args.output)
    summary = graph.summary()
    print(f"wrote graph for '{graph.name}' ({args.ablation}) to {path}")
    print("  regions: %(regions)d, undirected edges: %(edges)d, labelled UV: %(uvs)d, "
          "labelled non-UV: %(non_uvs)d" % summary)
    print(f"  POI features: {graph.poi_dim}, image features: {graph.image_dim}")
    return 0


def cmd_show_city(args: argparse.Namespace) -> int:
    city = _load_or_generate_city(args)
    print(render_land_use_map(city))
    print()
    for key, value in city.summary().items():
        print(f"  {key}: {value}")
    if args.labels:
        graph = build_urg(city)
        print()
        print(render_label_map(graph))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    graph = _load_or_build_graph(args)
    detector = _detector_factory(args.method, args.epochs,
                                 getattr(args, "dtype", None))(args.seed)
    print(f"training {detector.name} on '{graph.name}' "
          f"({len(graph.labeled_indices())} labelled regions) ...")
    detector.fit(graph, graph.labeled_indices())
    scores = detector.predict_proba(graph)

    pool = np.arange(graph.num_nodes)
    detected = rank_regions(detector, graph, pool=pool, top_percent=args.top_percent)
    hits = int(graph.ground_truth[detected].sum())
    print(f"top {args.top_percent:g}% screening list: {detected.size} regions, "
          f"{hits} overlap ground-truth urban villages")
    print(render_detection_map(graph, detected))

    if args.predictions:
        path = export_predictions_csv(graph, scores, args.predictions)
        print(f"wrote ranked predictions to {path}")
    if args.geojson:
        path = save_geojson(regions_to_geojson(graph, scores=scores), args.geojson)
        print(f"wrote region GeoJSON to {path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_or_build_graph(args)
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    known = {name.upper() for name in available_methods()}
    for method in methods:
        if method.upper() not in known:
            raise KeyError(f"unknown method {method!r}; available: {available_methods()}")
    seeds = tuple(int(seed) for seed in args.seeds.split(","))
    factories = {method: _detector_factory(method, args.epochs) for method in methods}
    results = compare_methods(factories, graph, n_folds=args.folds, seeds=seeds,
                              verbose=True)
    if args.markdown:
        print(comparison_markdown({graph.name: results}, methods,
                                  title=f"Evaluation on {graph.name}"))
    else:
        rows = table2_rows(graph.name, results, methods)
        print(format_table(TABLE2_HEADERS, rows,
                           title=f"Evaluation on {graph.name} "
                                 f"({args.folds}-fold, seeds {seeds})"))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    cities = None
    if args.cities:
        cities = tuple(city.strip() for city in args.cities.split(",") if city.strip())
    runners = {
        "table1": lambda: run_table1(cities or ("shenzhen", "fuzhou", "beijing")),
        "table2": lambda: run_table2(cities) if cities else run_table2(),
        "table3": lambda: run_table3(cities) if cities else run_table3(),
        "fig5a": lambda: run_fig5a(cities) if cities else run_fig5a(),
        "fig5b": lambda: run_fig5b(cities) if cities else run_fig5b(),
        "fig6a": lambda: run_fig6a(cities[0]) if cities else run_fig6a(),
        "fig6b": lambda: run_fig6b(cities[0]) if cities else run_fig6b(),
        "fig6c": lambda: run_fig6c(cities[0]) if cities else run_fig6c(),
        "fig7": lambda: run_fig7(cities) if cities else run_fig7(),
    }
    runners[args.experiment]()
    return 0


def cmd_package(args: argparse.Namespace) -> int:
    # args.seed None keeps the preset's own city seed (unlike `train`, the
    # packaged artifact should default to the canonical city)
    graph = _load_or_build_graph(args)
    detector = _detector_factory(args.method, args.epochs,
                                 getattr(args, "dtype", None))(
        args.seed if args.seed is not None else 0)
    if not isinstance(detector, CMSFDetector):
        raise ValueError(f"only CMSF variants can be packaged into model "
                         f"bundles, not {args.method!r}")
    print(f"training {detector.name} on '{graph.name}' "
          f"({len(graph.labeled_indices())} labelled regions) ...")
    detector.fit(graph, graph.labeled_indices())
    name = args.name or graph.name.lower()
    if args.model_registry:
        registry = ModelRegistry(args.model_registry)
        directory = registry.publish(detector, graph, name, version=args.version)
        registry.save_manifest()
    else:
        directory = save_bundle(detector, args.output, graph, name=name,
                                version=args.version or "1")
    manifest = read_manifest(directory)
    print(f"packaged {manifest.name}:{manifest.version} -> {directory}")
    print(f"  {manifest.describe()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    if not registry.models():
        raise ValueError(f"model registry at {args.registry} is empty; "
                         "publish a bundle first with 'repro-uv package'")
    admission = None
    if getattr(args, "max_concurrent", None) is not None:
        admission = AdmissionConfig(
            max_concurrency=args.max_concurrent,
            max_queue=getattr(args, "max_queue", 16),
            queue_timeout_s=getattr(args, "queue_timeout", 1.0))
    degraded = bool(getattr(args, "degraded", False))
    try:
        server = ScoringServer(
            registry, host=args.host, port=args.port,
            cache_size=args.cache_size, max_workers=args.workers,
            quiet=not args.verbose, wal_dir=args.wal_dir,
            admission=admission, degraded=degraded,
            degraded_max_version_lag=getattr(args, "max_staleness", 8))
    except OSError as error:
        raise ValueError(
            f"cannot bind {args.host}:{args.port}: {error}") from error
    print(f"serving {len(registry.models())} model(s) from {args.registry} "
          f"at {server.url}")
    if args.wal_dir:
        print(f"durability: write-ahead log at {args.wal_dir} "
              "(background checkpointer running)")
    if admission is not None or degraded:
        bits = []
        if admission is not None:
            bits.append(f"admission {admission.max_concurrency} concurrent"
                        f" + {admission.max_queue} queued per endpoint"
                        " (overflow sheds 503 + Retry-After)")
        if degraded:
            bits.append("degraded mode on (stale cached scores, "
                        f"max staleness {getattr(args, 'max_staleness', 8)})")
        print("overload protection: " + ", ".join(bits))
    print("endpoints: GET /healthz /models /models/<name> /streams /stats "
          "/metrics  POST /score /update /evict  (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    graph = _load_or_build_graph(args)
    client = ScoringClient(args.url)
    response = client.score(graph, args.model, version=args.version,
                            top_percent=args.top_percent,
                            threshold=args.threshold)
    scores = np.asarray(response["probabilities"], dtype=np.float64)
    print(f"scored '{graph.name}' ({graph.num_nodes} regions) with "
          f"{response.get('model', args.model)}:{response.get('version', '?')} "
          f"in {response['elapsed_ms']:.1f} ms "
          f"({'cache hit' if response['cache_hit'] else 'cold'})")
    cache = response.get("cache", {})
    if cache:
        print("  engine cache: %(hits)d hits / %(misses)d misses "
              "(hit rate %(hit_rate).2f)" % cache)
    if args.top_percent is not None:
        selected = response.get("selected") or []
        print(f"  top {args.top_percent:g}% shortlist: {len(selected)} regions")
    if args.threshold is not None:
        predictions = response.get("predictions") or []
        print(f"  regions over threshold {args.threshold:g}: {sum(predictions)}")
    if args.predictions:
        path = export_predictions_csv(graph, scores, args.predictions)
        print(f"wrote ranked predictions to {path}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Drive an evolving-city scenario and report the score drift.

    The graph evolves through a seeded delta sequence; each step is pushed
    incrementally (never re-uploading the whole graph) either to a remote
    scoring service (``--url``) or through an in-process engine loaded
    from a model registry (``--registry``).
    """
    graph = _load_or_build_graph(args)
    scenarios = tuple(name.strip() for name in args.scenarios.split(",")
                      if name.strip())
    overrides = {"scenarios": scenarios} if scenarios else {}
    config = EvolutionConfig(steps=args.steps, seed=args.evolution_seed,
                             **overrides)
    deltas = generate_evolution(graph, config)
    if not deltas:
        raise ValueError("the evolution produced no applicable deltas for "
                         f"'{graph.name}' (scenarios: {args.scenarios})")
    print(f"evolving '{graph.name}' ({graph.num_nodes} regions) through "
          f"{len(deltas)} deltas (seed {args.evolution_seed}): "
          + ", ".join(delta.kind for delta in deltas))

    trajectories = []
    kinds = [delta.kind for delta in deltas]
    topology = [delta.touches_topology for delta in deltas]
    plan_info = None
    if args.url:
        if args.wal_dir:
            raise ValueError(
                "--wal-dir only applies to in-process streams; the server "
                "owns durability when --url is used — start it with "
                "'repro-uv serve --wal-dir' instead")
        client = ScoringClient(args.url)
        stream = args.stream or f"{graph.name.lower()}-evolution"
        opened = client.open_stream(stream, graph, args.model,
                                    version=args.version,
                                    incremental=args.incremental)
        trajectories.append(np.asarray(opened["score"]["probabilities"]))
        reused = incremental = 0
        for delta in deltas:
            response = client.update_stream(stream, delta)
            trajectories.append(np.asarray(response["score"]["probabilities"]))
            reused += int(bool(response.get("plan_reused")))
            incremental += int(response.get("mode") == "incremental")
        stats = response.get("stats", {})
        print(f"stream '{stream}' now at version {response['version']} "
              f"({response['num_regions']} regions); plan reused on "
              f"{reused}/{len(deltas)} updates, incremental rescore on "
              f"{incremental}/{len(deltas)}")
        if args.stats:
            plan_info = client.stats().get("plan_cache", {})
    else:
        registry = ModelRegistry(args.registry)
        engine = InferenceEngine.from_bundle(registry.resolve(args.model,
                                                              args.version))
        wal = None
        if args.wal_dir:
            name = args.stream or f"{graph.name.lower()}-evolution"
            wal = DurabilityLog(args.wal_dir, fsync=args.fsync).stream(name)
            print(f"durability: appending deltas to {args.wal_dir} "
                  f"(stream '{name}', fsync={args.fsync})")
        # warm=True scores the initial version while also priming the
        # incremental activation cache, so the first delta is already fast
        scorer = StreamingScorer(engine, graph, warm=True,
                                 incremental=args.incremental, wal=wal)
        trajectories.append(scorer.predict_proba())
        for delta in deltas:
            update = scorer.update(delta)
            trajectories.append(update.probabilities)
        stats = scorer.stats.to_dict()
        print(f"scored {stats['updates']} updates in-process; plan reused "
              f"on {stats['plan_reuses']}, rebuilt on "
              f"{stats['plan_rebuilds']}; incremental rescore on "
              f"{stats['incremental_rescores']}/{stats['rescores']} scores")
        if args.stats:
            plan_info = plan_cache_info()
    if args.stats:
        print()
        print("plan cache: " + ", ".join(
            f"{key}={value}" for key, value in sorted((plan_info or {}).items())))
        print("stream counters: " + ", ".join(
            f"{key}={value}" for key, value in sorted(stats.items())))

    report = score_drift_report(trajectories, kinds=kinds, topology=topology,
                                threshold=args.threshold)
    print()
    print(report.format())
    if args.json:
        payload = report.to_dict()
        payload["city"] = graph.name
        payload["stats"] = stats
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote drift report to {args.json}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """Generate and record a deterministic workload trace."""
    graph = _load_or_build_graph(args)
    cities = derive_cities(graph, args.cities, seed=args.workload_seed)
    scenarios = tuple(name.strip() for name in args.scenarios.split(",")
                      if name.strip())
    overrides = {"scenarios": scenarios} if scenarios else {}
    config = WorkloadConfig(ops=args.ops, seed=args.workload_seed,
                            score_weight=args.score_weight,
                            update_weight=args.update_weight,
                            evict_weight=args.evict_weight, **overrides)
    trace = generate_workload(cities, config)
    path = save_trace(trace, args.output)
    summary = trace.summary()
    print(f"recorded trace '{trace.name}' to {path}")
    print("  cities: %(cities)d, ops: %(ops)d "
          "(score %(score)d / update %(update)d / evict %(evict)d)" % summary)
    for name, city in cities.items():
        print(f"  {name}: {city.num_nodes} regions, "
              f"routing key {city.structural_fingerprint()[:12]}")
    return 0


def _format_resilience_line(status: dict) -> str:
    """One greppable line summarising a fleet's resilience state."""
    parts = [f"{shard_id}:{entry['state']}(trips={entry['trips']})"
             for shard_id, entry in sorted(status["breakers"].items())]
    budget = status["retry_budget"]
    line = ("resilience: breakers [" + ", ".join(parts) + "], "
            f"retry budget {budget['balance']:.1f}/"
            f"{budget['capacity']:.0f} (denied={budget['retries_denied']})")
    if "admission" in status:
        admission = status["admission"]
        line += (f", admission shed={admission['shed_total']}"
                 f"/{admission['attempts']} attempts")
    if "stale_cache" in status:
        cache = status["stale_cache"]
        line += f", degraded served={cache['served']}"
    return line


def _resilience_from_args(
        args: argparse.Namespace) -> Optional[ResilienceConfig]:
    """Build a :class:`ResilienceConfig` from CLI flags, or None.

    Returns None when no resilience-related flag was given, keeping the
    router on its defaults (breakers + retry budget only).  A
    ``--chaos slow-shard`` run tunes the breaker's explicit latency
    threshold to half the injected delay so the gray failure reliably
    trips it.
    """
    max_concurrent = getattr(args, "max_concurrent", None)
    degraded = bool(getattr(args, "degraded", False))
    chaos = getattr(args, "chaos", None)
    if max_concurrent is None and not degraded and chaos is None:
        return None
    admission = None
    if max_concurrent is not None:
        admission = AdmissionConfig(
            max_concurrency=max_concurrent,
            max_queue=getattr(args, "max_queue", 16),
            queue_timeout_s=getattr(args, "queue_timeout", 1.0))
    breaker = BreakerConfig()
    if chaos == "slow-shard":
        threshold = max(0.001,
                        getattr(args, "chaos_latency_ms", 80.0) / 2000.0)
        breaker = BreakerConfig(latency_threshold_s=threshold,
                                latency_violations=3,
                                backoff_initial_s=0.1, backoff_max_s=2.0)
    elif chaos is not None:
        breaker = BreakerConfig(backoff_initial_s=0.1, backoff_max_s=2.0)
    return ResilienceConfig(breaker=breaker, admission=admission,
                            degraded=degraded, probe_interval_s=0.1)


def _build_fleet(args: argparse.Namespace, registry: ModelRegistry,
                 metrics: Optional[MetricsRegistry] = None,
                 wal: Optional[DurabilityLog] = None,
                 shards_override: Optional[int] = None,
                 replication_override: Optional[int] = None) -> FleetRouter:
    urls = [url.strip() for url in (getattr(args, "urls", None) or "").split(",")
            if url.strip()]
    timeout = getattr(args, "timeout", None)
    num_shards = shards_override if shards_override is not None else args.shards
    replication = (replication_override if replication_override is not None
                   else args.replication)
    chaos_mode = getattr(args, "chaos", None)
    chaos_index = (getattr(args, "chaos_shard", 0) % num_shards
                   if chaos_mode is not None else None)
    shards = []
    for i in range(num_shards):
        if urls:
            shard = RemoteShard(urls[i % len(urls)], args.model,
                                version=args.version, shard_id=f"shard-{i}",
                                timeout=timeout if timeout else 30.0)
        else:
            engine = InferenceEngine.from_bundle(
                registry.resolve(args.model, args.version),
                cache_size=args.cache_size, metrics=metrics)
            shard = EngineShard(engine, shard_id=f"shard-{i}")
        if getattr(args, "kill_shard", None) is not None \
                and args.kill_shard == i:
            shard = ChaosShard(shard, fail_after=args.kill_after)
        elif chaos_index == i:
            chaos = ChaosShard(shard, seed=getattr(args, "workload_seed", 0))
            if chaos_mode == "slow-shard":
                chaos.set_latency(getattr(args, "chaos_latency_ms", 80.0)
                                  / 1000.0)
            elif chaos_mode == "flaky":
                chaos.set_flaky(getattr(args, "chaos_flaky_rate", 0.2))
            elif chaos_mode == "kill":
                chaos.fail_after = getattr(args, "kill_after", 5)
            shard = chaos
        shards.append(shard)
    return FleetRouter(shards, replication=replication, metrics=metrics,
                       wal=wal, request_timeout=timeout,
                       resilience=_resilience_from_args(args))


def cmd_fleet(args: argparse.Namespace) -> int:
    """Replay a workload trace against a sharded fleet and report stats."""
    if args.kill_shard is not None:
        if args.replication < 2:
            raise ValueError("--kill-shard needs --replication >= 2, "
                             "otherwise the killed shard has no failover "
                             "replica")
        if not 0 <= args.kill_shard < args.shards:
            raise ValueError(f"--kill-shard {args.kill_shard} is out of "
                             f"range for {args.shards} shard(s)")
    if args.restore:
        if not args.wal_dir:
            raise ValueError("--restore needs --wal-dir: recovery replays "
                             "the write-ahead log recorded by a previous "
                             "'repro-uv fleet --wal-dir' run")
        if not args.trace:
            raise ValueError("--restore needs --trace: the original trace "
                             "file locates the resume point and supplies "
                             "the remaining ops")
    registry = ModelRegistry(args.registry)
    if args.trace:
        trace = load_trace(args.trace)
    else:
        graph = _load_or_build_graph(args)
        cities = derive_cities(graph, max(2, min(args.shards, 3)),
                               seed=args.workload_seed)
        trace = generate_workload(cities, WorkloadConfig(
            ops=args.ops, seed=args.workload_seed))
    summary = trace.summary()
    print(f"replaying trace '{trace.name}': %(cities)d cities, %(ops)d ops "
          "(score %(score)d / update %(update)d / evict %(evict)d) "
          % summary + f"against {args.shards} shard(s), "
          f"replication {args.replication}")

    # a fresh registry so the scrape below shows this replay's traffic
    # only, not whatever else the process has served
    obs = MetricsRegistry()
    wal = None
    if args.wal_dir:
        wal = DurabilityLog(args.wal_dir, fsync=args.fsync, metrics=obs)
        print(f"durability: write-ahead log at {args.wal_dir} "
              f"(fsync={args.fsync})")
    fleet = _build_fleet(args, registry, metrics=obs, wal=wal)
    # per-open option rather than a shard default, so the incremental
    # policy reaches remote shards (server-side streams) as well as
    # in-process ones — and the oracle replays under the same policy
    open_options = {"incremental": args.incremental}
    start = 0
    if args.restore:
        report = fleet.restore()
        for name, entry in sorted(report.items()):
            line = (f"  restored '{name}' on {entry['shard']}: "
                    f"version {entry['version']} (snapshot seq "
                    f"{entry['snapshot_seq']}, replayed "
                    f"{entry['records_replayed']} record(s), "
                    f"{entry['recovery_seconds'] * 1000:.1f} ms)")
            if entry["truncated_tail"]:
                line += " [torn tail truncated]"
            print(line)
        versions = {name: entry["version"] for name, entry in report.items()}
        start = resume_point(trace, versions)
        print(f"resuming trace '{trace.name}' at op {start}/{len(trace)}")
        result = replay_trace(trace, fleet, open_options=open_options,
                              collect_stats=False, start_at=start,
                              open_cities=False)
    else:
        # fleet.stats() runs below anyway — don't aggregate (and, with
        # remote shards, round-trip /stats) twice
        result = replay_trace(trace, fleet, open_options=open_options,
                              collect_stats=False)
    print(f"completed {result.completed_ops}/{len(trace) - start} ops in "
          f"{result.elapsed_s:.2f}s ({result.ops_per_second:.1f} ops/s)")
    metrics_summary = summarize_metrics(parse_prometheus_text(obs.render()))
    latency = metrics_summary["fleet"]["latency"]
    if latency["count"]:
        print("latency: " + ", ".join(
            f"{key.replace('_ms', '')}={latency[key]:.2f}ms"
            for key in ("p50_ms", "p95_ms", "p99_ms")
            if latency[key] is not None))
    stats = fleet.stats()
    fleet_counters = stats["fleet"]
    totals = stats["totals"]
    print("fleet: " + ", ".join(
        f"{key}={fleet_counters[key]}"
        for key in ("requests", "failovers", "shard_failures",
                    "reopened_streams", "no_replica_errors")))
    print(_format_resilience_line(fleet.resilience_status()))
    print("totals: cache hits=%(hits)d misses=%(misses)d "
          "(hit rate %(hit_rate).2f)" % totals["cache"]
          + f", cold_computes={totals['cold_computes']}"
          + f", stampedes_avoided={totals['stampedes_avoided']}")
    counters = totals["stream_counters"]
    if counters:
        print("streams: " + ", ".join(
            f"{key}={value}" for key, value in sorted(counters.items())))
    for entry in stats["shards"]:
        cache = (entry.get("engine") or {}).get("cache", {})
        print(f"  shard {entry['shard']}: "
              f"{'healthy' if entry['healthy'] else 'DOWN'}, "
              f"{len(entry.get('streams', []))} stream(s), "
              f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses")

    exit_code = 0
    if args.restore:
        # replay the whole trace uninterrupted on a single engine and
        # compare the resumed tail against its tail — recovery must be
        # invisible in the float64 score trajectory
        oracle = EngineShard(
            InferenceEngine.from_bundle(
                registry.resolve(args.model, args.version)),
            shard_id="oracle")
        oracle_result = replay_trace(trace, oracle, collect_stats=False,
                                     open_options=open_options)
        identical, max_diff = resumed_tail_identical(oracle_result, result,
                                                     start)
        print(f"resumed tail vs uninterrupted single-engine oracle: "
              f"bit_identical={identical} max_diff={max_diff:.3e}")
        if not identical:
            exit_code = 1
    elif args.verify_single:
        oracle = EngineShard(
            InferenceEngine.from_bundle(
                registry.resolve(args.model, args.version)),
            shard_id="oracle")
        oracle_result = replay_trace(trace, oracle, collect_stats=False,
                                     open_options=open_options)
        identical, max_diff = replays_identical(oracle_result, result)
        print(f"scores bit-identical to single-engine oracle: "
              f"{'yes' if identical else 'NO'} (max |diff| {max_diff:.3e})")
        if not identical:
            exit_code = 1
    if args.json:
        payload = {"trace": summary, "replay": result.summary(),
                   "stats": stats, "metrics": metrics_summary}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"wrote fleet report to {args.json}")
    return exit_code


def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop concurrent load runs across fleet sizes, with scaling."""
    registry = ModelRegistry(args.registry)
    if args.trace:
        trace = load_trace(args.trace)
    else:
        graph = _load_or_build_graph(args)
        cities = derive_cities(graph, args.cities, seed=args.workload_seed)
        trace = generate_workload(cities, WorkloadConfig(
            ops=args.ops, seed=args.workload_seed,
            score_weight=args.score_weight,
            update_weight=args.update_weight,
            evict_weight=args.evict_weight))
    sizes = [int(size) for size in args.shards.split(",") if size.strip()]
    if not sizes:
        raise ValueError("--shards needs at least one fleet size")
    summary = trace.summary()
    mode = (f"open-loop {args.arrival_rate:g} ops/s" if args.arrival_rate
            else "closed-loop saturation")
    if getattr(args, "deadline_ms", None):
        mode += f", {args.deadline_ms:g}ms deadline/op"
    if getattr(args, "chaos", None):
        mode += f", chaos={args.chaos} on shard {args.chaos_shard}"
    print(f"loading trace '{trace.name}': %(cities)d cities, %(ops)d ops "
          "(score %(score)d / update %(update)d / evict %(evict)d) " % summary
          + f"with {args.workers} workers, {mode}, "
          f"warm-up {args.warmup} op(s)/worker")

    config = LoadConfig(workers=args.workers,
                        arrival_rate=args.arrival_rate or None,
                        warmup_ops=args.warmup,
                        deadline_ms=getattr(args, "deadline_ms", None),
                        open_options={"incremental": args.incremental})
    oracle = None
    if args.verify_single:
        oracle_shard = EngineShard(
            InferenceEngine.from_bundle(
                registry.resolve(args.model, args.version)),
            shard_id="oracle")
        # digest mode: bit-identity without retaining O(ops x N) arrays
        oracle = replay_trace(trace, oracle_shard, collect_stats=False,
                              keep_scores=False,
                              open_options=dict(config.open_options))
        oracle_shard.close()

    exit_code = 0
    runs = []
    for size in sizes:
        replication = max(1, min(args.replication, size))
        obs = MetricsRegistry()
        fleet = _build_fleet(args, registry, metrics=obs,
                             shards_override=size,
                             replication_override=replication)
        result = run_load(trace, fleet, config, metrics=obs)
        run_summary = result.summary()
        run_summary["shards"] = size
        run_summary["replication"] = replication
        print()
        print(f"--- {size} shard(s), replication {replication} ---")
        print(format_load_report(run_summary))
        if getattr(args, "chaos", None) is not None:
            victim = f"shard-{args.chaos_shard % size}"
            chaos = fleet.backend(victim)
            transitions = fleet.breaker_transitions(victim)
            print(f"chaos[{args.chaos}] on {victim}: "
                  f"slow_calls={chaos.slow_calls} "
                  f"failed_calls={chaos.failed_calls} "
                  f"breaker_transitions={transitions}")
            # end-of-run recovery: clear the fault and give the
            # background prober a bounded window to close the breaker
            chaos.clear_chaos()
            give_up = time.monotonic() + 5.0
            while time.monotonic() < give_up and fleet.down_shards():
                time.sleep(0.05)
            down = fleet.down_shards()
            print("chaos cleared: "
                  + ("all breakers closed (auto-revived)" if not down
                     else f"breakers still open: {down}"))
        status = fleet.resilience_status()
        print(_format_resilience_line(status))
        run_summary["resilience"] = status
        fleet.close()
        if oracle is not None:
            identical, mismatches = load_matches_serial_oracle(
                trace, result, oracle)
            run_summary["bit_identical_to_oracle"] = identical
            print(f"digests bit-identical to serial 1-shard oracle: "
                  f"{'yes' if identical else 'NO'}")
            if not identical:
                for line in mismatches[:5]:
                    print(f"  {line}")
                exit_code = 1
        runs.append(run_summary)

    scaling = None
    if len(runs) > 1:
        base, top = runs[0], runs[-1]
        base_tp = base["throughput"]["score_ops_per_s"]
        top_tp = top["throughput"]["score_ops_per_s"]
        ratio = round(top_tp / base_tp, 3) if base_tp else None
        scaling = {"baseline_shards": base["shards"],
                   "top_shards": top["shards"],
                   "score_throughput_ratio": ratio}
        print()
        if ratio is not None:
            # grep target of the CI smoke job — keep the shape stable
            print(f"scaling: score throughput x{ratio:.2f} at "
                  f"{top['shards']} shard(s) vs {base['shards']}")
        if args.min_scaling is not None:
            if ratio is None or ratio < args.min_scaling:
                print(f"FAILED scaling gate: x{ratio} < "
                      f"required x{args.min_scaling}")
                exit_code = 1
    if args.json:
        payload = {"schema_version": LOAD_SCHEMA_VERSION,
                   "trace": summary, "runs": runs, "scaling": scaling}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote load report to {args.json}")
    return exit_code


def cmd_rollout(args: argparse.Namespace) -> int:
    """Staged canary rollout of a new bundle version over a live fleet."""
    registry = ModelRegistry(args.registry)
    # resolve both versions up front: a typo'd --new-version must fail
    # before any stream opens, not halfway up the stage ladder
    baseline_version = read_manifest(
        registry.resolve(args.model, args.version)).version
    registry.resolve(args.model, args.new_version)
    if str(args.new_version) == str(baseline_version):
        raise ValueError(f"--new-version {args.new_version} is already the "
                         f"serving baseline — nothing to roll out")

    if args.trace:
        trace = load_trace(args.trace)
    else:
        graph = _load_or_build_graph(args)
        cities = derive_cities(graph, args.cities, seed=args.workload_seed)
        trace = generate_workload(cities, WorkloadConfig(
            ops=args.ops, seed=args.workload_seed))
    if not any(op.op == "rollout" for op in trace.ops):
        trace = with_rollout(trace, args.rollout_at)

    policy = RolloutPolicy(
        max_mean_abs_change=args.max_mean_abs_change,
        min_rank_correlation=args.min_rank_correlation,
        max_crossing_fraction=args.max_crossing_fraction,
        min_pairs=args.min_pairs)
    stages = stages_for_fraction(args.canary_fraction)

    def run_once(obs: MetricsRegistry):
        fleet = _build_fleet(args, registry, metrics=obs)

        def resolve(model, version):
            return InferenceEngine.from_bundle(
                registry.resolve(model, version),
                cache_size=args.cache_size, metrics=obs)

        controller = RolloutController(
            fleet, args.model, str(args.new_version),
            resolve_engine=resolve, policy=policy, stages=stages,
            seed=args.rollout_seed, auto=args.auto_promote,
            threshold=args.threshold, metrics=obs)
        result = replay_rollout_trace(
            trace, controller, collect_stats=False,
            open_options={"incremental": args.incremental})
        return fleet, controller, result

    summary = trace.summary()
    ladder = " -> ".join(f"{stage * 100:g}%" for stage in stages)
    print(f"rolling out '{args.model}:{args.new_version}' over baseline "
          f"'{args.model}:{baseline_version}': {args.shards} shard(s), "
          f"replication {args.replication}, stages {ladder}, canary seed "
          f"{args.rollout_seed}, "
          f"{'auto' if args.auto_promote else 'manual'} promotion")
    print(f"replaying trace '{trace.name}': %(cities)d cities, %(ops)d ops "
          "(score %(score)d / update %(update)d / evict %(evict)d, rollout "
          "at op %(rollout_at)d)"
          % {**summary, "rollout_at": trace.meta.get("rollout_at", 0)})

    obs = MetricsRegistry()
    fleet, controller, result = run_once(obs)
    if not args.auto_promote and controller.machine.state == "canary":
        decision = controller.evaluate(act=True)
        print(f"post-replay policy decision: {decision.action} "
              f"({'; '.join(decision.reasons)})")
    if args.abort and controller.machine.state == "canary":
        report = controller.abort()
        print(f"rollout aborted: restored "
              f"{len(report['restored_streams'])} stream(s) to "
              f"'{args.model}:{baseline_version}'")

    canary_requests = sum(1 for d in result.decisions if d["canary"])
    print(f"completed {result.completed_ops}/{len(trace)} ops in "
          f"{result.elapsed_s:.2f}s — {len(result.decisions)} score "
          f"request(s), {canary_requests} canary")
    for frm, to, stage in controller.machine.transitions:
        if to == "canary" and frm == "idle":
            print(f"rollout started: stage {stage} "
                  f"({stages[stage] * 100:g}% canary)")
        elif to == "canary" and frm == "canary":
            # grep target of the CI smoke job — keep the shape stable
            print(f"promoted to stage {stage} "
                  f"({stages[stage] * 100:g}% canary)")
        elif to == "promoted":
            print("promoted fleet-wide (100% canary held)")
        elif to == "rolled_back":
            print(f"rolled back: baseline '{args.model}:{baseline_version}' "
                  f"restored fleet-wide")
    status = controller.status()
    for index, stage_stats in enumerate(status["stage_history"]):
        print(f"  stage {index} drift: {stage_stats['pairs']} pair(s), "
              f"mean|Δp|={stage_stats['mean_abs_change']:.5f}, "
              f"worst rank-ρ={stage_stats['worst_rank_correlation']:.4f}, "
              f"crossing fraction={stage_stats['crossing_fraction']:.4f}")
    if status["last_decision"] is not None:
        last = status["last_decision"]
        print(f"last policy decision: {last['action']} "
              f"({'; '.join(last['reasons'])})")
    shadow_pairs = (sum(s["pairs"] for s in status["stage_history"])
                    + status["shadow"]["pairs"])
    # grep target of the CI smoke job — keep the shape stable
    print(f"rollout result: state={status['state']} "
          f"promoted={status['promoted']} "
          f"rolled_back={status['rolled_back']} "
          f"aborted={status['aborted']} "
          f"shadow_pairs={shadow_pairs} "
          f"swaps={len(status['swapped_streams'])} "
          f"rollbacks={status['rollbacks']}")
    fleet.close()

    exit_code = 0
    verify = None
    if args.verify_replay:
        obs2 = MetricsRegistry()
        fleet2, _, result2 = run_once(obs2)
        fleet2.close()
        identical, max_diff = rollout_replays_identical(result, result2)
        decisions_match = result.decisions == result2.decisions
        print(f"replay determinism: bit_identical={identical} "
              f"canary_decisions_identical={decisions_match} "
              f"(max |diff| {max_diff:.3e})")
        verify = {"bit_identical": identical,
                  "canary_decisions_identical": decisions_match,
                  "max_diff": max_diff}
        if not identical:
            exit_code = 1
    if args.json:
        payload = {"trace": summary, "stages": list(stages),
                   "baseline_version": str(baseline_version),
                   "new_version": str(args.new_version),
                   "policy": policy.to_dict(), "status": status,
                   "replay": result.summary(), "verify": verify}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"wrote rollout report to {args.json}")
    return exit_code


def cmd_experiment(args: argparse.Namespace) -> int:
    """Sweep fleet size x replication over workload traces and report."""
    registry = ModelRegistry(args.registry)
    bundle_dir = registry.resolve(args.model, args.version)
    if args.trace:
        traces = [load_trace(path.strip())
                  for path in args.trace.split(",") if path.strip()]
    else:
        graph = _load_or_build_graph(args)
        cities = derive_cities(graph, args.cities, seed=args.workload_seed)
        traces = [generate_workload(cities, WorkloadConfig(
            ops=args.ops, seed=args.workload_seed))]
    fleet_sizes = tuple(int(size) for size in args.fleet_sizes.split(",")
                        if size.strip())
    replications = tuple(int(repl) for repl in args.replications.split(",")
                         if repl.strip())
    config = ExperimentConfig(fleet_sizes=fleet_sizes,
                              replications=replications,
                              cache_size=args.cache_size,
                              incremental=args.incremental,
                              verify_identical=not args.no_verify)
    print(f"sweeping fleet sizes {sorted(set(fleet_sizes))} x replications "
          f"{sorted(set(replications))} over "
          f"{len(traces)} trace(s) with model '{args.model}'")
    report = run_experiment(bundle_dir, traces, config, model=args.model)
    print()
    print(format_experiment_table(report))

    exit_code = 0
    if config.verify_identical:
        diverged = [cell["cell"] for cell in report["cells"]
                    if not cell["bit_identical_to_baseline"]]
        if diverged:
            print(f"DIVERGED from per-trace baseline: {', '.join(diverged)}")
            exit_code = 1
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote experiment report to {args.output}")
    return exit_code


def cmd_registry(args: argparse.Namespace) -> int:
    registry = DatasetRegistry(args.root)
    if args.materialize:
        for preset in args.materialize.split(","):
            preset = preset.strip()
            if not preset:
                continue
            print(f"materialising {preset} ...")
            registry.materialize_graph(preset)
        registry.save_manifest()
    print(registry.describe())
    return 0
