"""Argument parsing and dispatch for the ``repro-uv`` command-line tool."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..durable import FSYNC_POLICIES, DurabilityError
from ..serve.client import ScoringServiceError
from ..serve.fleet import FleetError
from . import commands


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro-uv",
        description="Urban village detection with the contextual master-slave "
                    "framework (CMSF) on synthetic urban region graphs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ------------------------------------------------------------------
    # generate-city
    # ------------------------------------------------------------------
    generate = subparsers.add_parser(
        "generate-city", help="generate a synthetic city and save it to disk")
    generate.add_argument("--preset", default="mini", help="city preset name")
    generate.add_argument("--seed", type=int, default=None, help="override the preset seed")
    generate.add_argument("--output", required=True, help="output directory for the city")
    generate.set_defaults(handler=commands.cmd_generate_city)

    # ------------------------------------------------------------------
    # build-graph
    # ------------------------------------------------------------------
    build = subparsers.add_parser(
        "build-graph", help="build the urban region graph of a city")
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="generate the city from this preset")
    source.add_argument("--city-dir", help="load a previously saved city directory")
    build.add_argument("--seed", type=int, default=None, help="override the preset seed")
    build.add_argument("--ablation", default="full",
                       help="data ablation (full, noImage, noCate, noRad, noIndex, "
                            "noProx, noRoad)")
    build.add_argument("--image-dim", type=int, default=128,
                       help="PCA reduction of the image features (0 keeps raw)")
    build.add_argument("--block-size", type=int, default=5,
                       help="coarse block size for the splitting protocol")
    build.add_argument("--output", required=True, help="output .npz path for the graph")
    build.set_defaults(handler=commands.cmd_build_graph)

    # ------------------------------------------------------------------
    # show-city
    # ------------------------------------------------------------------
    show = subparsers.add_parser(
        "show-city", help="print ASCII maps and statistics of a city")
    show_source = show.add_mutually_exclusive_group(required=True)
    show_source.add_argument("--preset", help="generate the city from this preset")
    show_source.add_argument("--city-dir", help="load a previously saved city directory")
    show.add_argument("--seed", type=int, default=None)
    show.add_argument("--labels", action="store_true",
                      help="also print the label map of the built URG")
    show.set_defaults(handler=commands.cmd_show_city)

    # ------------------------------------------------------------------
    # train
    # ------------------------------------------------------------------
    train = subparsers.add_parser(
        "train", help="train a detector and export a ranked screening list")
    train_source = train.add_mutually_exclusive_group(required=True)
    train_source.add_argument("--preset", help="city preset to train on")
    train_source.add_argument("--graph", help="previously built graph (.npz)")
    train.add_argument("--method", default="CMSF", help="detector name (see evaluate)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--epochs", type=int, default=None, help="override training epochs")
    train.add_argument("--predictions", default=None,
                       help="write the ranked screening list to this CSV path")
    train.add_argument("--geojson", default=None,
                       help="write region polygons with scores to this GeoJSON path")
    train.add_argument("--top-percent", type=float, default=5.0,
                       help="screening budget used for the printed summary")
    train.add_argument("--dtype", choices=["float64", "float32"], default=None,
                       help="compute precision for CMSF variants: float64 "
                            "(default, bit-reproducible) or float32 (the "
                            "fast path, roughly half the memory traffic)")
    train.set_defaults(handler=commands.cmd_train)

    # ------------------------------------------------------------------
    # evaluate
    # ------------------------------------------------------------------
    evaluate = subparsers.add_parser(
        "evaluate", help="cross-validate detectors under the paper's protocol")
    evaluate_source = evaluate.add_mutually_exclusive_group(required=True)
    evaluate_source.add_argument("--preset", help="city preset to evaluate on")
    evaluate_source.add_argument("--graph", help="previously built graph (.npz)")
    evaluate.add_argument("--methods", default="MLP,CMSF",
                          help="comma-separated detector names")
    evaluate.add_argument("--folds", type=int, default=3)
    evaluate.add_argument("--seeds", default="0", help="comma-separated seeds")
    evaluate.add_argument("--epochs", type=int, default=None)
    evaluate.add_argument("--markdown", action="store_true",
                          help="print the comparison as a markdown table")
    evaluate.set_defaults(handler=commands.cmd_evaluate)

    # ------------------------------------------------------------------
    # reproduce
    # ------------------------------------------------------------------
    reproduce = subparsers.add_parser(
        "reproduce", help="regenerate one of the paper's tables or figures")
    reproduce.add_argument("experiment",
                           choices=["table1", "table2", "table3", "fig5a", "fig5b",
                                    "fig6a", "fig6b", "fig6c", "fig7"],
                           help="which table / figure to regenerate")
    reproduce.add_argument("--cities", default=None,
                           help="comma-separated subset of evaluation cities")
    reproduce.set_defaults(handler=commands.cmd_reproduce)

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    registry = subparsers.add_parser(
        "registry", help="inspect or populate the on-disk dataset registry")
    registry.add_argument("--root", required=True, help="registry root directory")
    registry.add_argument("--materialize", default=None,
                          help="comma-separated presets to materialise")
    registry.set_defaults(handler=commands.cmd_registry)

    # ------------------------------------------------------------------
    # package
    # ------------------------------------------------------------------
    package = subparsers.add_parser(
        "package", help="train a CMSF detector and package it as a model bundle")
    package_source = package.add_mutually_exclusive_group(required=True)
    package_source.add_argument("--preset", help="city preset to train on")
    package_source.add_argument("--graph", help="previously built graph (.npz)")
    package.add_argument("--method", default="CMSF",
                         help="CMSF variant (CMSF, CMSF-M, CMSF-G, CMSF-H)")
    package.add_argument("--seed", type=int, default=None,
                         help="override the preset's city seed and the "
                              "training seed (default: keep the preset city, "
                              "train with seed 0)")
    package.add_argument("--epochs", type=int, default=None,
                         help="override training epochs")
    package.add_argument("--dtype", choices=["float64", "float32"], default=None,
                         help="compute precision of the packaged detector "
                              "(recorded in the bundle manifest and enforced "
                              "at load time)")
    package_dest = package.add_mutually_exclusive_group(required=True)
    package_dest.add_argument("--output", help="write the bundle to this directory")
    package_dest.add_argument("--registry", dest="model_registry",
                              help="publish into this model-registry root")
    package.add_argument("--name", default=None,
                         help="bundle name (defaults to the city name)")
    package.add_argument("--version", default=None,
                         help="bundle version (auto-incremented in a registry)")
    package.set_defaults(handler=commands.cmd_package)

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------
    serve = subparsers.add_parser(
        "serve", help="run the HTTP scoring service over a model registry")
    serve.add_argument("--registry", required=True,
                       help="model-registry root with published bundles")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="port to bind (0 picks an ephemeral port)")
    serve.add_argument("--cache-size", type=int, default=32,
                       help="LRU capacity of each engine's result cache")
    serve.add_argument("--workers", type=int, default=4,
                       help="thread-pool width for concurrent scoring")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--wal-dir", default=None,
                       help="durability root: write-ahead-log every stream "
                            "delta and checkpoint snapshots in the "
                            "background")
    serve.add_argument("--max-concurrent", type=int, default=None,
                       help="admission control: per-endpoint concurrency "
                            "bound; overflow queues then sheds 503 + "
                            "Retry-After (default: unbounded)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="admission queue depth beyond the concurrency "
                            "bound before requests shed immediately")
    serve.add_argument("--queue-timeout", type=float, default=1.0,
                       help="seconds a request may wait in the admission "
                            "queue before shedding with 503")
    serve.add_argument("--degraded", action="store_true",
                       help="serve stale cached scores (flagged "
                            "degraded=true) instead of shedding warm "
                            "streams under overload")
    serve.add_argument("--max-staleness", type=int, default=8,
                       help="degraded mode: max stream-version lag a stale "
                            "cached score may have before shedding anyway")
    serve.set_defaults(handler=commands.cmd_serve)

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------
    stream = subparsers.add_parser(
        "stream", help="evolve a city through incremental deltas and report "
                       "the score drift")
    stream_source = stream.add_mutually_exclusive_group(required=True)
    stream_source.add_argument("--preset", help="build the graph from this preset")
    stream_source.add_argument("--graph", help="previously built graph (.npz)")
    stream.add_argument("--seed", type=int, default=None,
                        help="override the preset seed")
    stream_backend = stream.add_mutually_exclusive_group(required=True)
    stream_backend.add_argument("--url", help="push deltas to this running "
                                              "scoring service")
    stream_backend.add_argument("--registry",
                                help="score in-process with a bundle from "
                                     "this model-registry root")
    stream.add_argument("--model", required=True, help="published model name")
    stream.add_argument("--version", default=None, help="model version (latest)")
    stream.add_argument("--stream", default=None,
                        help="stream name on the service (default: derived "
                             "from the city name)")
    stream.add_argument("--steps", type=int, default=8,
                        help="number of evolution steps to generate")
    stream.add_argument("--evolution-seed", type=int, default=0,
                        help="seed of the evolution scenario generator")
    stream.add_argument("--scenarios", default="",
                        help="comma-separated scenario kinds (default: all; "
                             "poi_churn, imagery_refresh, road_rewiring, "
                             "region_growth)")
    stream.add_argument("--threshold", type=float, default=0.5,
                        help="operating threshold for drift crossing counts")
    stream.add_argument("--incremental", default="auto",
                        choices=("auto", "always", "never"),
                        help="delta-localised rescoring policy: recompute "
                             "only a delta's receptive field (auto falls "
                             "back to full rescoring for city-wide deltas)")
    stream.add_argument("--stats", action="store_true",
                        help="print compute-plan cache and incremental "
                             "rescoring counters after the run")
    stream.add_argument("--json", default=None,
                        help="write the drift report to this JSON path")
    stream.add_argument("--wal-dir", default=None,
                        help="durability root: write-ahead-log every delta "
                             "of the in-process stream (incompatible with "
                             "--url — the server owns durability there)")
    stream.add_argument("--fsync", default="interval",
                        choices=FSYNC_POLICIES,
                        help="when the write-ahead log calls fsync: on every "
                             "append, on a timer, or never (OS flush only)")
    stream.set_defaults(handler=commands.cmd_stream)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    workload = subparsers.add_parser(
        "workload", help="generate and record a deterministic mixed "
                         "score/update/evict workload trace")
    workload_source = workload.add_mutually_exclusive_group(required=True)
    workload_source.add_argument("--preset", help="build the base graph "
                                                  "from this preset")
    workload_source.add_argument("--graph", help="previously built graph (.npz)")
    workload.add_argument("--seed", type=int, default=None,
                          help="override the preset seed")
    workload.add_argument("--cities", type=int, default=2,
                          help="number of city variants derived from the "
                               "base graph (distinct routing keys)")
    workload.add_argument("--ops", type=int, default=32,
                          help="number of ops in the trace")
    workload.add_argument("--workload-seed", type=int, default=0,
                          help="seed of the workload generator")
    workload.add_argument("--score-weight", type=float, default=0.6)
    workload.add_argument("--update-weight", type=float, default=0.3)
    workload.add_argument("--evict-weight", type=float, default=0.1)
    workload.add_argument("--scenarios", default="",
                          help="comma-separated delta scenario kinds for "
                               "the update ops (default: all)")
    workload.add_argument("--output", required=True,
                          help="record the trace to this .npz path")
    workload.set_defaults(handler=commands.cmd_workload)

    # ------------------------------------------------------------------
    # fleet
    # ------------------------------------------------------------------
    fleet = subparsers.add_parser(
        "fleet", help="replay a workload trace against a sharded "
                      "multi-engine fleet with failover")
    fleet.add_argument("--registry", required=True,
                       help="model-registry root with published bundles")
    fleet.add_argument("--model", required=True, help="published model name")
    fleet.add_argument("--version", default=None, help="model version (latest)")
    fleet.add_argument("--shards", type=int, default=2,
                       help="number of shard workers")
    fleet.add_argument("--replication", type=int, default=2,
                       help="replica-set size per city (1 disables failover)")
    fleet.add_argument("--cache-size", type=int, default=32,
                       help="LRU capacity of each shard engine's result "
                            "cache (in-process shards only; remote shards "
                            "use their server's setting)")
    fleet.add_argument("--incremental", default="auto",
                       choices=("auto", "always", "never"),
                       help="delta-localised rescoring policy of the "
                            "per-shard streams")
    fleet.add_argument("--urls", default=None,
                       help="comma-separated scoring-service URLs: use "
                            "remote shards against running servers instead "
                            "of in-process engines")
    fleet_trace = fleet.add_mutually_exclusive_group(required=True)
    fleet_trace.add_argument("--trace", help="replay this recorded trace "
                                             "(see 'repro-uv workload')")
    fleet_trace.add_argument("--preset", help="generate an ad-hoc workload "
                                              "from this preset")
    fleet_trace.add_argument("--graph", help="generate an ad-hoc workload "
                                             "from this graph (.npz)")
    fleet.add_argument("--seed", type=int, default=None,
                       help="override the preset seed")
    fleet.add_argument("--ops", type=int, default=32,
                       help="ops of the ad-hoc workload (no --trace)")
    fleet.add_argument("--workload-seed", type=int, default=0,
                       help="seed of the ad-hoc workload (no --trace)")
    fleet.add_argument("--kill-shard", type=int, default=None,
                       help="chaos demo: wrap this shard index so it starts "
                            "failing mid-replay (needs replication >= 2)")
    fleet.add_argument("--kill-after", type=int, default=5,
                       help="delegated calls before the killed shard fails")
    fleet.add_argument("--verify-single", action="store_true",
                       help="also replay on a single-engine oracle and "
                            "verify the fleet's scores are bit-identical "
                            "(exit 1 on mismatch)")
    fleet.add_argument("--json", default=None,
                       help="write the replay report to this JSON path")
    fleet.add_argument("--wal-dir", default=None,
                       help="durability root: write-ahead-log every "
                            "accepted delta so a killed replay can be "
                            "resumed with --restore")
    fleet.add_argument("--restore", action="store_true",
                       help="recover every stream from --wal-dir, resume "
                            "the --trace at the recovered versions, and "
                            "verify the resumed tail is bit-identical to "
                            "an uninterrupted single-engine oracle "
                            "(exit 1 on mismatch)")
    fleet.add_argument("--fsync", default="interval",
                       choices=FSYNC_POLICIES,
                       help="when the write-ahead log calls fsync: on every "
                            "append, on a timer, or never (OS flush only)")
    fleet.add_argument("--timeout", type=float, default=None,
                       help="per-request timeout in seconds for remote "
                            "shards: a hung shard fails over within this "
                            "bound (default: the transport's 30s)")
    fleet.set_defaults(handler=commands.cmd_fleet)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    load = subparsers.add_parser(
        "load", help="open-loop concurrent load generation against fleets "
                     "of increasing size, reporting latency percentiles "
                     "and score-throughput scaling")
    load.add_argument("--registry", required=True,
                      help="model-registry root with published bundles")
    load.add_argument("--model", required=True, help="published model name")
    load.add_argument("--version", default=None, help="model version (latest)")
    load.add_argument("--shards", default="1,2",
                      help="comma-separated fleet sizes to load in turn "
                           "(scaling is reported last vs first)")
    load.add_argument("--replication", type=int, default=2,
                      help="replica-set size per city, clamped to each "
                           "fleet size")
    load.add_argument("--cache-size", type=int, default=8,
                      help="LRU capacity of each shard engine's result cache")
    load.add_argument("--incremental", default="auto",
                      choices=("auto", "always", "never"),
                      help="delta-localised rescoring policy of the "
                           "per-shard streams")
    load.add_argument("--urls", default=None,
                      help="comma-separated scoring-service URLs: load "
                           "remote shards instead of in-process engines")
    load_trace_source = load.add_mutually_exclusive_group(required=True)
    load_trace_source.add_argument("--trace",
                                   help="load this recorded trace "
                                        "(see 'repro-uv workload')")
    load_trace_source.add_argument("--preset",
                                   help="generate an ad-hoc workload from "
                                        "this preset")
    load_trace_source.add_argument("--graph",
                                   help="generate an ad-hoc workload from "
                                        "this graph (.npz)")
    load.add_argument("--seed", type=int, default=None,
                      help="override the preset seed")
    load.add_argument("--cities", type=int, default=6,
                      help="city variants of the ad-hoc workload (no --trace)")
    load.add_argument("--ops", type=int, default=96,
                      help="ops of the ad-hoc workload (no --trace)")
    load.add_argument("--workload-seed", type=int, default=0,
                      help="seed of the ad-hoc workload (no --trace)")
    load.add_argument("--score-weight", type=float, default=0.8)
    load.add_argument("--update-weight", type=float, default=0.15)
    load.add_argument("--evict-weight", type=float, default=0.05)
    load.add_argument("--workers", type=int, default=4,
                      help="concurrent client threads (clamped to the "
                           "trace's city count)")
    load.add_argument("--arrival-rate", type=float, default=None,
                      help="aggregate open-loop arrival rate in ops/s "
                           "(default: closed-loop saturation)")
    load.add_argument("--warmup", type=int, default=2,
                      help="leading ops per worker excluded from the stats")
    load.add_argument("--timeout", type=float, default=5.0,
                      help="per-request timeout for remote shards — "
                           "deliberately lower than 'fleet' so hung shards "
                           "fail over fast under load")
    load.add_argument("--verify-single", action="store_true",
                      help="digest-verify every run against a serial "
                           "1-shard oracle replay (exit 1 on mismatch)")
    load.add_argument("--min-scaling", type=float, default=None,
                      help="fail (exit 1) unless score throughput at the "
                           "largest fleet is at least this multiple of the "
                           "smallest fleet's")
    load.add_argument("--json", default=None,
                      help="write the schema-pinned BENCH_load.json report "
                           "to this path")
    load.add_argument("--deadline-ms", type=float, default=None,
                      help="attach this per-op deadline so slow requests "
                           "are shed server-side with 504 instead of "
                           "queueing forever")
    load.add_argument("--max-concurrent", type=int, default=None,
                      help="admission control on the fleet router: "
                           "per-endpoint concurrency bound, overflow "
                           "queues then sheds (default: unbounded)")
    load.add_argument("--max-queue", type=int, default=16,
                      help="admission queue depth beyond the concurrency "
                           "bound before requests shed immediately")
    load.add_argument("--queue-timeout", type=float, default=1.0,
                      help="seconds a request may wait in the admission "
                           "queue before shedding")
    load.add_argument("--degraded", action="store_true",
                      help="serve stale cached scores (flagged degraded) "
                           "instead of shedding warm streams under "
                           "overload")
    load.add_argument("--chaos", default=None,
                      choices=("slow-shard", "flaky", "kill"),
                      help="inject a fault into one shard of every fleet: "
                           "fixed latency (gray failure), seeded random "
                           "errors, or a hard kill — breakers and failover "
                           "must absorb it; chaos is cleared at the end of "
                           "each run and auto-revival is reported")
    load.add_argument("--chaos-shard", type=int, default=0,
                      help="shard index the chaos wraps (mod fleet size)")
    load.add_argument("--chaos-latency-ms", type=float, default=80.0,
                      help="injected per-call latency of --chaos slow-shard")
    load.add_argument("--chaos-flaky-rate", type=float, default=0.2,
                      help="per-call failure probability of --chaos flaky")
    load.add_argument("--kill-after", type=int, default=5,
                      help="delegated calls before --chaos kill fails the "
                           "shard")
    load.set_defaults(handler=commands.cmd_load)

    # ------------------------------------------------------------------
    # rollout
    # ------------------------------------------------------------------
    rollout = subparsers.add_parser(
        "rollout", help="staged canary rollout of a new model version "
                        "across a fleet, with shadow scoring, drift-gated "
                        "promotion and automatic rollback")
    rollout.add_argument("--registry", required=True,
                         help="model-registry root with published bundles")
    rollout.add_argument("--model", required=True, help="published model name")
    rollout.add_argument("--version", default=None,
                         help="baseline version serving before the rollout "
                              "(latest)")
    rollout.add_argument("--new-version", required=True,
                         help="bundle version to roll out")
    rollout.add_argument("--shards", type=int, default=2,
                         help="number of in-process shard workers")
    rollout.add_argument("--replication", type=int, default=2,
                         help="replica-set size per city")
    rollout.add_argument("--cache-size", type=int, default=32,
                         help="LRU capacity of each shard engine's result "
                              "cache")
    rollout.add_argument("--incremental", default="auto",
                         choices=("auto", "always", "never"),
                         help="delta-localised rescoring policy of the "
                              "per-shard streams")
    rollout_trace = rollout.add_mutually_exclusive_group(required=True)
    rollout_trace.add_argument("--trace",
                               help="replay this recorded trace through the "
                                    "rollout (see 'repro-uv workload')")
    rollout_trace.add_argument("--preset",
                               help="generate an ad-hoc workload from this "
                                    "preset")
    rollout_trace.add_argument("--graph",
                               help="generate an ad-hoc workload from this "
                                    "graph (.npz)")
    rollout.add_argument("--seed", type=int, default=None,
                         help="override the preset seed")
    rollout.add_argument("--cities", type=int, default=3,
                         help="city variants of the ad-hoc workload "
                              "(no --trace)")
    rollout.add_argument("--ops", type=int, default=32,
                         help="ops of the ad-hoc workload (no --trace)")
    rollout.add_argument("--workload-seed", type=int, default=0,
                         help="seed of the ad-hoc workload (no --trace)")
    rollout.add_argument("--rollout-at", type=int, default=0,
                         help="op index where the rollout starts (ignored "
                              "when the trace already has a rollout op)")
    rollout.add_argument("--rollout-seed", type=int, default=0,
                         help="canary-assignment seed (same seed => same "
                              "canary decisions on replay)")
    rollout.add_argument("--canary-fraction", type=float, default=0.05,
                         help="first-stage canary fraction; the ladder "
                              "continues through the defaults to 100%%")
    rollout.add_argument("--auto-promote", action="store_true",
                         help="let the drift policy promote/rollback "
                              "automatically as shadow pairs accumulate "
                              "(default: evaluate once after the replay)")
    rollout.add_argument("--abort", action="store_true",
                         help="abort at the end of the replay, restoring "
                              "the baseline version fleet-wide")
    rollout.add_argument("--max-mean-abs-change", type=float, default=0.05,
                         help="policy: rollback when the shadow pairs' mean "
                              "absolute probability change exceeds this")
    rollout.add_argument("--min-rank-correlation", type=float, default=0.8,
                         help="policy: rollback when the worst Spearman "
                              "rank correlation falls below this")
    rollout.add_argument("--max-crossing-fraction", type=float, default=0.02,
                         help="policy: rollback when the fraction of "
                              "regions crossing the operating threshold "
                              "exceeds this")
    rollout.add_argument("--min-pairs", type=int, default=3,
                         help="policy: hold until at least this many shadow "
                              "pairs exist per stage")
    rollout.add_argument("--threshold", type=float, default=0.5,
                         help="operating threshold for drift crossing "
                              "counts")
    rollout.add_argument("--verify-replay", action="store_true",
                         help="replay the rollout twice on fresh fleets and "
                              "verify canary decisions and float64 scores "
                              "are bit-identical (exit 1 on mismatch)")
    rollout.add_argument("--json", default=None,
                         help="write the rollout report to this JSON path")
    rollout.set_defaults(handler=commands.cmd_rollout)

    # ------------------------------------------------------------------
    # experiment
    # ------------------------------------------------------------------
    experiment = subparsers.add_parser(
        "experiment", help="sweep fleet size x replication over workload "
                           "traces, measuring each cell through a fresh "
                           "metrics registry")
    experiment.add_argument("--registry", required=True,
                            help="model-registry root with published bundles")
    experiment.add_argument("--model", required=True,
                            help="published model name")
    experiment.add_argument("--version", default=None,
                            help="model version (latest)")
    experiment.add_argument("--fleet-sizes", default="1,2",
                            help="comma-separated shard counts to sweep")
    experiment.add_argument("--replications", default="2",
                            help="comma-separated replica-set sizes to sweep "
                                 "(clamped to each cell's fleet size)")
    experiment.add_argument("--cache-size", type=int, default=8,
                            help="LRU capacity of each shard engine's "
                                 "result cache")
    experiment.add_argument("--incremental", default="auto",
                            choices=("auto", "always", "never"),
                            help="delta-localised rescoring policy of the "
                                 "per-shard streams")
    experiment_trace = experiment.add_mutually_exclusive_group(required=True)
    experiment_trace.add_argument("--trace",
                                  help="comma-separated recorded traces to "
                                       "replay (see 'repro-uv workload')")
    experiment_trace.add_argument("--preset",
                                  help="generate an ad-hoc workload from "
                                       "this preset")
    experiment_trace.add_argument("--graph",
                                  help="generate an ad-hoc workload from "
                                       "this graph (.npz)")
    experiment.add_argument("--seed", type=int, default=None,
                            help="override the preset seed")
    experiment.add_argument("--cities", type=int, default=3,
                            help="city variants of the ad-hoc workload "
                                 "(no --trace)")
    experiment.add_argument("--ops", type=int, default=32,
                            help="ops of the ad-hoc workload (no --trace)")
    experiment.add_argument("--workload-seed", type=int, default=0,
                            help="seed of the ad-hoc workload (no --trace)")
    experiment.add_argument("--no-verify", action="store_true",
                            help="skip the bit-identity check against each "
                                 "trace's first cell")
    experiment.add_argument("--output", default="EXPERIMENT.json",
                            help="write the machine-readable report to this "
                                 "JSON path")
    experiment.set_defaults(handler=commands.cmd_experiment)

    # ------------------------------------------------------------------
    # score
    # ------------------------------------------------------------------
    score = subparsers.add_parser(
        "score", help="score a graph against a running scoring service")
    score.add_argument("--url", required=True,
                       help="base URL of the service (e.g. http://127.0.0.1:8000)")
    score_source = score.add_mutually_exclusive_group(required=True)
    score_source.add_argument("--preset", help="build the graph from this preset")
    score_source.add_argument("--graph", help="previously built graph (.npz)")
    score.add_argument("--seed", type=int, default=None,
                       help="override the preset seed")
    score.add_argument("--model", required=True, help="published model name")
    score.add_argument("--version", default=None, help="model version (latest)")
    score.add_argument("--top-percent", type=float, default=None,
                       help="also report the top-k%% screening shortlist")
    score.add_argument("--threshold", type=float, default=None,
                       help="also report binary predictions at this threshold")
    score.add_argument("--predictions", default=None,
                       help="write the ranked scores to this CSV path")
    score.set_defaults(handler=commands.cmd_score)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return int(args.handler(args) or 0)
    except (ValueError, KeyError, FileNotFoundError) as error:
        # str(KeyError(msg)) is the repr of msg — unwrap so registry
        # lookups don't print their message wrapped in stray quotes
        message = (error.args[0] if isinstance(error, KeyError) and error.args
                   else error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (ScoringServiceError, FleetError, DurabilityError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
