"""Run one workload of the CMSF benchmark and print its metrics.

    python3 cmsfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: the program is imported from
``./src``.  The last line of standard output is one JSON object with the
operations attempted and failed, whether every output checked out, and
the metrics — the end-to-end ones untraced (``--trace 0``), the
per-layer ones traced (``--trace 1``).  The lines before it say the same
for a reader, with sample counts and the checks.
"""

import os
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("train", "score_cold", "stream_update", "http_stream")

#: (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"),
              ("throughput_per_s", "1/s", "higher"),
              ("op_p50_ms", "ms", "lower"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".cmsfbench-work",
                        help="directory the run may write to (relative to "
                             "the checkout root; default %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(outcome) -> dict:
    from cmsfbench.stats import median
    return {"setup_s": outcome.setup_s,
            "peak_rss_mb": outcome.peak_rss_mb,
            "throughput_per_s": outcome.throughput_per_s,
            "op_p50_ms": median(outcome.all_latencies)}


def report(args, outcome) -> dict:
    """Print the readable report; return the result object."""
    from cmsfbench.layers import UNITS, complete
    from cmsfbench.stats import latency_summary

    print(f"cmsfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  operations: attempted={outcome.attempted} failed={outcome.failed}")
    e2e = end_to_end(outcome)
    label = "end-to-end (traced: tracing overhead included)" if args.trace else "end-to-end"
    print(f"  {label}:")
    for name, unit, _ in END_TO_END:
        print(f"    {name:<18} {e2e[name]:12.4f} {unit}")
    print("  latency by kind of operation (a p90 needs 100 samples):")
    for kind, samples in sorted(outcome.latencies_ms.items()) + [("all", outcome.all_latencies)]:
        summary = latency_summary(samples)
        p90 = "-" if summary["p90_ms"] is None else f"{summary['p90_ms']:.2f} ms"
        print(f"    {kind:<16} n={summary['n']:<5} p50={summary['p50_ms']:.2f} ms  p90={p90}")
    for name, (ok, detail) in outcome.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for note in outcome.notes:
        print(f"  note: {note}")
    if args.trace:
        layers = complete(outcome.layers)
        print("  per-layer (median per operation; n = operations it ran in):")
        for name, (value, samples) in layers.items():
            if samples:
                print(f"    {name:<40} {value:12.4f} {UNITS[name]:<6} n={samples}")
        metrics = {name: {"value": float(value), "unit": UNITS[name]}
                   for name, (value, _) in layers.items()}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit, _ in END_TO_END}
    return {"correct": outcome.correct, "attempted": int(outcome.attempted),
            "failed": int(outcome.failed), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread per process: on the 2-core machine the bounds were
    # set on, a second BLAS thread made repeated runs of one seed spread
    # about twice as wide (numpy is not loaded yet; children inherit it)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"cmsfbench: no program at {src}/repro — run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent)]

    from cmsfbench import http_stream, score_cold, stream_update, train
    from cmsfbench.common import Context
    from cmsfbench.trace import SpanRecorder

    workdir = root / args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    try:
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      started=STARTED, src=src, work=work,
                      recorder=SpanRecorder() if args.trace else None)
        module = {"train": train, "score_cold": score_cold,
                  "stream_update": stream_update, "http_stream": http_stream}
        outcome = module[args.workload].run(ctx)
        result = report(args, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
