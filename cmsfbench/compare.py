"""Compare two checkouts on the benchmark, or measure one checkout's spread.

    python3 cmsfbench/compare.py --base ../parent --change . \\
        --workloads stream_update,http_stream --runs 10

runs each chosen workload ``--runs`` times on both checkouts, pair ``i``
with seed ``--first-seed + i`` on both sides, alternating which side runs
first.  Both sides run this copy of the benchmark, so only the program
differs.  For each workload and metric it prints each side's median and
quartiles, the pairs the change won (ties count for neither), and whether
the difference of medians exceeds both the metric's bound and the base's
own quartile spread — the rule a claimed gain or a regression must pass.

With ``--base`` alone it runs one checkout and prints each metric's
spread (inter-quartile distance over median) against a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from cmsfbench.stats import quartiles, relative_spread  # noqa: E402

#: a gain is claimed only when the change wins this share of the pairs
GAIN_WIN_SHARE = 0.9


def load_spec(path: Path = HERE.parent / "BENCHMARK.json") -> Dict[str, Dict[str, object]]:
    """Metric name -> {unit, better, bound (None for per-layer)}."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    metrics = {m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
               for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": None}
    return metrics


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> Dict[str, object]:
    """Judge paired runs of one metric: ``base[i]`` and ``change[i]`` are
    pair ``i``.  ``bound`` is the share of the base median a metric may
    move by (None: only the spread rule applies)."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    delta = c_med - b_med
    beyond_bound = bound is None or abs(delta) > bound * abs(b_med)
    beyond_spread = abs(delta) > (b3 - b1)
    if beyond_bound and beyond_spread and delta != 0:
        outcome = "better" if sign * delta > 0 else "worse"
    else:
        outcome = "same"
    return {"base": (b1, b_med, b3), "change": (c1, c_med, c3),
            "ratio": c_med / b_med if b_med else float("inf"),
            "wins": wins, "losses": losses, "pairs": len(base),
            "beyond_bound": beyond_bound, "beyond_spread": beyond_spread,
            "verdict": outcome,
            "gain_claimable": outcome == "better" and wins >= GAIN_WIN_SHARE * len(base)}


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> Dict[str, object]:
    """One benchmark run of ``checkout``'s program; its result object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - began
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} failed "
                           f"({done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if not result["correct"]:
        print(f"  warning: {workload} seed {seed} in {checkout} reported "
              "incorrect outputs", file=sys.stderr)
    return result


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every run here")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"base": args.base.resolve()}
    if args.change is not None:
        sides["change"] = args.change.resolve()
    runs: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for workload in args.workloads.split(","):
        runs[workload] = {side: [] for side in sides}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                result = run_once(sides[side], workload, args.first_seed + i,
                                  seconds, args.trace)
                runs[workload][side].append(result)
                print(f"{workload} pair {i} {side} ({result['wall_s']:.1f} s): "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items()
                                  if spec.get(k, {}).get("bound") is not None
                                  or args.trace), flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))

    for workload, by_side in runs.items():
        base = by_side["base"]
        failed = {side: sum(r["failed"] for r in results) / max(
            sum(r["attempted"] for r in results), 1)
            for side, results in by_side.items()}
        print(f"\n== {workload}: failed share " + ", ".join(
            f"{side} {share:.4%}" for side, share in failed.items()))
        for name in base[0]["metrics"]:
            meta = spec.get(name, {"better": "lower", "bound": None, "unit": ""})
            a = [r["metrics"][name]["value"] for r in base]
            if "change" not in by_side:
                spread = relative_spread(a)
                limit = "" if meta["bound"] is None else (
                    f"  bound {meta['bound']:.3g}, spread "
                    f"{'<' if spread < meta['bound'] / 3 else '>='} bound/3")
                print(f"  {name:<38} {_fmt(quartiles(a)):<36} spread {spread:.3f}{limit}")
                continue
            b = [r["metrics"][name]["value"] for r in by_side["change"]]
            v = verdict(a, b, meta["better"], meta["bound"])
            print(f"  {name:<38} base {_fmt(v['base'])}  change {_fmt(v['change'])}"
                  f"  x{v['ratio']:.3f}  wins {v['wins']}/{v['pairs']}"
                  f"  beyond bound {v['beyond_bound']}, beyond base spread "
                  f"{v['beyond_spread']} -> {v['verdict']}"
                  + ("  (gain claimable)" if v["gain_claimable"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
