"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section by calling the corresponding runner in :mod:`repro.experiments`.
Runners are executed exactly once per benchmark (``rounds=1``) because a
single run already trains several models; pytest-benchmark is used for its
timing/reporting plumbing, not for statistical repetition.

Set ``REPRO_SCALE=full`` for the paper-scale protocol (hours); the default
``quick`` scale shrinks the cities, folds and epoch budgets so the whole
suite finishes in tens of minutes on a laptop.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import run_scale


BENCHMARKS_DIR = Path(__file__).parent.resolve()
#: where the ``BENCH_*.json`` writers put their reports by default; ignored
#: by git, so a test run leaves the checkout clean
BENCH_OUT_DIR = BENCHMARKS_DIR.parent / ".bench-out"


def bench_out_path(variable: str, name: str) -> Path:
    """Output path of the ``BENCH_<name>.json`` report: the path in the
    environment variable ``variable`` when set, otherwise
    ``.bench-out/BENCH_<name>.json`` at the repository root."""
    override = os.environ.get(variable)
    if override:
        return Path(override)
    BENCH_OUT_DIR.mkdir(exist_ok=True)
    return BENCH_OUT_DIR / f"BENCH_{name}.json"


def pytest_collection_modifyitems(items):
    """Every benchmark regenerates a full table/figure: all are ``slow``.

    This hook sees the whole session's items, so it marks only the ones
    collected from this directory.  The serving-throughput benchmark opts
    out explicitly (it trains one reduced detector and times scoring,
    seconds not minutes) via the ``not_slow`` marker.
    """
    for item in items:
        if BENCHMARKS_DIR not in Path(str(item.fspath)).resolve().parents:
            continue
        if not item.get_closest_marker("not_slow"):
            item.add_marker(pytest.mark.slow)


def run_once(benchmark, runner, *args, **kwargs):
    """Execute ``runner`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(runner, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session", autouse=True)
def announce_scale():
    print(f"\n[benchmarks] running at REPRO_SCALE={run_scale()}\n", flush=True)
    yield
