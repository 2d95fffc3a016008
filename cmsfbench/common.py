"""Shared plumbing of the workloads: the run context, timed operations,
child processes and the outcome every workload reports."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .trace import SpanRecorder

PACKAGE_DIR = Path(__file__).resolve().parent

#: the model every serving workload scores with (see ``child.py bundle``)
MODEL = "bench"


@dataclass
class Context:
    """What a workload is given: its arguments and where it may write."""

    seed: int
    seconds: float
    #: process start, as far as Python can see it (first line of run.py)
    started: float
    #: the program's ``src`` directory (children import from it)
    src: Path
    #: a fresh directory the run may write to; removed afterwards
    work: Path
    #: set on traced runs
    recorder: Optional[SpanRecorder] = None


@dataclass
class Outcome:
    """What a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: check name -> (passed, detail)
    checks: Dict[str, Tuple[bool, str]] = field(default_factory=dict)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    throughput_per_s: float = 0.0
    #: client-observed latency of every timed operation, by kind
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: per-layer metric -> (value, samples), traced runs only
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks[name] = (bool(passed), detail)
        return bool(passed)

    @property
    def all_latencies(self) -> List[float]:
        return [v for values in self.latencies_ms.values() for v in values]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for ok, _ in self.checks.values())


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(probabilities) -> str:
    """Exact fingerprint of a float64 score vector."""
    array = np.ascontiguousarray(np.asarray(probabilities, dtype=np.float64))
    return hashlib.sha256(array.tobytes()).hexdigest()


def timed(recorder: Optional[SpanRecorder], name: str, call: Callable):
    """Run one client operation: ``(start, end, result, op id)``.

    Traced runs make the call its own operation, so every span inside it
    carries the op id.
    """
    if recorder is None:
        start = time.perf_counter()
        result = call()
        return start, time.perf_counter(), result, None
    with recorder.op(name) as span:
        result = call()
    return span.start, span.end, result, span.op


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(src), str(PACKAGE_DIR.parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def train_bundle(ctx: Context) -> Path:
    """Train and package the serving bundle in a child process, so its
    training memory never shows in the serving process's peak RSS.
    Returns the model registry directory."""
    registry = ctx.work / "registry"
    subprocess.run([sys.executable, str(PACKAGE_DIR / "child.py"), "bundle",
                    "--registry", str(registry)],
                   env=child_env(ctx.src), check=True, timeout=300,
                   stdout=subprocess.DEVNULL)
    return registry


class ServerProcess:
    """A ``ScoringServer`` in its own process, started by ``child.py serve``.

    Closing its stdin asks it to stop; it then writes its peak RSS (and,
    traced, its spans) to ``report`` and exits.
    """

    def __init__(self, ctx: Context, registry: Path) -> None:
        self.report = ctx.work / "server-report.json"
        command = [sys.executable, str(PACKAGE_DIR / "child.py"), "serve",
                   "--registry", str(registry), "--report", str(self.report)]
        if ctx.recorder is not None:
            command.append("--trace")
        self.proc = subprocess.Popen(command, env=child_env(ctx.src),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.startswith("http://"):
            self.kill()
            raise RuntimeError(f"server did not start (said {line!r})")
        self.url = line

    def stop(self) -> Dict[str, object]:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        with open(self.report, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()
