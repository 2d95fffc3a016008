"""Span recording from outside the program: wrappers, spans, self time.

The traced run wraps public entry points of the stack (class attributes
and module-level names) in :class:`Patches`, records one :class:`Span`
per call in a :class:`SpanRecorder` kept in memory, and restores every
wrapped attribute afterwards.  No file of the program is edited.

A span knows its parent (the innermost open span on the same thread), its
thread and the operation it belongs to, so a layer's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-aware in-memory span store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- per-thread state ---------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self) -> Optional[int]:
        return getattr(self._local, "op", None)

    def set_op(self, op: Optional[int]) -> None:
        self._local.op = op

    def new_op_id(self) -> int:
        return next(self._ids)

    # -- spans ----------------------------------------------------------
    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(id=next(self._ids), name=name, start=time.perf_counter(),
                    end=float("nan"), parent=stack[-1].id if stack else None,
                    thread=threading.get_ident(), op=self.current_op,
                    attrs=attrs)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # an exception unwound past inner spans: drop them too
            while stack and stack.pop() is not span:
                pass
        self.spans.append(span)

    def top(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    @contextlib.contextmanager
    def op(self, name: str, **attrs) -> Iterator[Span]:
        """A new operation: a root span whose id tags every span inside."""
        outer = self.current_op
        self.set_op(self.new_op_id())
        try:
            with self.span(name, **attrs) as span:
                yield span
        finally:
            self.set_op(outer)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], low: float,
            high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals
                     if min(b, high) > max(a, low))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_index(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """The span's duration minus the part its direct children cover."""
    kids = children.get(span.id, ())
    return span.duration - covered(((k.start, k.end) for k in kids),
                                   span.start, span.end)


# ----------------------------------------------------------------------
# per-operation aggregation
# ----------------------------------------------------------------------
class SpanIndex:
    """Spans of one run grouped for per-operation metrics."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span.id: span for span in self.spans}
        self.children = children_index(self.spans)

    def _nested_in(self, span: Span, names) -> bool:
        parent = self.by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_id.get(parent.parent) if parent.parent is not None else None
        return False

    def per_op(self, names, mode: str = "total", ops=None) -> Dict[int, float]:
        """Sum of the named spans' time per operation, in seconds.

        ``mode`` is ``total`` (durations) or ``self`` (self times).  A span
        nested inside another span of the same names is not counted again.
        ``ops`` restricts to those operation ids; operations with no such
        span are absent from the result.
        """
        names = {names} if isinstance(names, str) else set(names)
        result: Dict[int, float] = {}
        for span in self.spans:
            if span.name not in names or span.op is None:
                continue
            if ops is not None and span.op not in ops:
                continue
            if self._nested_in(span, names):
                continue
            value = (span.duration if mode == "total"
                     else self_time(span, self.children))
            result[span.op] = result.get(span.op, 0.0) + value
        return result


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def resolve(path: str):
    """``"pkg.mod:Class"`` or ``"pkg.mod"`` -> the object."""
    module_name, _, qual = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, qual.split(".")):
        obj = getattr(obj, part)
    return obj


class Patches:
    """Replace attributes with wrappers and put the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper: Callable) -> None:
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__}.{attr} is inherited; "
                                     "wrap it where it is defined")
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def spanning(recorder: SpanRecorder, name: str,
             attrs: Optional[Callable] = None) -> Callable:
    """Wrapper factory: one span per call, ``attrs(*args, **kwargs)`` tags it."""
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                return func(*args, **kwargs)
            finally:
                recorder.end(span)
        return wrapper
    return make


def install(recorder: SpanRecorder, targets: Sequence[Tuple[str, str, str]],
            patches: Optional[Patches] = None) -> Patches:
    """Wrap every ``(owner path, attribute, span name)`` target."""
    patches = patches or Patches()
    for owner_path, attr, name in targets:
        patches.wrap(resolve(owner_path), attr, spanning(recorder, name))
    return patches


def install_epochs(recorder: SpanRecorder, patches: Patches) -> None:
    """Epoch spans: each opens at ``Optimizer.zero_grad`` (the first call
    of a training epoch) and closes after ``ExponentialDecay.step`` (the
    last); every epoch is its own operation."""
    def open_epoch(func):
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            recorder.set_op(recorder.new_op_id())
            recorder.begin("core.epoch")
            return func(self, *args, **kwargs)
        return wrapper

    def close_epoch(func):
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            try:
                return func(self, *args, **kwargs)
            finally:
                top = recorder.top()
                if top is not None and top.name == "core.epoch":
                    recorder.end(top)
                    recorder.set_op(None)
        return wrapper

    patches.wrap(resolve("repro.nn.optim:Optimizer"), "zero_grad", open_epoch)
    patches.wrap(resolve("repro.nn.optim:ExponentialDecay"), "step", close_epoch)


# ----------------------------------------------------------------------
# the entry points each workload wraps
# ----------------------------------------------------------------------
#: the forward pass, split as the detector is built (MAGA levels, GSCM,
#: gate filter, head); shared by training and scoring
FORWARD_TARGETS = [
    ("repro.core.maga:MAGAEncoder", "forward", "core.maga.forward"),
    ("repro.core.gscm:GlobalSemanticClustering", "forward", "core.gscm.forward"),
    ("repro.core.gate:PseudoLabelPredictor", "forward", "core.gate.filter"),
    ("repro.core.gate:GateFunction", "forward", "core.gate.filter"),
    ("repro.core.master:MasterClassifier", "forward", "core.master.head"),
    ("repro.core.master:MasterClassifier", "forward_gated", "core.master.head"),
]

TRAIN_TARGETS = FORWARD_TARGETS + [
    ("repro.core.cmsf", "train_master", "core.master.train"),
    ("repro.core.cmsf", "train_slave", "core.gate.train"),
    ("repro.core.master:MasterModel", "forward", "nn.forward"),
    ("repro.core.gate:SlaveStage", "forward", "nn.forward"),
    ("repro.nn.tensor:Tensor", "backward", "nn.backward"),
    ("repro.nn.optim:Adam", "step", "nn.optim"),
]

ENGINE_TARGETS = [
    ("repro.serve.engine:InferenceEngine", "score", "serve.engine.score"),
    ("repro.urg.graph:UrbanRegionGraph", "fingerprint", "urg.graph.fingerprint"),
    ("repro.nn.graphops:EdgePlan", "for_graph", "nn.graphops.plan"),
]

SCORE_COLD_TARGETS = FORWARD_TARGETS + ENGINE_TARGETS

STREAM_TARGETS = ENGINE_TARGETS + [
    ("repro.serve.fleet:FleetRouter", "update_stream", "serve.fleet.dispatch"),
    ("repro.serve.fleet:EngineShard", "update_stream", "serve.fleet.shard"),
    ("repro.stream.scorer:StreamingScorer", "update", "stream.scorer.update"),
    ("repro.stream.delta:GraphDelta", "apply", "stream.delta.apply"),
    ("repro.stream.delta:GraphDelta", "digest", "stream.delta.digest"),
    ("repro.core.incremental", "delta_seeds", "core.incremental.seeds"),
    ("repro.core.incremental", "affected_regions", "nn.graphops.affected"),
    ("repro.stream.scorer", "affected_regions", "nn.graphops.affected"),
    ("repro.core.incremental", "subset_rescore", "core.incremental.encode"),
    ("repro.core.incremental", "tail_scores", "core.incremental.tail"),
    ("repro.core.incremental", "build_score_cache", "core.incremental.full"),
    ("repro.durable.wal:StreamLog", "append_delta", "durable.wal.append"),
]


def _service_attrs(kind: str):
    def attrs(service, request, *args, **kwargs):
        stream = request.get("stream") if isinstance(request, dict) else None
        if kind == "update" and isinstance(request, dict) and "graph" in request:
            return {"kind": "open", "stream": stream}
        return {"kind": kind, "stream": stream}
    return attrs


def _observe_attrs(service, endpoint, method, status, seconds, *args, **kwargs):
    return {"endpoint": endpoint, "status": int(status), "seconds": float(seconds)}


def install_server(recorder: SpanRecorder) -> Patches:
    """Server-process wrappers of the ``http_stream`` workload.

    Every ``do_POST`` is one operation; the service call inside it names
    the stream, so the client can match it to its own request.
    """
    patches = Patches()

    def request_op(func):
        @functools.wraps(func)
        def wrapper(handler, *args, **kwargs):
            with recorder.op("serve.server.request"):
                return func(handler, *args, **kwargs)
        return wrapper

    patches.wrap(resolve("repro.serve.server:_Handler"), "do_POST", request_op)
    service = resolve("repro.serve.server:ScoringService")
    patches.wrap(service, "score", spanning(recorder, "serve.server.service",
                                            _service_attrs("score")))
    patches.wrap(service, "update", spanning(recorder, "serve.server.service",
                                             _service_attrs("update")))
    patches.wrap(service, "observe_http",
                 spanning(recorder, "obs.observe", _observe_attrs))
    install(recorder, [("repro.serve.server", "delta_from_payload",
                        "serve.wire.delta_decode")], patches)
    return patches


def _raw_attrs(client, path, body, accept, *args, **kwargs):
    return {"path": path, "request_bytes": len(body) if body is not None else 0}


def install_client(recorder: SpanRecorder) -> Patches:
    """Client-process wrapper of the ``http_stream`` workload: the socket
    round trip (``_raw_request``), tagged with body sizes."""
    patches = Patches()

    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = recorder.begin("serve.client.raw", **_raw_attrs(*args, **kwargs))
            try:
                result = func(*args, **kwargs)
                span.attrs["response_bytes"] = len(result[2])
                return result
            finally:
                recorder.end(span)
        return wrapper

    patches.wrap(resolve("repro.serve.client:ScoringClient"), "_raw_request", make)
    return patches
