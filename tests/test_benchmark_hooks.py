"""The entry points the repository benchmark (``cmsfbench/``) relies on.

The traced benchmark wraps public entry points of this package from
outside, and ``score_cold`` reads ``InferenceEngine.batch_size``.  A
refactor that renames, removes or stops defining one of them must fail
here instead of in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.core.gate import ROW_BLOCK
from repro.serve import InferenceEngine

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def trace(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("cmsfbench.trace")


def test_every_traced_entry_point_can_be_wrapped(trace):
    recorder = trace.SpanRecorder()
    patches = trace.Patches()
    try:
        for targets in (trace.TRAIN_TARGETS, trace.SCORE_COLD_TARGETS,
                        trace.STREAM_TARGETS):
            trace.install(recorder, targets, patches)
        trace.install_epochs(recorder, patches)
    finally:
        patches.restore()
    trace.install_server(recorder).restore()
    trace.install_client(recorder).restore()


def test_engine_batch_size_is_the_read_only_row_block(fitted_detector):
    engine = InferenceEngine(fitted_detector)
    assert engine.batch_size == ROW_BLOCK
    with pytest.raises(AttributeError):
        engine.batch_size = 17
