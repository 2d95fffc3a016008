"""The fused inference tail and the mode contract of inference entry points.

:func:`repro.core.gate.gated_scores` must compute what the autograd
``SlaveStage`` forward computes (to round-off, including filter logits
whose ``exp`` overflows) at every row count around its block size, without
ever holding the whole parameter filter.  Every inference entry point must
hand the detector back in the train/eval mode it was given.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core import CMSFConfig, CMSFDetector, build_score_cache, slave_predict_proba
from repro.core.gate import ROW_BLOCK, SlaveStage, gated_scores
from repro.core.gscm import GSCMOutput
from repro.core.master import MasterModel
from repro.nn.tensor import Tensor, dtype_scope, no_grad
from repro.serve import InferenceEngine

SMALL = dict(hidden_dim=16, image_reduce_dim=16, classifier_hidden=8,
             maga_layers=1, maga_heads=2, num_clusters=6, context_dim=8,
             dropout=0.0, seed=0)
#: filter bias of every 97th filter entry and of b2's: ``-z`` lies far
#: beyond the largest finite ``exp`` argument of either dtype in every row
OVERFLOW_BIAS = -1000.0


def _stage(dtype: str) -> SlaveStage:
    config = CMSFConfig(dtype=dtype, **SMALL)
    rng = np.random.default_rng(5)
    master = MasterModel(poi_dim=4, img_dim=4, config=config, rng=rng)
    stage = SlaveStage(master, config, rng)
    bias = stage.gate.filter.bias.data
    bias[::97] = OVERFLOW_BIAS
    bias[-1] = OVERFLOW_BIAS
    return stage


def _gscm_output(stage: SlaveStage, rows: int, seed: int) -> GSCMOutput:
    rng = np.random.default_rng(seed)
    master = stage.master
    logits = rng.normal(0.0, 2.0, (rows, master.gscm.num_clusters))
    assignment = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    with dtype_scope(master.config.dtype):
        return GSCMOutput(
            enhanced=Tensor(rng.normal(0.0, 1.5, (rows, master.classifier.input_dim))),
            assignment=Tensor(assignment),
            hard_assignment=assignment.argmax(axis=1),
            cluster_repr=Tensor(rng.normal(0.0, 1.0, (master.gscm.num_clusters,
                                                      master.gscm.input_dim))))


def _reference(stage: SlaveStage, out: GSCMOutput) -> np.ndarray:
    """The training forward's tail: autograd ops, whole filter at once."""
    with no_grad(), dtype_scope(stage.master.config.dtype):
        inclusion = stage.pseudo_predictor(out.cluster_repr)
        parameter_filter = stage.gate(out.assignment, inclusion)
        return stage.master.classifier.forward_gated(out.enhanced,
                                                     parameter_filter).data


class TestGatedScoresKernel:
    @pytest.mark.parametrize("dtype,atol", [("float64", 1e-12), ("float32", 1e-5)])
    @pytest.mark.parametrize("rows", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                      2 * ROW_BLOCK + 3])
    def test_matches_autograd_forward_gated(self, dtype, atol, rows):
        stage = _stage(dtype)
        out = _gscm_output(stage, rows, seed=rows)
        with no_grad(), dtype_scope(dtype):
            inclusion = stage.pseudo_predictor(out.cluster_repr)
            context = stage.gate.context_vector(out.assignment, inclusion)
            logits = stage.gate.filter(context).data
        # every row has filter logits whose exp(-z) overflows
        assert (-logits > np.log(np.finfo(dtype).max)).any(axis=1).all()

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = gated_scores(stage, out)
        assert scores.dtype == np.dtype(dtype) and scores.shape == (rows,)
        np.testing.assert_allclose(scores, _reference(stage, out), rtol=0, atol=atol)

    def test_peak_memory_stays_below_one_full_filter(self):
        stage = _stage("float64")
        rows = 8 * ROW_BLOCK
        out = _gscm_output(stage, rows, seed=2)
        full_filter = rows * stage.master.classifier.num_gated_parameters * 8
        tracemalloc.start()
        try:
            gated_scores(stage, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_filter / 2


def _detectors(fitted_detector, graph, fast_config):
    """A gated and a master-only detector rebuilt from the fitted one."""
    gated = CMSFDetector.from_parameters(
        fast_config, graph.poi_dim, graph.image_dim,
        fitted_detector.slave_result.stage.state_dict())
    master_only = CMSFDetector.from_parameters(
        fast_config.with_overrides(use_gate=False), graph.poi_dim,
        graph.image_dim, fitted_detector.master_result.model.state_dict())
    return {"gated": gated, "master-only": master_only}


def _subset_call(detector, graph):
    cache = detector.build_score_cache(graph)
    return lambda: detector.predict_proba_subset(graph, [3, 40], cache=cache)


#: entry point -> prepare(detector, graph) returning the call under test
ENTRY_POINTS = {
    "predict_proba": lambda det, graph: lambda: det.predict_proba(graph),
    "build_score_cache": lambda det, graph: lambda: build_score_cache(det, graph),
    "predict_proba_subset": _subset_call,
    "master_predict_proba": lambda det, graph: (
        lambda: det.master_result.model.predict_proba(graph)),
    "slave_predict_proba": lambda det, graph: (
        lambda: slave_predict_proba(det.slave_result.stage, graph)),
    "engine_cold_score": lambda det, graph: (
        lambda: InferenceEngine(det, cache_size=0).score(graph)),
}
CASES = [(entry, kind) for entry in sorted(ENTRY_POINTS)
         for kind in ("gated", "master-only")
         if not (entry == "slave_predict_proba" and kind == "master-only")]


class TestInferenceRestoresModes:
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("entry,kind", CASES)
    def test_mode_survives_inference(self, fitted_detector, tiny_graph_small_image,
                                     fast_config, entry, kind, training):
        graph = tiny_graph_small_image
        detector = _detectors(fitted_detector, graph, fast_config)[kind]
        call = ENTRY_POINTS[entry](detector, graph)
        module = detector._persisted_module()
        module.train(training)
        call()
        modes = {name: m.training for name, m in module.named_modules()}
        assert set(modes.values()) == {training}, modes

    def test_training_mode_detector_scores_without_dropout(
            self, fitted_detector, tiny_graph_small_image, fast_config,
            reference_scores):
        graph = tiny_graph_small_image
        detector = CMSFDetector.from_parameters(
            fast_config.with_overrides(dropout=0.5), graph.poi_dim,
            graph.image_dim, fitted_detector.slave_result.stage.state_dict())
        detector._persisted_module().train(True)
        np.testing.assert_array_equal(detector.predict_proba(graph),
                                      reference_scores)
