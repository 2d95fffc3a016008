"""``train``: the two-stage fit of the gated detector on the medium city.

The only workload where autograd, the backward kernels and Adam do the
work; no serving code runs.  A short warm-up fit pays the first fit's
one-time costs inside set-up; the timed phase then repeats whole fits
until the run length is used, at least two of them so their scores can
be compared bit for bit.  An operation is one training epoch.
"""

from __future__ import annotations

import functools
import time
from typing import List

import numpy as np

from .common import Context, Outcome, peak_rss_mb
from .inputs import city
from .layers import train_layers
from .stats import rank_sum_auc
from .trace import TRAIN_TARGETS, Patches, install, install_epochs, resolve

MASTER_EPOCHS = 10
SLAVE_EPOCHS = 5
#: the training AUC must clear this (10 + 5 epochs reach ~0.999; a
#: detector that learned nothing sits at 0.5)
MIN_AUC = 0.75
#: central-difference step, the relative error allowed against backward,
#: and how many parameter tensors of each stage get one entry checked
GRAD_EPS = 1e-6
GRAD_RTOL = 1e-5
GRAD_TENSORS = 6
#: the warm-up fit: a short one pays the first fit's one-time costs (edge
#: plan, first touch of the activation buffers); later fits time the same
#: after it as after a full-length warm-up
WARMUP_EPOCHS = (2, 1)


def _config(epochs=(MASTER_EPOCHS, SLAVE_EPOCHS)):
    from repro.core import CMSFConfig
    return CMSFConfig(master_epochs=epochs[0], slave_epochs=epochs[1],
                      patience=None, dropout=0.0, seed=0)


class EpochClock:
    """One timestamp at the end of every epoch (``ExponentialDecay.step``
    closes each epoch of both stages) — the operation boundary of this
    workload, kept in untraced runs too."""

    def __init__(self, patches: Patches) -> None:
        self.stamps: List[float] = []

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                try:
                    return func(*args, **kwargs)
                finally:
                    self.stamps.append(time.perf_counter())
            return wrapper

        patches.wrap(resolve("repro.nn.optim:ExponentialDecay"), "step", make)


def run(ctx: Context) -> Outcome:
    from repro.core import CMSFDetector

    out = Outcome()
    graph = city("medium")
    labelled = graph.labeled_indices()
    patches = Patches()
    clock = EpochClock(patches)
    try:
        CMSFDetector(_config(WARMUP_EPOCHS)).fit(graph, labelled)
        if ctx.recorder is not None:
            install(ctx.recorder, TRAIN_TARGETS, patches)
            install_epochs(ctx.recorder, patches)
        fits = []
        start = time.perf_counter()
        out.setup_s = start - ctx.started
        while len(fits) < 2 or time.perf_counter() - start < ctx.seconds:
            first = len(clock.stamps)
            fit_start = time.perf_counter()
            fits.append(CMSFDetector(_config()).fit(graph, labelled))
            stamps = [fit_start] + clock.stamps[first:]
            out.latencies_ms.setdefault("epoch", []).extend(
                (b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
        elapsed = time.perf_counter() - start
    finally:
        patches.restore()

    epochs_per_fit = MASTER_EPOCHS + SLAVE_EPOCHS
    out.attempted = epochs_per_fit * len(fits)
    out.throughput_per_s = out.attempted / elapsed
    if ctx.recorder is not None:
        epoch_ops = [s.op for s in ctx.recorder.spans if s.name == "core.epoch"]
        out.layers = train_layers(ctx.recorder.spans, epoch_ops)

    # -- checks ---------------------------------------------------------
    reference = fits[0].predict_proba(graph)
    for index, detector in enumerate(fits):
        history = detector.training_history()["master"]
        scores = reference if index == 0 else detector.predict_proba(graph)
        ok = out.check(f"fit{index}.bit_identical", np.array_equal(scores, reference),
                       "float64 scores equal to the first timed fit's")
        ok &= out.check(f"fit{index}.loss_decreased", history[-1] < history[0],
                        f"master loss {history[0]:.4f} -> {history[-1]:.4f}")
        auc = rank_sum_auc(graph.labels[labelled], scores[labelled])
        ok &= out.check(f"fit{index}.train_auc", auc >= MIN_AUC, f"AUC {auc:.4f}")
        if not ok:
            out.failed += epochs_per_fit
    worst = gradient_check()
    out.check("gradients", worst <= GRAD_RTOL,
              f"worst relative error {worst:.2e} vs central differences")
    out.peak_rss_mb = peak_rss_mb()
    out.notes.append(f"fits timed: {len(fits)} x ({MASTER_EPOCHS} master + "
                     f"{SLAVE_EPOCHS} slave epochs) on {graph.num_nodes} regions")
    return out


def gradient_check(entries_seed: int = 0) -> float:
    """Worst relative error of ``Tensor.backward`` against central
    differences, over one seeded entry in each of a seeded sample of
    parameter tensors of the master stage and of the slave stage, on the
    tiny preset."""
    from repro.core.gate import SlaveStage
    from repro.core.master import MasterModel, train_master
    from repro.nn.losses import (binary_cross_entropy, class_balanced_weights,
                                 pu_rank_loss)
    from repro.nn.tensor import Tensor
    from repro.synth import generate_city, tiny_city
    from repro.urg import build_urg

    graph = build_urg(generate_city(tiny_city(seed=0)))
    labelled = graph.labeled_indices()
    targets = graph.labels[labelled].astype(np.float64)
    weights = class_balanced_weights(targets)
    config = _config((2, 1))
    rng = np.random.default_rng(config.seed)
    master = MasterModel(poi_dim=graph.poi_dim, img_dim=graph.image_dim,
                         config=config, rng=rng)
    plan = master.graph_plan(graph)
    picks = np.random.default_rng(entries_seed)

    def master_loss():
        return binary_cross_entropy(master(graph, plan=plan)[labelled],
                                    targets, weights)

    worst = _compare(master.parameters(), master_loss, picks)
    result = train_master(master, graph, labelled, config)
    stage = SlaveStage(result.model, config, rng)

    def slave_loss():
        probs, inclusion = stage(graph, plan=plan)
        detection = binary_cross_entropy(probs[labelled], targets, weights)
        return detection + Tensor(config.lambda_weight) * pu_rank_loss(
            inclusion, result.pseudo_labels)

    return max(worst, _compare(stage.parameters(), slave_loss, picks))


def _compare(parameters, loss_fn, picks: np.random.Generator) -> float:
    parameters = list(parameters)
    for param in parameters:
        param.zero_grad()
    loss_fn().backward()
    worst = 0.0
    chosen = picks.choice(len(parameters), size=min(GRAD_TENSORS, len(parameters)),
                          replace=False)
    for param in (parameters[i] for i in sorted(chosen)):
        entry = np.unravel_index(int(picks.integers(param.data.size)),
                                 param.data.shape)
        analytic = float(param.grad[entry]) if param.grad is not None else 0.0
        original = param.data[entry]
        param.data[entry] = original + GRAD_EPS
        plus = float(loss_fn().item())
        param.data[entry] = original - GRAD_EPS
        minus = float(loss_fn().item())
        param.data[entry] = original
        numeric = (plus - minus) / (2 * GRAD_EPS)
        error = abs(numeric - analytic) / max(1e-3, abs(numeric), abs(analytic))
        worst = max(worst, error)
    return worst
