"""Contextual master-slave gating mechanism (MS-Gate, paper Section V-B).

After the master stage fixes the hierarchical structure (cluster membership
and pseudo labels), the slave adaptive stage learns to derive a region-wise
slave model from the master model:

1. a pseudo-label predictor :math:`M_p` (logistic regression over cluster
   representations) estimates the probability that each cluster contains
   urban villages; it is trained with a positive-unlabeled rank loss
   (Eq. 17-18);
2. the gate function builds a region context vector from the region's soft
   cluster membership weighted by those inclusion probabilities (Eq. 19);
3. a linear map followed by a sigmoid turns the context into a parameter
   filter with exactly as many entries as the master classifier has
   parameters (Eq. 20);
4. the filter gates the classifier parameters element-wise, yielding the
   region-specific slave model used for the final prediction (Eq. 21-23).

Steps 3 and 4 run as one differentiable op, :func:`gated_head`, in fixed
blocks of :data:`ROW_BLOCK` rows of plain numpy: neither training nor
inference ever builds the whole ``(N, h*d + 2h + 1)`` filter.  Its backward
saves only the representations and the context vectors and recomputes each
block's filter and gated products (gradient checkpointing), so a slave
epoch holds no ``N x (h*d + 2h + 1)`` intermediate either.  Training
(:meth:`SlaveStage.forward`) and every inference path
(:func:`gated_scores`) run the same op and agree bit for bit.
:meth:`GateFunction.forward` and
:meth:`~repro.core.master.MasterClassifier.forward_gated` remain as the
autograd reference of the op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.graphops import EdgePlan
from ..nn.losses import (binary_cross_entropy, class_balanced_weights,
                         pu_rank_loss)
from ..nn.module import Module
from ..nn.optim import Adam, ExponentialDecay
from ..nn.tensor import Tensor, dtype_scope, is_grad_enabled, no_grad
from ..nn.training import EarlyStopping, binary_auc, validation_split
from ..urg.graph import UrbanRegionGraph
from .config import CMSFConfig
from .gscm import GSCMOutput
from .master import MasterClassifier, MasterModel, MasterTrainingResult, _val_due

#: rows per block of :func:`gated_head`; a block holds its filter logits
#: and one ``(rows, h, d)`` product (~8.5 MB each for the default float64
#: model), whatever the size of the city, in the forward and the backward
ROW_BLOCK = 256


class PseudoLabelPredictor(Module):
    """Logistic-regression predictor of the cluster UV-inclusion probability."""

    def __init__(self, cluster_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.lr = nn.LogisticRegression(cluster_dim, rng)

    def forward(self, cluster_repr: Tensor) -> Tensor:
        """Inclusion probability :math:`\\hat y^h_j` per cluster (Eq. 17)."""
        return self.lr(cluster_repr)


class GateFunction(Module):
    """The gate producing region context vectors and parameter filters."""

    #: initial bias of the filter head; sigmoid(2) ~ 0.88 so freshly derived
    #: slave models start close to the master (near pass-through gating) and
    #: the fine-tuning stage departs from a sensible starting point
    FILTER_BIAS_INIT = 2.0

    def __init__(self, num_clusters: int, context_dim: int,
                 num_gated_parameters: int, rng: np.random.Generator) -> None:
        super().__init__()
        #: W_q of Eq. 19 — membership*inclusion -> context vector
        self.context = nn.Linear(num_clusters, context_dim, rng)
        #: W_f of Eq. 20 — context vector -> parameter filter
        self.filter = nn.Linear(context_dim, num_gated_parameters, rng)
        self.filter.bias.data = np.full(num_gated_parameters, self.FILTER_BIAS_INIT,
                                        dtype=self.filter.bias.data.dtype)

    def context_vector(self, assignment: Tensor, inclusion_probs: Tensor) -> Tensor:
        """Region context vector ``q_i`` (Eq. 19)."""
        weighted = assignment * inclusion_probs.reshape(1, -1)
        return F.tanh(self.context(weighted))

    def parameter_filter(self, context: Tensor) -> Tensor:
        """Parameter filter ``F_i`` in ``(0, 1)`` (Eq. 20)."""
        return F.sigmoid(self.filter(context))

    def forward(self, assignment: Tensor, inclusion_probs: Tensor) -> Tensor:
        """The whole filter (Eq. 19-20): the autograd reference of the
        filter half of :func:`gated_head`."""
        return self.parameter_filter(self.context_vector(assignment, inclusion_probs))


class SlaveStage(Module):
    """All modules participating in the slave adaptive training stage."""

    def __init__(self, master: MasterModel, config: CMSFConfig,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if master.gscm is None:
            raise ValueError("the slave stage requires the GSCM hierarchy; "
                             "use the master model alone when GSCM is disabled")
        self.master = master
        with dtype_scope(config.dtype):
            self.pseudo_predictor = PseudoLabelPredictor(master.gscm.input_dim, rng)
            self.gate = GateFunction(
                num_clusters=config.num_clusters,
                context_dim=config.context_dim,
                num_gated_parameters=master.classifier.num_gated_parameters,
                rng=rng,
            )

    def forward(self, graph: UrbanRegionGraph, plan: Optional[EdgePlan] = None):
        """Run the full slave-stage forward pass.

        Returns
        -------
        probs:
            Per-region UV probability from the region-specific slave models.
        inclusion_probs:
            Per-cluster inclusion probability from the pseudo-label predictor.
        """
        with dtype_scope(self.master.config.dtype):
            _, gscm_out = self.master.encode(graph, plan=plan)
            return self.head(gscm_out)

    def head(self, gscm_out: GSCMOutput):
        """Everything after the encoder: ``(probs, inclusion_probs)``."""
        inclusion = self.pseudo_predictor(gscm_out.cluster_repr)
        context = self.gate.context_vector(gscm_out.assignment, inclusion)
        probs = gated_head(gscm_out.enhanced, context, self.gate.filter,
                           self.master.classifier)
        return probs, inclusion


@dataclass
class SlaveTrainingResult:
    """Output of Algorithm 2."""

    stage: SlaveStage
    history: List[float] = field(default_factory=list)
    rank_loss_history: List[float] = field(default_factory=list)


def train_slave(master_result: MasterTrainingResult, graph: UrbanRegionGraph,
                train_indices: np.ndarray, config: CMSFConfig,
                rng: np.random.Generator, verbose: bool = False) -> SlaveTrainingResult:
    """Algorithm 2 — the slave adaptive training stage.

    The master parameters are jointly fine-tuned together with the gate
    function and the pseudo-label predictor; the combined objective is
    ``L = L'_c + lambda * L_p`` (Eq. 24).
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)

    stage = SlaveStage(master_result.model, config, rng)
    pseudo_labels = master_result.pseudo_labels

    # The same validation subset that monitored the master stage now guards
    # the fine-tuning: if adapting the gate starts hurting generalisation the
    # best snapshot is restored at the end.
    split_rng = np.random.default_rng(config.seed + 1)
    fit_indices, val_indices = validation_split(
        train_indices, graph.labels, config.validation_fraction, split_rng)
    fit_targets = graph.labels[fit_indices].astype(np.float64)
    fit_weights = class_balanced_weights(fit_targets) if config.class_balance else None
    val_targets = graph.labels[val_indices].astype(np.float64)

    # The slave stage fine-tunes an already-trained master jointly with the
    # freshly initialised gate; a reduced learning rate keeps the adaptation
    # from destroying the pre-trained solution (Algorithm 2 is described as a
    # short fine-tuning stage needing "very few iterations").
    optimizer = Adam(stage.parameters(), lr=config.learning_rate * 0.3,
                     weight_decay=config.weight_decay,
                     max_grad_norm=config.max_grad_norm)
    scheduler = ExponentialDecay(optimizer, decay_rate=config.lr_decay)
    stopper = EarlyStopping(stage, patience=config.patience,
                            mode="max" if val_indices.size else "min")

    # Shared structural precomputation — the same plan instance the master
    # stage used (the content-keyed cache returns it, not a rebuild).
    plan = stage.master.graph_plan(graph)

    history: List[float] = []
    rank_history: List[float] = []
    with dtype_scope(config.dtype):
        for epoch in range(config.slave_epochs):
            optimizer.zero_grad()
            probs, inclusion = stage(graph, plan=plan)
            detection_loss = binary_cross_entropy(probs[fit_indices], fit_targets, fit_weights)
            if config.pseudo_label_loss == "rank":
                rank_loss = pu_rank_loss(inclusion, pseudo_labels)
            else:
                # Ablation (DESIGN.md §4): treat the pseudo labels as hard targets
                # instead of ranking constraints.
                rank_loss = binary_cross_entropy(inclusion, pseudo_labels.astype(np.float64))
            loss = detection_loss + Tensor(config.lambda_weight) * rank_loss
            loss.backward()
            optimizer.step()
            scheduler.step()
            history.append(float(detection_loss.item()))
            rank_history.append(float(rank_loss.item()))

            if val_indices.size and _val_due(epoch, config.val_interval,
                                             config.slave_epochs):
                with stage.evaluating(), no_grad():
                    val_probs, _ = stage(graph, plan=plan)
                monitored = binary_auc(val_targets, val_probs.data[val_indices])
            elif val_indices.size:
                # Off-interval epoch: skip the extra inference forward.
                continue
            else:
                monitored = history[-1]
            if verbose and (epoch % 10 == 0 or epoch == config.slave_epochs - 1):
                print(f"[slave] epoch {epoch:3d} detection {history[-1]:.4f} "
                      f"rank {rank_history[-1]:.4f} val {monitored:.4f}")
            if stopper.update(monitored if val_indices.size else history[-1], epoch):
                break
    stopper.restore_best()

    return SlaveTrainingResult(stage=stage, history=history,
                               rank_loss_history=rank_history)


def _filter_denominator(context_rows: np.ndarray, neg_filter_t: np.ndarray,
                        filter_bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 + exp(-z)`` for the filter logits ``z`` of a block (Eq. 20), in
    ``out``; the filter is its reciprocal.  Entries are laid out as
    ``[w1 (h*d), b1 (h), w2 (h), b2 (1)]``; where ``exp`` overflows the entry
    is inf and its filter value the exact limit 0."""
    denom = np.matmul(context_rows, neg_filter_t, out=out)
    denom -= filter_bias
    np.exp(denom, out=denom)
    denom += 1.0
    return denom


def _gated_hidden(x_rows: np.ndarray, denom: np.ndarray, w1: np.ndarray,
                  b1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``relu((F^w1 o W1) x + F^b1 o b1)`` of a block (Eq. 21-22); ``out``
    receives the gated products ``(F^w1 o W1) o x``."""
    m = x_rows.shape[0]
    h, d = w1.shape
    gated = np.multiply(x_rows[:, None, :], w1, out=out)
    gated /= denom[:, :h * d].reshape(m, h, d)
    hidden = gated.sum(axis=-1)
    hidden += b1 / denom[:, h * d:h * d + h]
    np.maximum(hidden, 0.0, out=hidden)
    return hidden


def gated_head(enhanced: Tensor, context: Tensor, gate_filter: nn.Linear,
               classifier: MasterClassifier) -> Tensor:
    """Slave-model probabilities from representations and context vectors.

    One differentiable op for the parameter filter (Eq. 20) and the gated
    classifier (Eq. 21-23), streamed through blocks of :data:`ROW_BLOCK`
    rows.  Within a block the filter ``sigmoid(z)`` is folded into every
    gated term as a division by ``1 + exp(-z)``, one ``exp`` pass; where
    ``exp`` overflows the term takes its exact limit 0.  The backward saves
    nothing but ``enhanced`` and ``context``: block by block it recomputes
    the filter and the gated products and accumulates the gradients of
    both inputs, of the filter's weight and bias and of the classifier's
    ``w1``, ``b1``, ``w2`` and ``b2``.  It matches the autograd
    ``GateFunction.parameter_filter`` + ``MasterClassifier.forward_gated``
    to round-off.
    """
    h, d = classifier.hidden_dim, classifier.input_dim
    hd = h * d
    weight, bias = gate_filter.weight, gate_filter.bias
    params = (classifier.w1, classifier.b1, classifier.w2, classifier.b2)
    w1, b1, w2, b2 = (p.data for p in params)
    x, c = enhanced.data, context.data
    n = x.shape[0]
    blocks = [(slice(start, start + ROW_BLOCK), min(ROW_BLOCK, n - start))
              for start in range(0, n, ROW_BLOCK)]

    def buffers():
        """-W_f^T (``-(c W_f^T) == c (-W_f)^T`` exactly, so the negation
        costs no pass) and the block-sized buffers every block reuses."""
        neg_filter_t = np.ascontiguousarray(-weight.data.T)
        rows = min(ROW_BLOCK, n)
        return (neg_filter_t,
                np.empty((rows, neg_filter_t.shape[1]), dtype=x.dtype),
                np.empty((rows, h, d), dtype=x.dtype))

    neg_filter_t, denom_buf, gated_buf = buffers()
    scores = np.empty(n, dtype=x.dtype)
    with np.errstate(over="ignore"):
        for rows, m in blocks:
            denom = _filter_denominator(c[rows], neg_filter_t, bias.data,
                                        denom_buf[:m])
            hidden = _gated_hidden(x[rows], denom, w1, b1, gated_buf[:m])
            # logit = (F^w2 o w2) . hidden + F^b2 o b2
            hidden *= w2
            hidden /= denom[:, hd + h:hd + 2 * h]
            logit = hidden.sum(axis=-1)
            logit += b2 / denom[:, -1]
            scores[rows] = 1.0 / (1.0 + np.exp(-logit))

    inputs = (enhanced, context, weight, bias) + params
    if not (is_grad_enabled() and any(t.requires_grad for t in inputs)):
        return Tensor(scores)

    def backward(grad: np.ndarray) -> None:
        g_logit = grad.astype(x.dtype, copy=False) * scores * (1.0 - scores)
        g_x, g_c = np.empty_like(x), np.empty_like(c)
        g_weight = np.zeros_like(weight.data)
        g_bias = np.zeros_like(bias.data)
        g_w1, g_b1 = np.zeros_like(w1), np.zeros_like(b1)
        g_w2, g_b2 = np.zeros_like(w2), np.zeros_like(b2)
        neg_filter_t, denom_buf, gated_buf = buffers()
        with np.errstate(over="ignore"):
            for rows, m in blocks:
                g, x_rows, c_rows = g_logit[rows], x[rows], c[rows]
                filt = _filter_denominator(c_rows, neg_filter_t, bias.data,
                                           denom_buf[:m])
                hidden = _gated_hidden(x_rows, filt, w1, b1, gated_buf[:m])
                np.reciprocal(filt, out=filt)
                f_w1 = filt[:, :hd].reshape(m, h, d)
                f_b1, f_w2 = filt[:, hd:hd + h], filt[:, hd + h:hd + 2 * h]
                f_b2 = filt[:, -1]
                # logit = (F^w2 o w2) . hidden + F^b2 o b2
                g_b2 += g @ f_b2
                g_gated_w2 = g[:, None] * f_w2
                g_w2 += (g_gated_w2 * hidden).sum(axis=0)
                # hidden = relu(pre), pre = (F^w1 o W1) x + F^b1 o b1
                g_pre = g_gated_w2 * w2
                g_pre *= hidden > 0
                g_b1 += (g_pre * f_b1).sum(axis=0)
                g_gated = np.multiply(g_pre[:, :, None], f_w1, out=gated_buf[:m])
                g_w1 += np.einsum("ikj,ij->kj", g_gated, x_rows)
                g_x[rows] = np.einsum("ikj,kj->ij", g_gated, w1)
                # the gradient of the filter's logits z, in place of the
                # filter: F = sigmoid(z) has dF/dz = F (1 - F), never
                # exp(-z)/denom^2, which is inf/inf where exp overflows.
                # (In-place ops write 2-D views: numpy copies a strided 3-D
                # output operand.)
                g_f_w1 = np.multiply(x_rows[:, None, :], w1, out=gated_buf[:m])
                g_f_w1 *= g_pre[:, :, None]
                g_f_w1 *= f_w1
                g_z_w1 = np.subtract(1.0, filt[:, :hd], out=filt[:, :hd])
                np.multiply(g_f_w1.reshape(m, hd), g_z_w1, out=g_z_w1)
                tail = filt[:, hd:]
                tail *= 1.0 - tail
                f_b1 *= g_pre * b1
                f_w2 *= g[:, None] * w2 * hidden
                f_b2 *= g * b2
                g_bias += filt.sum(axis=0)
                g_weight += filt.T @ c_rows
                g_c[rows] = filt @ weight.data
        for tensor, g_tensor in zip(inputs, (g_x, g_c, g_weight, g_bias,
                                             g_w1, g_b1, g_w2, g_b2)):
            if tensor.requires_grad:
                tensor._accumulate(g_tensor)

    return Tensor(scores, requires_grad=True, parents=inputs, backward=backward)


def gated_scores(stage: SlaveStage, gscm_out: GSCMOutput) -> np.ndarray:
    """Slave-model probabilities from the GSCM output (Eq. 17-23), inference only.

    :meth:`SlaveStage.head` under ``no_grad``: the training forward's own
    arithmetic, so every inference path and the training forward agree bit
    for bit.
    """
    with no_grad(), dtype_scope(stage.master.config.dtype):
        probs, _ = stage.head(gscm_out)
    return probs.data


def slave_predict_proba(stage: SlaveStage, graph: UrbanRegionGraph,
                        plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Inference with the region-specific slave models (Section V-C)."""
    with stage.evaluating(), no_grad():
        _, gscm_out = stage.master.encode(graph, plan=plan)
        return gated_scores(stage, gscm_out)
