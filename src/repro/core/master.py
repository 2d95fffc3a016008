"""The master model and its training stage (paper Section V-A, Algorithm 1).

The master model is the hierarchical graph neural network shared by every
region: a :class:`~repro.core.maga.MAGAEncoder` for multi-modal local
representation learning, a
:class:`~repro.core.gscm.GlobalSemanticClustering` module for the global
semantic context, and a 2-layer MLP classifier :math:`M(\\cdot, \\Phi_m)`.

The classifier is implemented with explicit weight/bias parameters
(:class:`MasterClassifier`) so that the slave stage can derive region-wise
models by gating exactly those parameters (Eq. 21) without rebuilding the
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn import functional as F
from ..nn.graphops import EdgePlan
from ..nn.losses import binary_cross_entropy, class_balanced_weights
from ..nn.module import Module, Parameter
from ..nn.optim import Adam, ExponentialDecay
from ..nn.tensor import Tensor, dtype_scope, no_grad
from ..nn.training import EarlyStopping, binary_auc, validation_split
from ..urg.graph import UrbanRegionGraph
from .config import CMSFConfig
from .gscm import GlobalSemanticClustering, GSCMOutput
from .maga import MAGAEncoder


class MasterClassifier(Module):
    """The 2-layer MLP classifier :math:`M(\\cdot, \\Phi_m)` of the master model.

    Parameters are stored flat-accessible so the MS-Gate can generate a
    parameter filter with exactly ``num_gated_parameters`` entries and apply
    it element-wise (Eq. 21).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        scale1 = np.sqrt(2.0 / (input_dim + hidden_dim))
        scale2 = np.sqrt(2.0 / (hidden_dim + 1))
        self.w1 = Parameter(rng.normal(0.0, scale1, size=(hidden_dim, input_dim)))
        self.b1 = Parameter(np.zeros(hidden_dim))
        self.w2 = Parameter(rng.normal(0.0, scale2, size=(hidden_dim,)))
        self.b2 = Parameter(np.zeros(1))

    @property
    def num_gated_parameters(self) -> int:
        """Number of scalar parameters the MS-Gate filter must cover."""
        return self.hidden_dim * self.input_dim + self.hidden_dim + self.hidden_dim + 1

    def forward(self, x: Tensor) -> Tensor:
        """Shared (ungated) prediction — Eq. 14; returns probabilities."""
        hidden = F.relu(x.matmul(self.w1.T) + self.b1)
        logit = hidden.matmul(self.w2) + self.b2
        return F.sigmoid(logit.reshape(-1))

    def forward_gated(self, x: Tensor, parameter_filter: Tensor) -> Tensor:
        """Region-wise gated prediction — Eq. 21-22.

        The plain-autograd reference of :func:`repro.core.gate.gated_head`,
        which training and inference run instead; it builds the whole
        ``(N, num_gated_parameters)`` filter and ``(N, h, d)`` products.

        Parameters
        ----------
        x:
            Region representations, shape ``(N, input_dim)``.
        parameter_filter:
            Per-region filter :math:`F_i` in ``(0, 1)``, shape
            ``(N, num_gated_parameters)``; entries are laid out as
            ``[w1 (h*d), b1 (h), w2 (h), b2 (1)]``.
        """
        n = x.shape[0]
        h, d = self.hidden_dim, self.input_dim
        offset = 0
        f_w1 = parameter_filter[:, offset:offset + h * d].reshape(n, h, d)
        offset += h * d
        f_b1 = parameter_filter[:, offset:offset + h]
        offset += h
        f_w2 = parameter_filter[:, offset:offset + h]
        offset += h
        f_b2 = parameter_filter[:, offset:offset + 1].reshape(-1)

        # hidden_i = relu((F_i^{w1} o W1) x_i + F_i^{b1} o b1)
        gated_w1 = f_w1 * self.w1                     # (N, h, d) broadcast over W1
        hidden = F.relu((gated_w1 * x.reshape(n, 1, d)).sum(axis=-1) + f_b1 * self.b1)
        # logit_i = (F_i^{w2} o w2) . hidden_i + F_i^{b2} o b2
        logit = (f_w2 * self.w2 * hidden).sum(axis=-1) + f_b2 * self.b2
        return F.sigmoid(logit)


class MasterModel(Module):
    """Hierarchical GNN + classifier pre-trained in the master stage."""

    def __init__(self, poi_dim: int, img_dim: int, config: CMSFConfig,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        with dtype_scope(config.dtype):
            self._build(poi_dim, img_dim, config, rng)

    def _build(self, poi_dim: int, img_dim: int, config: CMSFConfig,
               rng: np.random.Generator) -> None:
        self.encoder = MAGAEncoder(
            poi_dim=poi_dim,
            img_dim=img_dim,
            hidden_dim=config.hidden_dim,
            num_layers=config.maga_layers,
            heads=config.maga_heads,
            aggregation=config.maga_aggregation,
            rng=rng,
            image_reduce_dim=config.image_reduce_dim,
            dropout=config.dropout,
            negative_slope=config.attention_negative_slope,
            use_inter_modal=config.use_maga,
            residual=config.maga_residual,
        )
        representation_dim = self.encoder.output_dim
        self.gscm: Optional[GlobalSemanticClustering] = None
        classifier_input = representation_dim
        if config.use_gscm:
            self.gscm = GlobalSemanticClustering(
                input_dim=representation_dim,
                num_clusters=config.num_clusters,
                rng=rng,
                temperature=config.assignment_temperature,
                aggregation=config.cluster_aggregation,
                hard_collection=config.gscm_hard_collection,
            )
            classifier_input = self.gscm.output_dim
        self.classifier = MasterClassifier(classifier_input, config.classifier_hidden, rng)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def graph_plan(self, graph: UrbanRegionGraph) -> Optional[EdgePlan]:
        """The (cached) compute plan for ``graph`` — or None when disabled."""
        if not self.config.use_edge_plan:
            return None
        return EdgePlan.for_graph(graph)

    def encode(self, graph: UrbanRegionGraph, plan: Optional[EdgePlan] = None):
        """Run MAGA (+ GSCM) and return ``(enhanced_repr, GSCMOutput | None)``.

        ``plan`` is the self-loop-augmented :class:`EdgePlan` of the graph;
        training loops build it once and pass it in, one-shot callers leave
        it None and the config decides whether a cached plan is looked up.
        """
        with dtype_scope(self.config.dtype):
            if plan is None:
                plan = self.graph_plan(graph)
            local = self.encoder(graph.x_poi, graph.x_img, graph.edge_index,
                                 plan=plan)
            if self.gscm is None:
                return local, None
            gscm_out: GSCMOutput = self.gscm(local)
            return gscm_out.enhanced, gscm_out

    def forward(self, graph: UrbanRegionGraph,
                plan: Optional[EdgePlan] = None) -> Tensor:
        """Probability of every region being an urban village (Eq. 14)."""
        with dtype_scope(self.config.dtype):
            enhanced, _ = self.encode(graph, plan=plan)
            return self.classifier(enhanced)

    def predict_proba_tensor(self, graph: UrbanRegionGraph,
                             plan: Optional[EdgePlan] = None) -> Tensor:
        """Inference-mode probabilities as a detached :class:`Tensor`.

        Dropout is disabled and no autograd graph is built, so the result can
        be used for cheap validation-loss monitoring during training.
        """
        with self.evaluating(), no_grad():
            return self.forward(graph, plan=plan)

    def predict_proba(self, graph: UrbanRegionGraph,
                      plan: Optional[EdgePlan] = None) -> np.ndarray:
        """Inference-mode probabilities as a plain numpy array."""
        return self.predict_proba_tensor(graph, plan=plan).data.copy()


@dataclass
class MasterTrainingResult:
    """Everything Algorithm 1 hands over to the slave stage."""

    model: MasterModel
    #: fixed hard cluster membership of every region (empty if GSCM disabled)
    hard_assignment: np.ndarray
    #: binary pseudo label per cluster (Eq. 16)
    pseudo_labels: np.ndarray
    #: training loss per epoch
    history: List[float] = field(default_factory=list)

    @property
    def num_clusters_with_uv(self) -> int:
        return int(self.pseudo_labels.sum())


def train_master(model: MasterModel, graph: UrbanRegionGraph,
                 train_indices: np.ndarray, config: CMSFConfig,
                 verbose: bool = False) -> MasterTrainingResult:
    """Algorithm 1 — pre-train the master model on the labelled regions.

    Parameters
    ----------
    model:
        A freshly constructed :class:`MasterModel`.
    graph:
        The URG.
    train_indices:
        Local indices of the labelled regions available for training (the
        training folds of the cross-validation protocol).
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise ValueError("master training requires at least one labelled region")
    targets = graph.labels[train_indices].astype(np.float64)
    if np.any(targets < 0):
        raise ValueError("train_indices must reference labelled regions only")

    split_rng = np.random.default_rng(config.seed + 1)
    fit_indices, val_indices = validation_split(
        train_indices, graph.labels, config.validation_fraction, split_rng)
    fit_targets = graph.labels[fit_indices].astype(np.float64)
    fit_weights = class_balanced_weights(fit_targets) if config.class_balance else None
    val_targets = graph.labels[val_indices].astype(np.float64)

    # Structural precomputation shared by every epoch (and the validation
    # forwards): self-loop augmentation, scatter operators, id validation.
    plan = model.graph_plan(graph)

    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay,
                     max_grad_norm=config.max_grad_norm)
    scheduler = ExponentialDecay(optimizer, decay_rate=config.lr_decay)
    # Model selection maximises the validation AUC when a validation subset
    # is available; otherwise it falls back to the training-loss plateau rule.
    stopper = EarlyStopping(model, patience=config.patience,
                            mode="max" if val_indices.size else "min")

    history: List[float] = []
    with dtype_scope(config.dtype):
        for epoch in range(config.master_epochs):
            optimizer.zero_grad()
            probs = model(graph, plan=plan)
            loss = binary_cross_entropy(probs[fit_indices], fit_targets, fit_weights)
            loss.backward()
            optimizer.step()
            scheduler.step()
            value = float(loss.item())
            history.append(value)

            if val_indices.size and _val_due(epoch, config.val_interval,
                                             config.master_epochs):
                val_scores = model.predict_proba_tensor(graph, plan=plan).data[val_indices]
                monitored = binary_auc(val_targets, val_scores)
            elif val_indices.size:
                # Off-interval epoch: skip the extra inference forward and
                # leave the early-stopping state untouched.
                if verbose and epoch % 10 == 0:
                    print(f"[master] epoch {epoch:3d} loss {value:.4f}")
                continue
            else:
                monitored = value
            if verbose and (epoch % 10 == 0 or epoch == config.master_epochs - 1):
                print(f"[master] epoch {epoch:3d} loss {value:.4f} val {monitored:.4f}")
            if stopper.update(monitored, epoch):
                break
    stopper.restore_best()

    # Fix the hierarchical structure and derive pseudo labels (Eq. 16).
    with model.evaluating(), no_grad():
        _, gscm_out = model.encode(graph, plan=plan)
    if gscm_out is not None:
        hard = gscm_out.hard_assignment
        pseudo = GlobalSemanticClustering.derive_pseudo_labels(
            hard, graph.labels, _training_mask(graph, train_indices),
            model.gscm.num_clusters)
    else:
        hard = np.zeros(graph.num_nodes, dtype=np.int64)
        pseudo = np.zeros(0, dtype=np.int64)
    return MasterTrainingResult(model=model, hard_assignment=hard,
                                pseudo_labels=pseudo, history=history)


def _val_due(epoch: int, interval: int, total_epochs: int) -> bool:
    """Whether the validation forward runs this epoch (always the last one)."""
    if interval <= 1:
        return True
    return epoch % interval == 0 or epoch == total_epochs - 1


def _training_mask(graph: UrbanRegionGraph, train_indices: np.ndarray) -> np.ndarray:
    """Boolean mask over nodes marking the training labelled regions."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[train_indices] = True
    return mask
