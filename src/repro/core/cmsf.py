"""The public CMSF detector (paper Sections V-A to V-C).

:class:`CMSFDetector` wires the two training stages together behind the
common :class:`~repro.base.DetectorBase` interface:

1. **master training stage** (Algorithm 1) — pre-train the hierarchical GNN
   (MAGA + GSCM + classifier) on the labelled regions and fix the cluster
   membership / pseudo labels;
2. **slave adaptive training stage** (Algorithm 2) — train the pseudo-label
   predictor and the gate function, fine-tuning the master jointly, so a
   region-specific slave model can be derived for every region.

Prediction uses the slave models when the gate is enabled, otherwise the
shared master model (the CMSF-G / CMSF-H ablations).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..base import DetectorBase, validate_train_indices
from ..nn.serialization import load_state_dict, save_state_dict
from ..urg.graph import UrbanRegionGraph
from .config import CMSFConfig, variant_config
from .gate import SlaveStage, SlaveTrainingResult, train_slave
from .master import MasterModel, MasterTrainingResult, train_master


class CMSFDetector(DetectorBase):
    """Contextual Master-Slave Framework for urban village detection."""

    name = "CMSF"

    def __init__(self, config: Optional[CMSFConfig] = None) -> None:
        self.config = config or CMSFConfig()
        self.master_result: Optional[MasterTrainingResult] = None
        self.slave_result: Optional[SlaveTrainingResult] = None
        self._fitted = False

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, graph: UrbanRegionGraph, train_indices: np.ndarray,
            verbose: bool = False) -> "CMSFDetector":
        """Run the two-stage training on the given labelled regions."""
        train_indices = validate_train_indices(graph, train_indices)
        rng = np.random.default_rng(self.config.seed)

        model = MasterModel(poi_dim=graph.poi_dim, img_dim=graph.image_dim,
                            config=self.config, rng=rng)
        self.master_result = train_master(model, graph, train_indices,
                                          self.config, verbose=verbose)

        self.slave_result = None
        if self.config.use_gate and self.config.use_gscm:
            self.slave_result = train_slave(self.master_result, graph, train_indices,
                                            self.config, rng, verbose=verbose)
        self._mark_fitted()
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_proba(self, graph: UrbanRegionGraph, plan=None) -> np.ndarray:
        """UV probability for every region (slave models if available).

        ``plan`` is an optional precomputed :class:`repro.nn.EdgePlan` for
        ``graph`` (the serving engine passes its cached one); left as None a
        cached plan is looked up unless ``config.use_edge_plan`` is off.
        The scores are those of :meth:`build_score_cache`, the one
        inference forward every scoring path shares.
        """
        return self.build_score_cache(graph, plan=plan).scores

    def build_score_cache(self, graph: UrbanRegionGraph, plan=None):
        """Full forward capturing the per-level encoder activations.

        The returned :class:`~repro.core.incremental.ScoreCache` seeds
        :meth:`predict_proba_subset`; its ``scores`` are bit-identical to
        :meth:`predict_proba` of the same graph.
        """
        from .incremental import build_score_cache
        return build_score_cache(self, graph, plan=plan)

    def predict_proba_subset(self, graph: UrbanRegionGraph, node_ids,
                             plan=None, cache=None):
        """Rescore after a change confined to ``node_ids``.

        Runs the encoder only over the receptive field of ``node_ids``
        (their ``maga_layers``-hop out-neighbourhood, plus the halo needed
        to recompute it exactly) and re-runs the post-encoder tail over
        every region.  Returns a
        :class:`~repro.core.incremental.SubsetScoreResult` whose ``scores``
        are bit-identical in float64 to a full-rebuild
        :meth:`predict_proba`; the full forward stays the default and the
        oracle.  ``cache`` must be a :class:`ScoreCache` of the *same*
        graph with the old values at ``node_ids`` (see
        :meth:`build_score_cache`); use :func:`repro.core.subset_rescore`
        with :func:`repro.core.delta_seeds` when topology changed too.
        """
        from .incremental import DeltaSeeds, _master_model, subset_rescore
        self.check_fitted()
        if cache is None:
            raise ValueError(
                "predict_proba_subset needs the previous version's score "
                "cache; build one with build_score_cache(graph)")
        node_ids = np.unique(np.asarray(node_ids, dtype=np.int64))
        if node_ids.size and (node_ids[0] < 0 or node_ids[-1] >= graph.num_nodes):
            raise ValueError("node_ids out of range for a graph with %d "
                             "regions" % graph.num_nodes)
        if plan is None:
            plan = _master_model(self).graph_plan(graph)
            if plan is None:
                raise ValueError("predict_proba_subset requires edge plans; "
                                 "the detector was configured with "
                                 "use_edge_plan=False")
        seeds = DeltaSeeds(touched=node_ids, img_changed=node_ids,
                           keep_mask=None, num_added=0, num_removed=0)
        return subset_rescore(self, graph, plan, seeds, cache)

    def cluster_assignment(self, graph: UrbanRegionGraph) -> np.ndarray:
        """Hard cluster membership of every region (empty if GSCM disabled)."""
        self.check_fitted()
        return self.master_result.hard_assignment.copy()

    def pseudo_labels(self) -> np.ndarray:
        """Per-cluster pseudo labels derived after the master stage (Eq. 16)."""
        self.check_fitted()
        return self.master_result.pseudo_labels.copy()

    def training_history(self) -> Dict[str, list]:
        """Loss curves of both training stages."""
        self.check_fitted()
        history = {"master": list(self.master_result.history)}
        if self.slave_result is not None:
            history["slave_detection"] = list(self.slave_result.history)
            history["slave_rank"] = list(self.slave_result.rank_loss_history)
        return history

    # ------------------------------------------------------------------
    # introspection / persistence
    # ------------------------------------------------------------------
    @property
    def has_slave(self) -> bool:
        """Whether prediction uses the region-specific slave models."""
        return self.slave_result is not None

    def _persisted_module(self):
        """The module whose parameters :meth:`save` persists."""
        return (self.slave_result.stage if self.slave_result is not None
                else self.master_result.model)

    def num_parameters(self) -> int:
        if self.slave_result is not None:
            return self.slave_result.stage.num_parameters()
        if self.master_result is not None:
            return self.master_result.model.num_parameters()
        return 0

    def save(self, path: str) -> str:
        """Persist the trained parameters (master or full slave stage)."""
        self.check_fitted()
        return save_state_dict(self._persisted_module(), path)

    def load_parameters(self, path: str, strict: bool = True) -> "CMSFDetector":
        """Load parameters saved by :meth:`save` into the fitted modules.

        The state dict must have been produced by a detector with the same
        configuration: with ``strict`` (the default) missing or unexpected
        keys raise ``KeyError``, and shape mismatches always raise
        ``ValueError`` — loading a master-only checkpoint into a gated
        detector (or vice versa) is reported instead of silently ignored.
        """
        self.check_fitted()
        module = self._persisted_module()
        state = load_state_dict(path)
        try:
            module.load_state_dict(state, strict=strict)
        except KeyError as error:
            raise KeyError(
                f"{path!r} does not match this detector's architecture "
                f"(gate {'enabled' if self.has_slave else 'disabled'}): {error}"
            ) from error
        return self

    @classmethod
    def from_parameters(cls, config: CMSFConfig, poi_dim: int, img_dim: int,
                        state: Dict[str, np.ndarray],
                        hard_assignment: Optional[np.ndarray] = None,
                        pseudo_labels: Optional[np.ndarray] = None) -> "CMSFDetector":
        """Rebuild a fitted detector from persisted parameters — no training.

        This is the deserialisation counterpart of :meth:`save`: the modules
        are constructed exactly as :meth:`fit` would build them for a graph
        with the given feature dimensions, then the trained parameters are
        loaded strictly.  ``hard_assignment`` / ``pseudo_labels`` restore the
        fixed hierarchical structure recorded by the master stage; they are
        optional because prediction recomputes the cluster assignment from
        the parameters (only the introspection accessors need them).

        Model bundles (:mod:`repro.serve.bundle`) use this to turn a
        packaged artifact back into a scoring detector.
        """
        detector = cls(config)
        rng = np.random.default_rng(config.seed)
        model = MasterModel(poi_dim=poi_dim, img_dim=img_dim, config=config, rng=rng)
        use_slave = config.use_gate and config.use_gscm
        if hard_assignment is None:
            hard_assignment = np.zeros(0, dtype=np.int64)
        if pseudo_labels is None:
            pseudo_labels = np.zeros(0, dtype=np.int64)
        detector.master_result = MasterTrainingResult(
            model=model,
            hard_assignment=np.asarray(hard_assignment, dtype=np.int64),
            pseudo_labels=np.asarray(pseudo_labels, dtype=np.int64))
        if use_slave:
            stage = SlaveStage(model, config, rng)
            stage.load_state_dict(state)
            detector.slave_result = SlaveTrainingResult(stage=stage)
        else:
            model.load_state_dict(state)
        detector._mark_fitted()
        return detector


def make_variant(variant: str, config: Optional[CMSFConfig] = None) -> CMSFDetector:
    """Create a CMSF detector configured as one of the Figure 5(a) variants."""
    base = config or CMSFConfig()
    detector = CMSFDetector(variant_config(base, variant))
    detector.name = variant.upper().replace("_", "-")
    return detector
