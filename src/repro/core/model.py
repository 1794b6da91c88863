"""LogCL — the paper's model (encoder-decoder + query contrast).

The model composes:

* :class:`repro.core.local_encoder.LocalRecurrentEncoder` (§III-C),
* :class:`repro.core.global_encoder.GlobalHistoryEncoder` (§III-D),
* :class:`repro.core.contrast.QueryContrastModule` (§III-E),
* :class:`repro.core.decoder.ConvTransE` with λ-fusion (§III-F).

Ablation switches on :class:`LogCLConfig` reproduce every Table IV/V and
Fig. 6-9 variant:

===============================  =======================================
Paper variant                    Config
===============================  =======================================
LogCL-G (global only)            ``use_local=False``
LogCL-L (local only)             ``use_global=False``
LogCL-w/o-eatt                   ``use_entity_attention=False``
LogCL-w/o-cl                     ``use_contrast=False``
LogCL-lg / -gl / -ll / -gg       ``contrast_strategies=("lg",)`` etc.
Table V aggregators              ``aggregator="compgcn-sub"`` etc.
Fig. 6 layer sweep               ``global_layers=1..3``
Fig. 8 λ sweep                   ``fusion_lambda``
Fig. 9 τ sweep                   ``temperature``
===============================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import build_aggregator
from ..interface import ExtrapolationModel
from ..nn import Embedding, Tensor, no_grad
from ..nn.dtypes import default_float
from ..nn.functional import multilabel_soft_loss
from ..nn.ops import fused_blend, l2_normalize
from ..nn.tensor import is_grad_enabled
from ..utils.seeding import spawn_rngs
from .contrast import VALID_STRATEGIES, QueryContrastModule
from .decoder import ConvTransE
from .global_encoder import GlobalHistoryEncoder
from .local_encoder import LocalRecurrentEncoder


@dataclass(frozen=True)
class LogCLConfig:
    """Hyperparameters and ablation switches for LogCL.

    ``fusion_lambda`` is the weight of the *local* representation in the
    prediction fusion (Eq. 19).  The paper's Eq. 19 places λ on the global
    term but §IV-E1 states "a larger value of λ indicates a higher
    proportion of the local encoder" and reports the optimum at 0.9; we
    follow the textual/hyperparameter reading.
    """

    dim: int = 64
    time_dim: int = 16
    window: int = 3                       # paper: 7-9; smaller default for CPU
    local_layers: int = 2
    global_layers: int = 2
    aggregator: str = "rgcn"
    dropout: float = 0.2
    use_local: bool = True
    use_global: bool = True
    use_entity_attention: bool = True
    use_time_encoding: bool = True
    use_contrast: bool = True
    contrast_strategies: Tuple[str, ...] = VALID_STRATEGIES
    temperature: float = 0.03
    contrast_weight: float = 1.0
    fusion_lambda: float = 0.9            # weight of the LOCAL representation
    decoder_kernels: int = 50
    decoder_kernel_width: int = 3
    normalize_encodings: bool = True   # L2-normalize encoder outputs before
                                       # fusion (RE-GCN-lineage convention;
                                       # keeps the two views' scales
                                       # compatible in Eq. 19)
    use_static_graph: bool = False     # §IV-B2: refine base embeddings with
                                       # the static side graph (requires
                                       # static_facts at construction)
    candidate_source: str = "local"    # Eq. 18: candidates scored against
                                       # the local matrix ("local", paper-
                                       # literal) or the fused one ("fused")
    attention_score: str = "additive"  # Eq. 10 form ("additive") or scaled
                                       # dot-product ("dot")
    seed: int = 0

    def validate(self) -> None:
        if not (self.use_local or self.use_global):
            raise ValueError("at least one of use_local/use_global required")
        if not 0.0 <= self.fusion_lambda <= 1.0:
            raise ValueError("fusion_lambda must be in [0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.candidate_source not in ("local", "fused"):
            raise ValueError("candidate_source must be 'local' or 'fused'")

    def variant(self, **changes) -> "LogCLConfig":
        """Return a copy with the given fields replaced (for ablations)."""
        return replace(self, **changes)


class LogCL(ExtrapolationModel):
    """Local-global history-aware contrastive learning model.

    Parameters
    ----------
    config:
        Hyperparameters / ablation flags.
    num_entities:
        Entity vocabulary size.
    num_relations:
        *Original* relation count; the model allocates ``2x`` embedding
        rows for the inverse-augmented relation space.
    """

    def __init__(self, config: LogCLConfig, num_entities: int,
                 num_relations: int,
                 static_facts: Optional[np.ndarray] = None):
        super().__init__(noise_seed=config.seed + 104729)
        config.validate()
        if config.use_static_graph and static_facts is None:
            raise ValueError("use_static_graph=True requires static_facts")
        self.config = config
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.num_relations_aug = 2 * num_relations

        rngs = spawn_rngs(config.seed, 9)
        self.entity_embedding = Embedding(num_entities, config.dim, rngs[0])
        self.relation_embedding = Embedding(self.num_relations_aug,
                                            config.dim, rngs[1])
        self.local_encoder = (LocalRecurrentEncoder(
            num_entities, self.num_relations_aug, config.dim, config.time_dim,
            build_aggregator(config.aggregator, config.dim,
                             config.local_layers, rngs[2], config.dropout),
            rngs[3],
            use_time_encoding=config.use_time_encoding,
            use_entity_attention=config.use_entity_attention,
            attention_score=config.attention_score)
            if config.use_local else None)
        self.global_encoder = (GlobalHistoryEncoder(
            config.dim,
            build_aggregator(config.aggregator, config.dim,
                             config.global_layers, rngs[4], config.dropout),
            rngs[5],
            use_entity_attention=config.use_entity_attention)
            if config.use_global else None)
        self.contrast = (QueryContrastModule(
            config.dim, rngs[6], temperature=config.temperature,
            strategies=config.contrast_strategies)
            if (config.use_contrast and config.use_local and config.use_global)
            else None)
        self.decoder = ConvTransE(config.dim, rngs[7],
                                  num_kernels=config.decoder_kernels,
                                  kernel_width=config.decoder_kernel_width,
                                  dropout_rate=config.dropout)
        from .static_graph import StaticGraphEncoder
        self.static_encoder = (StaticGraphEncoder(config.dim, static_facts,
                                                  rngs[8])
                               if config.use_static_graph else None)

    # ------------------------------------------------------------------
    def _base_entities(self) -> Tensor:
        # The Fig. 2 / Fig. 5 robustness protocol injects Gaussian noise
        # here, on the entity representations the model takes as input.
        base = self.perturb_entities(self.entity_embedding.all())
        if self.static_encoder is not None:
            base = self.static_encoder(base)
        return base

    def _query_rows(self) -> bool:
        """Whether forwards may produce only the query subjects' rows.

        True at inference (eval mode, no autograd graph) when Eq. 18
        scores against the local matrix: then the global encoding and
        the fusion reach the score only through the subject rows, and
        every other candidate row is the query-free local attention.
        Training, and ``candidate_source="fused"`` (whose candidates are
        the whole fused matrix), keep the all-rows forward.
        """
        return (not self.training and not is_grad_enabled()
                and self.local_encoder is not None
                and self.config.candidate_source == "local")

    def precompute_context(self, snapshots, query_time: int) -> Dict:
        """Query-independent encoder state for one timestamp.

        Runs the base-embedding preparation and the local window walk —
        everything that depends only on history and ``query_time``, not on
        the query batch.  The returned context can be cached by a serving
        engine and fed to :meth:`encode_queries` for any number of query
        batches at that timestamp; ``encode_queries(precompute_context(...),
        ...)`` is numerically identical to :meth:`encode`.

        At inference the context also carries ``"local_free"``: the
        Eq. 10-11 attended local matrix with a zero relation context for
        every entity (L2-normalized when ``normalize_encodings``), i.e.
        every row of the candidate matrix that no query subject touches.
        It costs one extra (|E|, d) matrix per cached context.
        """
        entities0 = self._base_entities()
        relations0 = self.relation_embedding.all()
        local_state = None
        local_free = None
        if self.local_encoder is not None:
            local_state = self.local_encoder.encode_window(
                snapshots, query_time, entities0, relations0)
            if self._query_rows():
                no_queries = np.zeros(0, dtype=np.int64)
                local_free = self._normalize(self.local_encoder.attend(
                    local_state, entities0, no_queries, no_queries).entities)
        return {"entities0": entities0, "relations0": relations0,
                "local_state": local_state, "local_free": local_free,
                "query_time": query_time}

    def _normalize(self, entities: Optional[Tensor]) -> Optional[Tensor]:
        if entities is None or not self.config.normalize_encodings:
            return entities
        return l2_normalize(entities)

    def encode_queries(self, context: Dict, subjects: np.ndarray,
                       relations: np.ndarray,
                       global_edges) -> Dict[str, Optional[Tensor]]:
        """Query-dependent half of :meth:`encode` on a precomputed context.

        With a query-free local matrix in the context and the model at
        inference (:meth:`_query_rows`), both encoders produce only the
        unique subject rows: ``fused`` then holds those rows,
        ``subject_rows`` maps each query to its row, and ``candidates``
        is a copy of ``context["local_free"]`` with the subject rows
        replaced.  Otherwise every matrix covers all entities.
        """
        entities0 = context["entities0"]
        relations0 = context["relations0"]
        local_free = context["local_free"]
        rows, subject_rows = None, subjects
        if local_free is not None and self._query_rows():
            rows, subject_rows = np.unique(subjects, return_inverse=True)

        local = None
        if context["local_state"] is not None:
            local = self.local_encoder.attend(context["local_state"],
                                              entities0, subjects, relations,
                                              rows=rows)
        glob = None
        if self.global_encoder is not None:
            src, rel, dst = global_edges
            glob = self.global_encoder(entities0, relations0, src, rel, dst,
                                       subjects, relations, rows=rows)

        lam = self.config.fusion_lambda
        local_entities = self._normalize(
            local.entities if local is not None else None)
        global_entities = self._normalize(
            glob.entities if glob is not None else None)
        if local_entities is not None and global_entities is not None:
            fused = fused_blend(local_entities, global_entities, lam)
            rel_matrix = local.relations
        elif local_entities is not None:
            fused = local_entities
            rel_matrix = local.relations
        else:
            fused = global_entities
            rel_matrix = relations0

        # Eq. 18 places the *local* entity matrix outside ConvTransE: the
        # fusion enters on the query side while candidates are scored
        # against the local representations (falling back to the fused /
        # global matrix when the local encoder is ablated).
        candidates = fused
        if rows is not None:
            # Copy-on-write: the cached query-free matrix is shared by
            # every batch at this timestamp.
            merged = local_free.data.copy()
            merged[rows] = local_entities.data
            candidates = Tensor(merged)
        elif (self.config.candidate_source == "local"
              and local_entities is not None):
            candidates = local_entities

        return {"local": local, "global": glob, "fused": fused,
                "subject_rows": subject_rows, "candidates": candidates,
                "relations": rel_matrix, "relations0": relations0}

    def encode(self, snapshots, query_time: int, subjects: np.ndarray,
               relations: np.ndarray, global_edges) -> Dict[str, Optional[Tensor]]:
        """Run both encoders and fuse; returns all intermediate tensors."""
        context = self.precompute_context(snapshots, query_time)
        return self.encode_queries(context, subjects, relations, global_edges)

    def score_queries(self, encoded: Dict, subjects: np.ndarray,
                      relations: np.ndarray) -> Tensor:
        """Raw logits (Q, |E|) for the given queries (Eq. 18)."""
        return self.decoder.forward_indexed(
            encoded["fused"], encoded["relations"], encoded["candidates"],
            encoded.get("subject_rows", subjects), relations)

    def contrast_loss(self, encoded: Dict, subjects: np.ndarray,
                      relations: np.ndarray) -> Optional[Tensor]:
        """L_cl (Eq. 15-17) or None when the module is disabled."""
        if self.contrast is None:
            return None
        local, glob = encoded["local"], encoded["global"]
        if local is None or glob is None or local.last_agg is None:
            return None
        return self.contrast(local.last_agg, encoded["relations"],
                             glob.raw_aggregate, encoded["relations0"],
                             subjects, relations)

    # ------------------------------------------------------------------
    def loss(self, snapshots, query_time: int, subjects: np.ndarray,
             relations: np.ndarray, objects: np.ndarray,
             global_edges) -> Tensor:
        """Joint training loss L = L_tkg + L_cl for one timestamp batch."""
        encoded = self.encode(snapshots, query_time, subjects, relations,
                              global_edges)
        logits = self.score_queries(encoded, subjects, relations)
        labels = _multihot_labels(subjects, relations, objects,
                                  self.num_entities)
        task_loss = multilabel_soft_loss(logits, labels)
        cl = self.contrast_loss(encoded, subjects, relations)
        if cl is not None:
            return task_loss + cl * self.config.contrast_weight
        return task_loss

    def predict(self, snapshots, query_time: int, subjects: np.ndarray,
                relations: np.ndarray, global_edges) -> np.ndarray:
        """Inference scores (Q, |E|) as a plain array (no graph)."""
        with no_grad():
            encoded = self.encode(snapshots, query_time, subjects,
                                  relations, global_edges)
            logits = self.score_queries(encoded, subjects, relations)
        return logits.data

    # -- ExtrapolationModel interface ----------------------------------
    def loss_on(self, batch) -> Tensor:
        """Trainer entry point: joint loss for one timestamp batch."""
        return self.loss(batch.snapshots, batch.time, batch.subjects,
                         batch.relations, batch.objects, batch.global_edges)

    def predict_on(self, batch) -> np.ndarray:
        """Evaluation entry point: scores (Q, |E|) for one batch."""
        return self.predict(batch.snapshots, batch.time, batch.subjects,
                            batch.relations, batch.global_edges)

    def predict_topk(self, snapshots, query_time: int, subject: int,
                     relation: int, global_edges, k: int = 5
                     ) -> List[Tuple[int, float]]:
        """Top-k (entity, probability) predictions for one query.

        Used by the Table VI case study.  Probabilities are softmax over
        the full candidate set.
        """
        # Local import: repro.eval pulls in the protocol module, which
        # reaches back into repro.core during package initialization.
        from ..eval.metrics import softmax_topk
        scores = self.predict(snapshots, query_time,
                              np.array([subject]), np.array([relation]),
                              global_edges)[0]
        return softmax_topk(scores, k)


def _multihot_labels(subjects: np.ndarray, relations: np.ndarray,
                     objects: np.ndarray, num_entities: int) -> np.ndarray:
    """Eq. 20 labels: row q marks every true object of (s_q, r_q, t).

    Groups queries by (s, r) pair, marks each group's objects once,
    then gathers rows — no per-query python loop.
    """
    pairs = subjects.astype(np.int64) * (np.int64(relations.max()) + 1
                                         if len(relations) else 1) \
        + relations.astype(np.int64)
    _, group, inverse = np.unique(pairs, return_index=True,
                                  return_inverse=True)[0:3]
    group_labels = np.zeros((len(group), num_entities), dtype=default_float())
    group_labels[inverse, objects.astype(np.int64)] = 1.0
    return group_labels[inverse]
