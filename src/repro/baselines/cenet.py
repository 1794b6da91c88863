"""CENET baseline (Xu et al., AAAI 2023) — historical contrastive learning.

CENET scores candidates with two MLP heads — one biased by each entity's
*historical* co-occurrence frequency with the query, one by its
*non-historical* complement — and trains a supervised contrastive loss
that separates query representations by whether their answer lies in the
query's history.  It has **no** evolutional encoder, which is why the
paper finds it below the RE-GCN family ("its performance is lower than
LogCL due to the lack of evolutionary modeling of facts").

This re-implementation keeps those three ingredients (frequency-biased
dual scoring, historical/non-historical contrast, no evolution) in a
compact form.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Tensor
from ..nn.functional import multilabel_soft_loss
from ..nn.ops import concat, index_select, l2_normalize
from .base import EmbeddingBaseline


class CENET(EmbeddingBaseline):
    """Frequency-aware dual scorer with historical contrastive loss."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 seed: int = 0, frequency_scale: float = 2.0,
                 contrast_weight: float = 0.5, temperature: float = 0.1):
        super().__init__(num_entities, num_relations, dim, seed)
        rng = self._extra_rngs[0]
        self.historical_head = Linear(2 * dim, dim, rng)
        self.non_historical_head = Linear(2 * dim, dim, rng)
        self.projection = Linear(2 * dim, dim, self._extra_rngs[1])
        self.frequency_scale = frequency_scale
        self.contrast_weight = contrast_weight
        self.temperature = temperature

    # ------------------------------------------------------------------
    def _frequencies(self, batch) -> np.ndarray:
        freq = batch.history_index.answer_count_matrix(
            batch.subjects, batch.relations, self.num_entities,
            dtype=np.float32)
        return np.tanh(freq)  # saturating frequency feature, in [0, 1)

    def _query_features(self, batch):
        entities = self.entities()
        subj = index_select(entities, batch.subjects)
        rel = index_select(self.relation_embedding.all(), batch.relations)
        return entities, concat([subj, rel], axis=-1)

    def score_batch(self, batch) -> Tensor:
        entities, features = self._query_features(batch)
        freq = self._frequencies(batch)
        hist_scores = self.historical_head(features).tanh() @ entities.T
        non_scores = self.non_historical_head(features).tanh() @ entities.T
        bias = Tensor(freq * self.frequency_scale)
        return hist_scores + bias + non_scores - bias * 0.5

    # ------------------------------------------------------------------
    def loss_on(self, batch) -> Tensor:
        from ..core.model import _multihot_labels
        entities, features = self._query_features(batch)
        logits = self.score_batch(batch)
        labels = _multihot_labels(batch.subjects, batch.relations,
                                  batch.objects, self.num_entities)
        task = multilabel_soft_loss(logits, labels)
        contrast = self._historical_contrast(batch, features)
        if contrast is None:
            return task
        return task + contrast * self.contrast_weight

    def _historical_contrast(self, batch, features) -> Tensor:
        """Supervised contrast: queries whose answers are historical form
        one class, the rest the other (CENET's core loss)."""
        counts = batch.history_index.answer_count_matrix(
            batch.subjects, batch.relations, self.num_entities)
        is_historical = counts[np.arange(len(batch)), batch.objects] > 0
        # need both classes represented to form positive/negative pairs
        if not is_historical.any() or is_historical.all():
            return None
        z = l2_normalize(self.projection(features))
        sims = (z @ z.T) * (1.0 / self.temperature)            # (Q, Q)
        same = (is_historical[:, None] == is_historical[None, :])
        np.fill_diagonal(same, False)
        exp = sims.exp()
        # mask self-similarity out of the denominator
        off_diag = 1.0 - np.eye(len(batch), dtype=np.float32)
        denom = (exp * Tensor(off_diag)).sum(axis=1)
        numer = (exp * Tensor(same.astype(np.float32))).sum(axis=1)
        valid = same.any(axis=1)
        if not valid.any():
            return None
        ratio = (numer + 1e-12) / (denom + 1e-12)
        return -(ratio.log() * Tensor(valid.astype(np.float32))).sum() * (
            1.0 / max(valid.sum(), 1))
