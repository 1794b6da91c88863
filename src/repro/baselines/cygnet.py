"""CyGNet baseline (Zhu et al., AAAI 2021) — copy-generation network.

CyGNet predicts future facts by mixing two modes:

* **copy** — a masked distribution over the *historical vocabulary* of the
  query: entities that already answered ``(s, r)`` somewhere in the past
  get a learned boost proportional to how often they occurred;
* **generation** — an ordinary embedding scorer over all entities.

A learned gate balances the modes.  The model captures the paper's
"global repetition" pattern and nothing else, which is exactly its
characterization in §I ("the predictions often lean towards the most
frequently occurring facts").
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Parameter, Tensor
from ..nn.ops import concat, index_select, log_softmax
from .base import EmbeddingBaseline


class CyGNet(EmbeddingBaseline):
    """Copy-generation scorer over the historical answer vocabulary."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 seed: int = 0, copy_strength: float = 5.0):
        super().__init__(num_entities, num_relations, dim, seed)
        rng = self._extra_rngs[0]
        self.generate_head = Linear(2 * dim, dim, rng)
        # Gate logit: sigmoid(gate) blends copy vs. generation scores.
        self.gate = Parameter(np.zeros(1, dtype=np.float32))
        self.copy_strength = copy_strength

    def _copy_scores(self, batch) -> np.ndarray:
        """Frequency-weighted mask over each query's historical answers."""
        counts = batch.history_index.answer_count_matrix(
            batch.subjects, batch.relations, self.num_entities)
        total = np.maximum(counts.sum(axis=1, keepdims=True), 1)
        return (counts / total).astype(np.float32)

    def score_batch(self, batch) -> Tensor:
        entities = self.entities()
        subj = index_select(entities, batch.subjects)
        rel = index_select(self.relation_embedding.all(), batch.relations)
        query = self.generate_head(concat([subj, rel], axis=-1)).tanh()
        generation = query @ entities.T                       # (Q, N)
        copy = Tensor(self._copy_scores(batch) * self.copy_strength)
        alpha = self.gate.sigmoid()                            # scalar in (0,1)
        return generation * (1.0 - alpha) + copy * alpha
