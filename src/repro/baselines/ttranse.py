"""TTransE baseline (Leblay & Chekol, 2018) — interpolation family.

Translation with an additive time embedding: ``f = -||h_s + r + w_t -
h_o||_1``.  Timestamps get their own embedding rows; rows for *future*
(test-period) timestamps are never trained, which is precisely why
interpolation methods underperform on extrapolation (§IV-C observation 4).
A ``clamp_unseen`` option maps unseen timestamps to the last trained row,
matching the common evaluation practice.
"""

from __future__ import annotations

import numpy as np

from ..nn import Embedding, Tensor
from ..nn.ops import index_select
from .base import EmbeddingBaseline


class TTransE(EmbeddingBaseline):
    """Time-aware translation scoring."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 num_timestamps: int, seed: int = 0,
                 clamp_unseen: bool = True):
        super().__init__(num_entities, num_relations, dim, seed)
        self.num_timestamps = num_timestamps
        self.clamp_unseen = clamp_unseen
        self.time_embedding = Embedding(num_timestamps, dim,
                                        self._extra_rngs[0], scale=0.1)
        self.max_trained_time = -1

    def _time_rows(self, t: int, count: int) -> np.ndarray:
        if t >= self.num_timestamps or (self.clamp_unseen
                                        and self.max_trained_time >= 0
                                        and t > self.max_trained_time):
            t = min(self.max_trained_time if self.max_trained_time >= 0 else 0,
                    self.num_timestamps - 1)
        return np.full(count, t, dtype=np.int64)

    def score_batch(self, batch) -> Tensor:
        if self.training:
            self.max_trained_time = max(self.max_trained_time, batch.time)
        entities = self.entities()
        subj = index_select(entities, batch.subjects)
        rel = index_select(self.relation_embedding.all(), batch.relations)
        times = self.time_embedding(self._time_rows(batch.time, len(batch)))
        translated = subj + rel + times                      # (Q, d)
        q, n = translated.shape[0], entities.shape[0]
        diff = (translated.reshape(q, 1, self.dim)
                - entities.reshape(1, n, self.dim))
        return -diff.abs().sum(axis=-1)
