"""TiRGN baseline (Li et al., IJCAI 2022) — local + global prediction mix.

TiRGN pairs a time-guided recurrent encoder (local historical patterns)
with a *global history* component that restricts/boosts candidates that
ever answered the query in the past, combining the two distributions at
the output.  That is the "integrate global and local final prediction
results" design the paper contrasts LogCL against: the global signal only
gates the final scores instead of contributing encoded representations.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import ConvTransE
from ..core.local_encoder import LocalRecurrentEncoder
from ..graph import build_aggregator
from ..nn import Parameter, Tensor
from ..nn.ops import index_select, l2_normalize
from .base import EmbeddingBaseline


class TiRGN(EmbeddingBaseline):
    """Time-guided recurrent encoder + global-history score gating."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 seed: int = 0, num_layers: int = 2, time_dim: int = 8,
                 dropout: float = 0.2, num_kernels: int = 32,
                 history_weight: float = 0.2, learn_history_weight: bool = True):
        if not 0.0 <= history_weight <= 1.0:
            raise ValueError("history_weight must be in [0, 1]")
        super().__init__(num_entities, num_relations, dim, seed)
        aggregator = build_aggregator("rgcn", dim, num_layers,
                                      self._extra_rngs[0], dropout)
        # time-guided: TiRGN keeps the periodic time encoding (unlike RE-GCN)
        self.encoder = LocalRecurrentEncoder(
            num_entities, self.num_relations_aug, dim, time_dim=time_dim,
            aggregator=aggregator, rng=self._extra_rngs[1],
            use_time_encoding=True, use_entity_attention=False)
        self.decoder = ConvTransE(dim, self._extra_rngs[1],
                                  num_kernels=num_kernels,
                                  dropout_rate=dropout)
        # TiRGN learns the raw/copy mixing; a logit parameter reproduces
        # that (sigmoid(gate) = mixing weight), initialized at
        # ``history_weight`` and trained unless ``learn_history_weight``
        # is disabled.
        logit = float(np.log(history_weight / (1.0 - history_weight)))
        if learn_history_weight:
            self.history_gate = Parameter(
                np.full(1, logit, dtype=np.float32))
        else:
            self.history_gate = None
            self._fixed_weight = history_weight

    def _history_mask(self, batch) -> np.ndarray:
        """Frequency-normalized distribution over historical answers.

        TiRGN's global history encoder produces a *distribution* over the
        query's historical vocabulary; a frequency-proportional score is
        the non-parametric equivalent (a hard binary mask would overstate
        the component relative to the published model).
        """
        counts = batch.history_index.answer_count_matrix(
            batch.subjects, batch.relations, self.num_entities)
        total = np.maximum(counts.sum(axis=1, keepdims=True), 1)
        return (counts / total).astype(np.float32)

    def score_batch(self, batch) -> Tensor:
        encoding = self.encoder(batch.snapshots, batch.time, self.entities(),
                                self.relation_embedding.all(),
                                batch.subjects, batch.relations)
        entities = l2_normalize(encoding.entities)
        subj = index_select(entities, batch.subjects)
        rel = index_select(encoding.relations, batch.relations)
        local_scores = self.decoder(subj, rel, entities)
        # Global component: additive boost on historical answers, scaled to
        # the live magnitude of the local scores so neither term vanishes.
        boost = float(np.abs(local_scores.data).mean() + 1.0)
        history = Tensor(self._history_mask(batch) * boost)
        if self.history_gate is not None:
            w = self.history_gate.sigmoid()
            return local_scores * (1.0 - w) + history * w
        return (local_scores * (1.0 - self._fixed_weight)
                + history * self._fixed_weight)
