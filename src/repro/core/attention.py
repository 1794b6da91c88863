"""Entity-aware attention (paper Eq. 9-11 and Eq. 13-14).

The local variant scores each snapshot aggregate against a query-aware
entity key and softmax-normalizes *across snapshots*, so snapshots that
carry facts relevant to the query dominate the final representation (the
paper's Fig. 1 motivation).  The global variant gates the subgraph
aggregate per entity.

Every module here is row-wise: output row ``e`` reads only row ``e`` of
its inputs and the relations of the queries whose subject is ``e``.
Inference exploits that by running them on the query subjects' rows
(subjects relabelled to positions in those rows) and reusing the
query-free rows — those built from empty query arrays — for every
other entity.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..nn import Module, Parameter, Tensor
from ..nn import init as weight_init
from ..nn.ops import (concat, fused_global_gate, fused_local_attention,
                      fused_query_key, softmax, stack)


class QueryKeyBuilder(Module):
    """Builds the query-aware entity key ``h^{e_q}_{t_q}`` (Eq. 9).

    For every entity the mean of the relation embeddings it queries with
    at ``t_q`` is concatenated with its base embedding and projected:
    ``W_4 [f_ave(r_{t_q}) || h]``.  Entities that are not query subjects
    at ``t_q`` get a zero relation context.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.w4 = Parameter(weight_init.xavier_uniform((2 * dim, dim), rng))

    def forward(self, base_entities: Tensor, relations: Tensor,
                query_subjects: np.ndarray,
                query_relations: np.ndarray) -> Tensor:
        return fused_query_key(base_entities, relations, query_subjects,
                               query_relations, self.w4, self.dim)


class LocalEntityAwareAttention(Module):
    """Snapshot-level attention over the local window (Eq. 10-11).

    Scores each snapshot's aggregated entity matrix against the query key,
    softmax-normalizes per entity across the window, and adds the weighted
    sum to the final evolved representation.
    """

    def __init__(self, dim: int, rng: np.random.Generator,
                 score: str = "additive"):
        super().__init__()
        if score not in ("additive", "dot"):
            raise ValueError("score must be 'additive' or 'dot'")
        self.score = score
        self.dim = dim
        self.w5 = Parameter(weight_init.xavier_uniform((dim, 1), rng))

    def _score(self, agg: Tensor, query_key: Tensor) -> Tensor:
        if self.score == "dot":
            # entity-specific relevance: each entity's own key direction
            scale = 1.0 / float(np.sqrt(self.dim))
            return (agg * query_key).sum(axis=-1, keepdims=True) * scale
        return (agg + query_key) @ self.w5  # paper Eq. 10

    def forward(self, evolved: Tensor, snapshot_aggs: Sequence[Tensor],
                query_key: Tensor) -> Tensor:
        if not snapshot_aggs:
            return evolved
        if self.score == "additive":
            return fused_local_attention(evolved, list(snapshot_aggs),
                                         query_key, self.w5)
        scores = [self._score(agg, query_key) for agg in snapshot_aggs]
        score_mat = concat(scores, axis=-1)                 # (N, m)
        alpha = softmax(score_mat, axis=-1)                  # (N, m)
        stacked = stack(list(snapshot_aggs), axis=1)         # (N, m, d)
        weighted = stacked * alpha.reshape(alpha.shape[0], alpha.shape[1], 1)
        return evolved + weighted.sum(axis=1)


class GlobalEntityAwareAttention(Module):
    """Per-entity gate on the global subgraph aggregate (Eq. 13-14).

    With a single global graph there is nothing to softmax across, so the
    score acts as a sigmoid gate: ``beta = sigma(W_6 (h_g + h))`` and
    ``h_g' = beta * h_g``.  (The paper writes sigma_2 for both this and the
    snapshot softmax; the gate reading is the one that type-checks for a
    single aggregate.)
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.w6 = Parameter(weight_init.xavier_uniform((dim, 1), rng))

    def forward(self, global_agg: Tensor, query_key: Tensor) -> Tensor:
        return fused_global_gate(global_agg, query_key, self.w6)
