"""Local-global query contrast module (paper §III-E).

Each query gets two views: a *local* embedding built from the most recent
snapshot aggregate and the evolved relation (Eq. 15) and a *global*
embedding built from the subgraph aggregate and the base relation
(Eq. 16).  Four InfoNCE losses (Eq. 17) tie the views together:

* ``lg`` — local anchors vs. global candidates,
* ``gl`` — global anchors vs. local candidates,
* ``ll`` — local vs. local (uniformity within the local view),
* ``gg`` — global vs. global.

The final contrast loss averages the enabled terms.  Positives are the
two views of the same query; every other query in the timestamp's batch
acts as a negative.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import MLP, Module, Tensor
from ..nn.ops import fused_query_contrast

VALID_STRATEGIES = ("lg", "gl", "ll", "gg")


class QueryContrastModule(Module):
    """Projection heads + multi-strategy InfoNCE for query views."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 temperature: float = 0.07,
                 strategies: Sequence[str] = VALID_STRATEGIES,
                 projection_dim: int = 0):
        super().__init__()
        unknown = set(strategies) - set(VALID_STRATEGIES)
        if unknown:
            raise ValueError(f"unknown contrast strategies {sorted(unknown)}; "
                             f"valid: {VALID_STRATEGIES}")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self.strategies = tuple(strategies)
        proj = projection_dim or dim
        self.local_head = MLP([2 * dim, dim, proj], rng)
        self.global_head = MLP([2 * dim, dim, proj], rng)

    def forward(self, local_agg: Tensor, relations: Tensor,
                global_agg: Tensor, relations0: Tensor,
                query_subjects: np.ndarray,
                query_relations: np.ndarray) -> Tensor:
        """L_cl for one query batch (Eq. 15-17) as one autodiff node.

        The local view of query ``(s, r)`` is ``[local_agg[s] ||
        relations[r]]``, the global view ``[global_agg[s] ||
        relations0[r]]``; each goes through its projection head onto
        the unit sphere, and the enabled InfoNCE strategies are
        averaged.  A batch of fewer than two queries has no negatives
        and yields a zero loss.
        """
        local_layers = self.local_head.net.layers
        global_layers = self.global_head.net.layers
        return fused_query_contrast(
            local_agg, relations, global_agg, relations0,
            query_subjects, query_relations,
            (local_layers[0].weight, local_layers[0].bias,
             local_layers[2].weight, local_layers[2].bias),
            (global_layers[0].weight, global_layers[0].bias,
             global_layers[2].weight, global_layers[2].bias),
            self.temperature, self.strategies)
