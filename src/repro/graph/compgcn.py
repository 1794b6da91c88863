"""CompGCN-style aggregator (Vashishth et al., ICLR 2020) — Table V variant.

CompGCN composes the source entity with the relation via an explicit
composition operator before the linear transform.  Two compositions from
the paper's Table V are supported:

* ``sub``  — :math:`\\phi(h_s, r) = h_s - r` (TransE-style subtraction)
* ``mult`` — :math:`\\phi(h_s, r) = h_s \\odot r` (DistMult-style product)
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Parameter, Tensor
from ..nn import init as weight_init
from ..nn.ops import fused_relational_pass
from .base import RelationalGraphLayer

_COMPOSITIONS = ("sub", "mult")


class CompGCNLayer(RelationalGraphLayer):
    """One CompGCN message-passing round with a chosen composition.

    evolve_relations: bool
        When True the layer also carries a ``w_rel`` matrix used by the
        stack to evolve relation embeddings between rounds; the last layer
        of a stack omits it (its update would be discarded).
    """

    def __init__(self, dim: int, rng: np.random.Generator,
                 composition: str = "sub", dropout_rate: float = 0.2,
                 evolve_relations: bool = False):
        super().__init__()
        if composition not in _COMPOSITIONS:
            raise ValueError(f"composition must be one of {_COMPOSITIONS}, "
                             f"got {composition!r}")
        self.composition = composition
        self.w_message = Parameter(weight_init.xavier_uniform((dim, dim), rng))
        self.w_self = Parameter(weight_init.xavier_uniform((dim, dim), rng))
        self.w_rel = (Parameter(weight_init.xavier_uniform((dim, dim), rng))
                      if evolve_relations else None)
        self.dropout_rate = dropout_rate
        self._rng = rng

    def forward(self, h: Tensor, r: Tensor, src: np.ndarray,
                rel: np.ndarray, dst: np.ndarray) -> Tensor:
        return fused_relational_pass(
            h, r, self.w_message, self.w_self, src, rel, dst, h.shape[0],
            composition=self.composition, activation=True,
            training=self.training, dropout_rate=self.dropout_rate,
            rng=self._rng)

    def update_relations(self, r: Tensor) -> Tensor:
        """CompGCN also evolves relation embeddings through W_rel."""
        return r @ self.w_rel


class CompGCN(Module):
    """Stack of CompGCN layers; relations are co-evolved across layers."""

    def __init__(self, dim: int, num_layers: int, rng: np.random.Generator,
                 composition: str = "sub", dropout_rate: float = 0.2):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.layers = [
            CompGCNLayer(dim, rng, composition, dropout_rate,
                         evolve_relations=(i < num_layers - 1))
            for i in range(num_layers)]

    def forward(self, h: Tensor, r: Tensor, src: np.ndarray,
                rel: np.ndarray, dst: np.ndarray) -> Tensor:
        for i, layer in enumerate(self.layers):
            h = layer(h, r, src, rel, dst)
            if i < len(self.layers) - 1:  # last update would be discarded
                r = layer.update_relations(r)
        return h
