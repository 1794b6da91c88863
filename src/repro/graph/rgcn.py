"""The paper's R-GCN aggregator (Eq. 4 / Eq. 12).

This is the RE-GCN-style variant of R-GCN used by LogCL: instead of one
weight matrix per relation (the original Schlichtkrull formulation, which
is parameter-hungry), the relation embedding is *added* to the source
entity embedding and a single shared matrix transforms the message:

.. math::
    h_o^{(l+1)} = \\sigma_1\\Big(\\frac{1}{c_o}
        \\sum_{(e_s, r)} W_1^{(l)} (h_s^{(l)} + r) + W_2^{(l)} h_o^{(l)}\\Big)

with :math:`\\sigma_1` = RReLU and :math:`c_o` the in-degree of ``o``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Module, Parameter, Tensor
from ..nn import init as weight_init
from ..nn.ops import fused_relational_pass
from .base import RelationalGraphLayer


class RGCNLayer(RelationalGraphLayer):
    """One message-passing round of the paper's R-GCN (Eq. 4)."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 dropout_rate: float = 0.2, activation: bool = True):
        super().__init__()
        self.dim = dim
        self.w_message = Parameter(weight_init.xavier_uniform((dim, dim), rng))
        self.w_self = Parameter(weight_init.xavier_uniform((dim, dim), rng))
        self.dropout_rate = dropout_rate
        self.activation = activation
        self._rng = rng

    def forward(self, h: Tensor, r: Tensor, src: np.ndarray,
                rel: np.ndarray, dst: np.ndarray) -> Tensor:
        return fused_relational_pass(
            h, r, self.w_message, self.w_self, src, rel, dst, h.shape[0],
            composition="add", activation=self.activation,
            training=self.training, dropout_rate=self.dropout_rate,
            rng=self._rng)


class RGCN(Module):
    """A stack of :class:`RGCNLayer` rounds (the paper uses 2 layers)."""

    def __init__(self, dim: int, num_layers: int, rng: np.random.Generator,
                 dropout_rate: float = 0.2):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.layers = [RGCNLayer(dim, rng, dropout_rate) for _ in range(num_layers)]

    def forward(self, h: Tensor, r: Tensor, src: np.ndarray,
                rel: np.ndarray, dst: np.ndarray) -> Tensor:
        for layer in self.layers:
            h = layer(h, r, src, rel, dst)
        return h
