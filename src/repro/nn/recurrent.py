"""Recurrent cells used by the snapshot-sequence evolution pipeline.

The paper evolves entity embeddings across the local snapshot window with
an entity-oriented GRU (Eq. 5) and evolves relation embeddings with a
sigmoid *time gate* (Eq. 7-8).  Both are implemented here.
"""

from __future__ import annotations

import numpy as np

from . import init as weight_init
from .modules import Module, Parameter
from .ops import fused_gru_step
from .tensor import Tensor


class GRUCell(Module):
    """Single-step gated recurrent unit.

    Follows Cho et al. (2014):

    .. math::
        z = \\sigma(x W_{xz} + h W_{hz} + b_z) \\\\
        r = \\sigma(x W_{xr} + h W_{hr} + b_r) \\\\
        n = \\tanh(x W_{xn} + (r \\odot h) W_{hn} + b_n) \\\\
        h' = (1 - z) \\odot n + z \\odot h

    Inputs and hidden states are 2-D ``(rows, dim)`` — for LogCL the rows
    are *all entities* and one GRU step advances the whole embedding matrix
    by one snapshot (Eq. 5).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(weight_init.xavier_uniform((input_dim, 3 * hidden_dim), rng))
        self.w_h = Parameter(weight_init.xavier_uniform((hidden_dim, 3 * hidden_dim), rng))
        self.bias = Parameter(weight_init.zeros((3 * hidden_dim,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return fused_gru_step(x, h, self.w_x, self.w_h, self.bias,
                              self.hidden_dim)


class TimeGate(Module):
    """Sigmoid time gate for relation evolution (paper Eq. 7-8).

    .. math::
        U_t = \\sigma(W_3 R'_t + b) \\\\
        R_{t+1} = U_t \\odot R'_t + (1 - U_t) \\odot R_t
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(weight_init.xavier_uniform((dim, dim), rng))
        self.bias = Parameter(weight_init.zeros((dim,)))

    def forward(self, candidate: Tensor, previous: Tensor) -> Tensor:
        gate = (candidate @ self.weight + self.bias).sigmoid()
        return gate * candidate + (1.0 - gate) * previous
