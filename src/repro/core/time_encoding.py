"""Periodic time-interval encoding (paper Eq. 2-3).

Cyclically recurring facts (periodic meetings, weekly reports) leave a
signature in the *interval* between a historical snapshot and the query
time.  Following HisMatch [38], the interval ``d = t_q - t_i`` is encoded
with a learnable cosine feature bank and fused into the entity embedding:

.. math::
    \\varphi(d) = \\cos(d \\cdot w_t + b_t) \\qquad
    \\vec h_t = W_0 [h_t \\, \\| \\, \\varphi(d)]
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Parameter, Tensor
from ..nn import init as weight_init
from ..nn.dtypes import default_float
from ..nn.ops import fused_time_fuse


class TimeEncoding(Module):
    """Learnable cosine encoding of the snapshot-to-query interval."""

    def __init__(self, entity_dim: int, time_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.time_dim = time_dim
        # Initialize frequencies log-uniformly like positional encodings so
        # different dimensions resolve different period lengths.
        freqs = 1.0 / np.power(10.0, np.linspace(0, 2, time_dim))
        self.w_t = Parameter(freqs.astype(default_float()))
        self.b_t = Parameter(weight_init.zeros((time_dim,)))
        # W_0 multiplies the evolving entity state at every snapshot, so a
        # generic random init destabilizes the recurrence.  Initialize as
        # [I; small]: identity on the entity block, a small random map on
        # the time block — the fused embedding starts as "h plus a faint
        # time feature" and learns the mixing from there.
        fuse = np.zeros((entity_dim + time_dim, entity_dim),
                        dtype=default_float())
        fuse[:entity_dim] = np.eye(entity_dim, dtype=default_float())
        fuse[entity_dim:] = 0.1 * weight_init.xavier_uniform(
            (time_dim, entity_dim), rng)
        self.w_fuse = Parameter(fuse)

    def forward(self, h: Tensor, interval: int) -> Tensor:
        """Fuse phi(t_q - t_i) into every row of the entity matrix ``h``."""
        return fused_time_fuse(h, self.w_t, self.b_t, self.w_fuse, interval)
