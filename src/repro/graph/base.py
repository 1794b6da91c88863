"""Shared interfaces and helpers for relational graph layers.

All layers operate on *edge arrays* — aligned int vectors ``src``,
``rel``, ``dst`` — and full node/relation embedding matrices, mirroring
the way DGL kernels consume a graph.  Aggregation is in-degree-normalized
sum (the paper's ``1/c_o`` in Eq. 4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Module, Tensor
from ..nn.ops import degree_norm, index_select


def in_degree_norm(dst: np.ndarray, num_nodes: int,
                   dtype=np.float32) -> np.ndarray:
    """Per-destination 1/in-degree normalizer (1 for isolated nodes).

    Delegates to :func:`repro.nn.ops.degree_norm` so repeated layers and
    epochs over the same snapshot reuse the memoized bincount instead of
    rescanning the edge array.
    """
    return degree_norm(dst, num_nodes, dtype)


class RelationalGraphLayer(Module):
    """Base class: one round of relation-aware message passing.

    Subclasses implement :meth:`forward(h, r, src, rel, dst)` returning
    updated node embeddings of the same shape as ``h``.
    """

    def forward(self, h: Tensor, r: Tensor, src: np.ndarray,
                rel: np.ndarray, dst: np.ndarray) -> Tensor:  # pragma: no cover
        raise NotImplementedError


def gather(h: Tensor, index: np.ndarray) -> Tensor:
    """Row-gather shorthand used across the layers."""
    return index_select(h, index)
