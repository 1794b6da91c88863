"""Global entity-aware attention encoder (paper §III-D).

Runs an R-GCN over the *static* historical query subgraph produced by
:class:`repro.core.subgraph.GlobalHistoryIndex` (Eq. 12), then applies the
global entity-aware attention gate (Eq. 13-14).  Inputs are the randomly
initialized base embeddings — the subgraph carries no temporal
information by construction.

At inference only the query subjects' rows of the global matrix reach
the score (Eq. 19 fuses them on the query side), so :meth:`forward`
can take those ``rows`` and run the aggregator on their L-hop
in-neighbourhood only (:func:`receptive_field`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..nn import Module, Tensor
from ..nn.ops import index_select
from .attention import GlobalEntityAwareAttention, QueryKeyBuilder


@dataclass
class GlobalEncoding:
    """Output bundle of the global encoder for one query timestamp."""

    entities: Tensor          # (N, d) attended global representation
    raw_aggregate: Tensor     # (N, d) pre-attention R-GCN output
    # Both are (U, d) when ``forward`` was given U rows.


def receptive_field(rows: np.ndarray, src: np.ndarray, rel: np.ndarray,
                    dst: np.ndarray, hops: int, num_nodes: int
                    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """The block of a ``hops``-layer message pass that ``rows`` depend on.

    ``N_0 = rows`` and ``N_{k+1} = N_k ∪ src(edges into N_k)``.  Returns
    the sorted node ids ``N_hops`` and the edges whose ``dst`` lies in
    ``N_{hops-1}``, relabelled to positions in that node array and kept
    in their original order.  Every kept destination keeps all of its
    in-edges, so in-degree norms and per-destination sums match the full
    graph: after ``hops`` layers over the block, the rows of ``N_0``
    equal those of a pass over the whole graph.
    """
    member = np.zeros(num_nodes, dtype=bool)
    member[rows] = True
    for _ in range(hops - 1):
        member[src[member[dst]]] = True
    keep = member[dst]
    member[src[keep]] = True
    nodes = np.flatnonzero(member)
    position = np.empty(num_nodes, dtype=np.int64)
    position[nodes] = np.arange(len(nodes))
    return nodes, (position[src[keep]], rel[keep], position[dst[keep]])


class GlobalHistoryEncoder(Module):
    """Static-subgraph R-GCN plus the global attention gate."""

    def __init__(self, dim: int, aggregator: Module,
                 rng: np.random.Generator,
                 use_entity_attention: bool = True):
        super().__init__()
        self.dim = dim
        self.aggregator = aggregator
        self.query_key = QueryKeyBuilder(dim, rng)
        self.attention = (GlobalEntityAwareAttention(dim, rng)
                          if use_entity_attention else None)

    def forward(self, entities0: Tensor, relations0: Tensor,
                src: np.ndarray, rel: np.ndarray, dst: np.ndarray,
                query_subjects: np.ndarray,
                query_relations: np.ndarray,
                rows: Optional[np.ndarray] = None) -> GlobalEncoding:
        """Encode the subgraph; with ``rows`` (sorted unique entity ids
        covering ``query_subjects``) only those rows are produced."""
        base = entities0
        if rows is not None:
            base = index_select(entities0, rows)
            query_subjects = np.searchsorted(rows, query_subjects)
        if len(src) > 0:
            if rows is None:
                agg = self.aggregator(entities0, relations0, src, rel, dst)
            else:
                nodes, edges = receptive_field(
                    rows, src, rel, dst, len(self.aggregator.layers),
                    entities0.shape[0])
                block = self.aggregator(index_select(entities0, nodes),
                                        relations0, *edges)
                agg = index_select(block, np.searchsorted(nodes, rows))
        else:
            # No history yet (first timestamps): fall back to the base
            # embeddings so downstream fusion stays well-defined.
            agg = base
        if self.attention is not None:
            key = self.query_key(base, relations0, query_subjects,
                                 query_relations)
            attended = self.attention(agg, key)                 # Eq. 13-14
        else:
            attended = agg
        return GlobalEncoding(entities=attended, raw_aggregate=agg)
