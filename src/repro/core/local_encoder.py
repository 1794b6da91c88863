"""Local entity-aware attention recurrent encoder (paper §III-C).

Per query timestamp ``t_q`` the encoder walks the last ``m`` snapshots:

1. **Snapshot aggregation** — fuse the time-interval encoding (Eq. 2-3)
   and run the R-GCN over the snapshot's concurrent facts (Eq. 4).
2. **Sequence evolution** — advance the entity matrix with the
   entity-oriented GRU (Eq. 5) and the relation matrix with mean-pooled
   entity context + time gate (Eq. 6-8).
3. **Entity-aware attention** — re-weight the snapshot aggregates by
   their relevance to the queries (Eq. 9-11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import GRUCell, Module, Tensor, TimeGate
from ..nn.ops import fused_time_gate_evolve, index_select
from ..tkg.dataset import Snapshot
from .attention import LocalEntityAwareAttention, QueryKeyBuilder
from .time_encoding import TimeEncoding


@dataclass
class LocalEncoding:
    """Output bundle of the local encoder for one query timestamp."""

    entities: Tensor                 # (N, d) final local representation,
                                     # or (U, d) when ``attend`` got rows
    relations: Tensor                # (R*, d) evolved relation matrix
    snapshot_aggs: List[Tensor]      # per-snapshot R-GCN outputs
    last_agg: Optional[Tensor]       # aggregate of the most recent snapshot


@dataclass
class LocalRecurrentState:
    """The encoder's recurrent state after walking part of a window.

    This is the unit of incremental serving: the state after snapshot
    ``t`` plus one :meth:`LocalRecurrentEncoder.step` equals the state
    after snapshot ``t+1``, so an inference engine can advance it one
    ingested snapshot at a time instead of replaying the whole window.
    The walk is anchored to one ``query_time`` (the time-interval
    encoding of Eq. 2-3 measures distances from it), so states cached
    for one horizon are not reusable at another.
    """

    query_time: int
    entities: Tensor                 # H_t — evolved entity matrix
    relations: Tensor                # R_t — evolved relation matrix
    aggs: List[Tensor]               # per-snapshot aggregates (Eq. 4)
    steps: int = 0                   # snapshots consumed so far


class LocalRecurrentEncoder(Module):
    """The full local pipeline: aggregate -> evolve -> attend."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 time_dim: int, aggregator: Module,
                 rng: np.random.Generator,
                 use_time_encoding: bool = True,
                 use_entity_attention: bool = True,
                 attention_score: str = "additive"):
        super().__init__()
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.aggregator = aggregator
        self.time_encoding = TimeEncoding(dim, time_dim, rng) if use_time_encoding else None
        self.gru = GRUCell(dim, dim, rng)
        self.time_gate = TimeGate(dim, rng)
        self.query_key = QueryKeyBuilder(dim, rng)
        self.attention = (LocalEntityAwareAttention(dim, rng,
                                                    score=attention_score)
                          if use_entity_attention else None)

    # ------------------------------------------------------------------
    def _evolve_relations(self, relations: Tensor, entities: Tensor,
                          snapshot: Snapshot) -> Tensor:
        """Eq. 6-8: pool r-connected entities, then time-gate the update."""
        return fused_time_gate_evolve(
            entities, relations, snapshot.src, snapshot.rel,
            self.time_gate.weight, self.time_gate.bias)

    # -- incremental state API -----------------------------------------
    def initial_state(self, query_time: int, entities0: Tensor,
                      relations0: Tensor) -> LocalRecurrentState:
        """Fresh recurrent state anchored at ``query_time`` (H_0 / R_0)."""
        return LocalRecurrentState(query_time=query_time, entities=entities0,
                                   relations=relations0, aggs=[])

    def step(self, state: LocalRecurrentState,
             snapshot: Snapshot) -> LocalRecurrentState:
        """Advance the recurrent state by one snapshot (Eq. 2-8).

        Returns a new state; the input state is left untouched so a
        serving engine may checkpoint/fork states freely.
        """
        h_in = state.entities
        if self.time_encoding is not None:
            h_in = self.time_encoding(h_in, state.query_time - snapshot.time)
        agg = self.aggregator(h_in, state.relations, snapshot.src,
                              snapshot.rel, snapshot.dst)        # Eq. 4
        entities = self.gru(agg, state.entities)                 # Eq. 5
        relations = self._evolve_relations(state.relations, entities,
                                           snapshot)             # Eq. 6-8
        return LocalRecurrentState(query_time=state.query_time,
                                   entities=entities, relations=relations,
                                   aggs=state.aggs + [agg],
                                   steps=state.steps + 1)

    def encode_window(self, snapshots: Sequence[Snapshot], query_time: int,
                      entities0: Tensor,
                      relations0: Tensor) -> LocalRecurrentState:
        """Walk a whole window: ``initial_state`` + one ``step`` each.

        The loop over snapshots is inherently sequential — Eq. 5 feeds
        each GRU step the previous step's output — so the window cannot
        be batched into one segment-keyed pass without changing the
        recurrence.  The speed lever is instead *inside* each step: a
        step is three fused autodiff nodes (relational pass, GRU,
        time-gated evolve) plus attention, instead of ~40 generic ops.
        """
        state = self.initial_state(query_time, entities0, relations0)
        for snapshot in snapshots:
            state = self.step(state, snapshot)
        return state

    def attend(self, state: LocalRecurrentState, entities0: Tensor,
               query_subjects: np.ndarray,
               query_relations: np.ndarray,
               rows: Optional[np.ndarray] = None) -> LocalEncoding:
        """Apply the query-dependent attention (Eq. 9-11) to a state.

        This is the only query-dependent part of the local pipeline, so a
        serving engine caches the state once per timestamp and re-runs
        just this method per query batch.  Attention is row-wise, so
        ``rows`` (sorted unique entity ids covering ``query_subjects``)
        restricts the output to those rows; every other row equals the
        query-free attention (empty query arrays, zero relation context).
        """
        base, evolved, aggs = entities0, state.entities, state.aggs
        if rows is not None:
            base = index_select(base, rows)
            evolved = index_select(evolved, rows)
            aggs = [index_select(agg, rows) for agg in aggs]
            query_subjects = np.searchsorted(rows, query_subjects)
        key = self.query_key(base, state.relations, query_subjects,
                             query_relations)                   # Eq. 9
        if self.attention is not None and aggs:
            final = self.attention(evolved, aggs, key)          # Eq. 10-11
        else:
            final = evolved
        return LocalEncoding(entities=final, relations=state.relations,
                             snapshot_aggs=state.aggs,
                             last_agg=state.aggs[-1] if state.aggs else None)

    def forward(self, snapshots: Sequence[Snapshot], query_time: int,
                entities0: Tensor, relations0: Tensor,
                query_subjects: np.ndarray,
                query_relations: np.ndarray) -> LocalEncoding:
        """Encode the local window for queries at ``query_time``.

        ``entities0`` / ``relations0`` are the static base embedding
        matrices (H_0 / R_0); ``query_subjects`` / ``query_relations`` are
        aligned id arrays of the timestamp's query batch.
        """
        state = self.encode_window(snapshots, query_time, entities0,
                                   relations0)
        return self.attend(state, entities0, query_subjects, query_relations)
