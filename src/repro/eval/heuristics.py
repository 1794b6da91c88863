"""Non-learned reference scorers: frequency and recency heuristics.

These two oracles bound what *static memorization* and *pure recency*
can achieve on a dataset, which makes them invaluable diagnostics:

* a learned static model (DistMult & co.) cannot beat
  :class:`FrequencyHeuristic` in expectation — it *is* the static
  channel's ceiling;
* :class:`RecencyHeuristic` is the trivial temporal strategy ("predict
  whatever answered this query most recently"); temporal models should
  beat it by exploiting structure (succession, periodicity).

Both implement the standard :class:`repro.interface.ExtrapolationModel`
surface so they plug into ``repro.eval.evaluate`` directly.  They have no
parameters; ``loss_on`` raises.
"""

from __future__ import annotations

import numpy as np

from ..interface import ExtrapolationModel
from ..nn import Tensor


class FrequencyHeuristic(ExtrapolationModel):
    """Scores candidates by historical co-occurrence count with (s, r)."""

    def __init__(self, num_entities: int):
        super().__init__()
        self.num_entities = num_entities

    def predict_on(self, batch) -> np.ndarray:
        return batch.history_index.answer_count_matrix(
            batch.subjects, batch.relations, self.num_entities,
            dtype=np.float64)

    def loss_on(self, batch) -> Tensor:
        raise TypeError("heuristic scorers have no parameters to train")


class RecencyHeuristic(ExtrapolationModel):
    """Scores candidates by how recently they answered (s, r).

    The most recent historical answer gets the highest score; entities
    that never answered score zero.
    """

    def __init__(self, num_entities: int):
        super().__init__()
        self.num_entities = num_entities
        self._last_seen = {}
        self._horizon = -1
        self._source_index = None

    def predict_on(self, batch) -> np.ndarray:
        self._ingest(batch)
        scores = np.zeros((len(batch), self.num_entities), dtype=np.float64)
        for row, (s, r) in enumerate(zip(batch.subjects, batch.relations)):
            for obj, t in self._last_seen.get((int(s), int(r)), {}).items():
                scores[row, obj] = t + 1.0
        return scores

    def _ingest(self, batch) -> None:
        """Record last-seen times from the shared history index facts.

        State accumulates incrementally while the same history index
        advances forward; when the batch carries a *different* index (a
        fresh evaluation pass, possibly on another dataset) or one whose
        horizon rewound, the accumulated ``_last_seen`` map would poison
        the new run, so it is rebuilt from scratch.
        """
        index = batch.history_index
        if index is not self._source_index or index.horizon < self._horizon:
            self._last_seen = {}
            self._horizon = -1
            self._source_index = index
        # walk only the newly indexed facts since the previous call
        for s, r, o, t in index.facts_since(self._horizon):
            self._last_seen.setdefault((int(s), int(r)), {})[int(o)] = int(t)
        self._horizon = batch.time

    def loss_on(self, batch) -> Tensor:
        raise TypeError("heuristic scorers have no parameters to train")
