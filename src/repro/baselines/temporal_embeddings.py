"""Temporal-embedding baselines: TA-DistMult, DE-SimplE, TNTComplEx.

Three members of the interpolation family in the paper's Table III.
They attach temporal information to the *embeddings* (rather than
modeling evolution), which lets them fit historical timestamps but — as
the paper's §IV-C observes — leaves them weak on unseen future
timestamps: the time-dependent parts of their representations are never
trained for the test period.  Like :class:`repro.baselines.TTransE`
they clamp unseen timestamps to the latest trained one.

* **TA-DistMult** (García-Durán et al., 2018) — the relation embedding
  is modulated by a learned embedding of the timestamp (a simplification
  of the original character-LSTM over time tokens, appropriate for
  integer snapshot ids).
* **DE-SimplE** (Goel et al., 2020) — *diachronic* entity embeddings: a
  fraction of each entity vector oscillates with learned frequency and
  phase, so entity meaning drifts smoothly over time.
* **TNTComplEx** (Lacroix et al., 2020) — 4th-order tensor
  factorization: ComplEx scoring with a relation component that is
  multiplied by a timestamp embedding, plus a time-independent part.
"""

from __future__ import annotations

import numpy as np

from ..nn import Embedding, Tensor
from ..nn.ops import index_select
from .base import EmbeddingBaseline


class _TimeClampMixin:
    """Shared clamp-unseen-timestamps behaviour (see TTransE)."""

    def _init_time_tracking(self, num_timestamps: int) -> None:
        self.num_timestamps = num_timestamps
        self.max_trained_time = -1

    def _effective_time(self, t: int) -> int:
        if self.training:
            self.max_trained_time = max(self.max_trained_time, t)
            return min(t, self.num_timestamps - 1)
        if self.max_trained_time >= 0 and t > self.max_trained_time:
            t = self.max_trained_time
        return min(t, self.num_timestamps - 1)


class TADistMult(EmbeddingBaseline, _TimeClampMixin):
    """DistMult with time-modulated relations."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 num_timestamps: int, seed: int = 0):
        super().__init__(num_entities, num_relations, dim, seed)
        self._init_time_tracking(num_timestamps)
        self.time_embedding = Embedding(num_timestamps, dim,
                                        self._extra_rngs[0], scale=0.1)

    def score_batch(self, batch) -> Tensor:
        t = self._effective_time(batch.time)
        entities = self.entities()
        subj = index_select(entities, batch.subjects)
        rel = index_select(self.relation_embedding.all(), batch.relations)
        time_rows = self.time_embedding(
            np.full(len(batch), t, dtype=np.int64))
        temporal_rel = rel * (1.0 + time_rows)   # modulated relation
        return (subj * temporal_rel) @ entities.T


class DESimplE(EmbeddingBaseline, _TimeClampMixin):
    """Diachronic entity embeddings with a DistMult-style scorer.

    Each entity vector's first ``temporal_fraction`` of dimensions is
    multiplied by ``sin(w_e * t + b_e)`` with per-entity learned
    frequency/phase; the rest is static.
    """

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 num_timestamps: int, seed: int = 0,
                 temporal_fraction: float = 0.5):
        if not 0.0 < temporal_fraction <= 1.0:
            raise ValueError("temporal_fraction must be in (0, 1]")
        super().__init__(num_entities, num_relations, dim, seed)
        self._init_time_tracking(num_timestamps)
        self.temporal_dims = max(int(dim * temporal_fraction), 1)
        self.frequency = Embedding(num_entities, self.temporal_dims,
                                   self._extra_rngs[0], scale=0.1)
        self.phase = Embedding(num_entities, self.temporal_dims,
                               self._extra_rngs[1], scale=0.1)

    def _diachronic(self, t: int) -> Tensor:
        """Time-aware view of the full entity table at timestamp t."""
        entities = self.entities()
        k = self.temporal_dims
        oscillation = (self.frequency.all() * float(t)
                       + self.phase.all()).sin()
        temporal = entities[:, :k] * oscillation
        static = entities[:, k:]
        from ..nn.ops import concat
        return concat([temporal, static], axis=-1)

    def score_batch(self, batch) -> Tensor:
        t = self._effective_time(batch.time)
        entities_t = self._diachronic(t)
        subj = index_select(entities_t, batch.subjects)
        rel = index_select(self.relation_embedding.all(), batch.relations)
        return (subj * rel) @ entities_t.T


class TNTComplEx(EmbeddingBaseline, _TimeClampMixin):
    """Temporal + non-temporal ComplEx factorization."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 num_timestamps: int, seed: int = 0):
        if dim % 2 != 0:
            raise ValueError("TNTComplEx needs an even embedding dim")
        super().__init__(num_entities, num_relations, dim, seed)
        self._init_time_tracking(num_timestamps)
        # a second relation table for the non-temporal component
        self.relation_static = Embedding(self.num_relations_aug, dim,
                                         self._extra_rngs[0])
        self.time_embedding = Embedding(num_timestamps, dim,
                                        self._extra_rngs[1], scale=0.1)

    def _complex_scores(self, subj: Tensor, rel: Tensor,
                        entities: Tensor) -> Tensor:
        half = self.dim // 2
        s_re, s_im = subj[:, :half], subj[:, half:]
        r_re, r_im = rel[:, :half], rel[:, half:]
        e_re, e_im = entities[:, :half], entities[:, half:]
        return ((s_re * r_re) @ e_re.T + (s_im * r_re) @ e_im.T
                + (s_re * r_im) @ e_im.T - (s_im * r_im) @ e_re.T)

    def score_batch(self, batch) -> Tensor:
        t = self._effective_time(batch.time)
        entities = self.entities()
        subj = index_select(entities, batch.subjects)
        rel_t = index_select(self.relation_embedding.all(), batch.relations)
        rel_s = index_select(self.relation_static.all(), batch.relations)
        time_rows = self.time_embedding(
            np.full(len(batch), t, dtype=np.int64))
        temporal = self._complex_scores(subj, rel_t * (1.0 + time_rows),
                                        entities)
        static = self._complex_scores(subj, rel_s, entities)
        return temporal + static
