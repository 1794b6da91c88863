"""Filtered-ranking kernel shared by the offline and online protocols.

The kernel takes one timestamp batch's ``(Q, |E|)`` score matrix and
produces the 1-based mean-tie filtered ranks of the gold objects.  It
only reads the ``subjects`` / ``relations`` / ``objects`` / ``time``
attributes of the batch, so any
:class:`repro.training.context.TimestepBatch`-shaped object works.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tkg.filtering import StaticFilter, TimeAwareFilter
from .metrics import ranks_of_targets


def batch_ranks_vectorized(scores: np.ndarray, batch,
                           time_filter: Optional[TimeAwareFilter],
                           static_filter: Optional[StaticFilter] = None
                           ) -> np.ndarray:
    """Filtered ranks for one batch via the packed-index kernel.

    Competing true objects are struck to ``-inf`` with a single
    fancy-index assignment on the ``(Q, |E|)`` matrix and all ranks come
    out of one broadcasted comparison — no per-query score copies.
    """
    active = time_filter if time_filter is not None else static_filter
    if active is not None:
        rows, cols = active.mask_indices_for_batch(
            batch.subjects, batch.relations, batch.time, batch.objects)
        if len(rows):
            scores = scores.copy()
            scores[rows, cols] = -np.inf
    return ranks_of_targets(scores, batch.objects)

