"""Filtered-ranking kernel shared by the offline and online protocols.

The kernel takes one timestamp batch's scores — a ``(Q, |E|)`` matrix,
or :class:`repro.interface.ScoreFactors` whose product is that matrix —
and produces the 1-based mean-tie filtered ranks of the gold objects.
It only reads the ``subjects`` / ``relations`` / ``objects`` / ``time``
attributes of the batch, so any
:class:`repro.training.context.TimestepBatch`-shaped object works.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..interface import ScoreFactors
from ..nn.ops import tile_bounds
from ..tkg.filtering import StaticFilter, TimeAwareFilter
from .metrics import ranks_of_targets


def batch_ranks_vectorized(scores: Union[np.ndarray, ScoreFactors], batch,
                           time_filter: Optional[TimeAwareFilter],
                           static_filter: Optional[StaticFilter] = None
                           ) -> np.ndarray:
    """Filtered ranks for one batch via the packed-index kernel.

    Runs one row block (:func:`repro.nn.ops.tile_bounds`) at a time:
    the block's scores (its slice of a score matrix, or its rows of the
    factors' product), the §IV-B1 strike of competing true objects to
    ``-inf`` (the block's share of the packed filter indices, one
    fancy-index assignment) and the broadcasted mean-tie rank.  No
    ``(Q, |E|)`` temporary exists: a struck block of a caller's matrix is
    copied, never the matrix.  Ranks are per row, so they equal those of
    one pass over the whole matrix.
    """
    active = time_filter if time_filter is not None else static_filter
    rows = cols = None
    if active is not None:
        rows, cols = active.mask_indices_for_batch(
            batch.subjects, batch.relations, batch.time, batch.objects)
    factored = isinstance(scores, ScoreFactors)
    if not factored:
        scores = np.asarray(scores)
    targets = np.asarray(batch.objects)
    if len(scores.shape) != 2 or targets.shape != scores.shape[:1]:
        raise ValueError(f"expected (Q, E) scores with Q aligned targets, "
                         f"got {scores.shape} and {targets.shape}")
    num_queries, num_candidates = scores.shape
    ranks = np.empty(num_queries)
    bounds = tile_bounds(num_queries,
                         num_candidates * np.dtype(scores.dtype).itemsize)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = scores.rows(start, stop) if factored else scores[start:stop]
        if rows is not None:
            low, high = np.searchsorted(rows, (start, stop))
            if high > low:
                if not factored:
                    block = block.copy()
                block[rows[low:high] - start, cols[low:high]] = -np.inf
        ranks[start:stop] = ranks_of_targets(block, targets[start:stop],
                                             row_offset=start)
        del block                # one block alive at a time
    return ranks
