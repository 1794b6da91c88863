"""Ranking metrics: MRR and Hits@k (paper §IV-B1).

Ranks are 1-based with *mean* tie-breaking: a target tied with ``k``
other candidates gets the average of the tied positions.  This matches
the expectation of the random tie-breaking used by sort-based PyTorch
evaluation code and — unlike the optimistic convention — does not reward
degenerate constant scorers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def rank_of_target(scores: np.ndarray, target: int) -> float:
    """1-based mean-tie rank of ``target`` within ``scores``.

    Raises ``ValueError`` when the target's score is NaN; ``-inf`` (a
    filtered-out candidate) is a legal score.
    """
    target_score = scores[target]
    if target_score != target_score:
        raise ValueError(f"NaN score for target {target}: a NaN compares "
                         f"with nothing, so it has no rank")
    greater = int((scores > target_score).sum())
    ties = int((scores == target_score).sum())  # includes the target itself
    return greater + (ties + 1) / 2.0


def ranks_of_targets(scores: np.ndarray, targets: Sequence[int],
                     row_offset: int = 0) -> np.ndarray:
    """1-based mean-tie ranks of per-row targets, in one broadcasted pass.

    Vectorized equivalent of calling :func:`rank_of_target` on every row
    of a ``(Q, |E|)`` score matrix — the comparison semantics (strictly-
    greater count plus mean tie position, ``-inf`` ties included) are
    identical, so the two agree bitwise.  Raises ``ValueError`` naming
    the query rows whose target score is NaN, numbered from
    ``row_offset`` (the first row's index when ``scores`` is a row block
    of a larger batch).
    """
    scores = np.asarray(scores)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2 or targets.ndim != 1 or len(scores) != len(targets):
        raise ValueError(f"expected (Q, E) scores with Q aligned targets, "
                         f"got {scores.shape} and {targets.shape}")
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    nan_rows = row_offset + np.flatnonzero(
        target_scores[:, 0] != target_scores[:, 0])
    if len(nan_rows):
        raise ValueError(f"NaN target score in query rows "
                         f"{nan_rows.tolist()}: a NaN compares with "
                         f"nothing, so it has no rank")
    # int32 counts (exact below 2**31 candidates) sum twice as fast as
    # the default int64 accumulator.
    greater = (scores > target_scores).sum(axis=1, dtype=np.int32)
    ties = (scores == target_scores).sum(axis=1, dtype=np.int32)  # + target
    return greater + (ties + 1) / 2.0


def softmax_topk(scores: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """Top-k ``(entity, probability)`` pairs with a stable tie order.

    The softmax is max-shifted over the finite entries; ``-inf`` scores
    (filtered-out candidates) get probability zero.  Ties rank lower
    entity ids first (stable sort), so repeated calls and the several
    top-k front-ends (model, engine, serving protocol) agree exactly.
    """
    scores = np.asarray(scores)
    finite = np.isfinite(scores)
    shift = scores[finite].max() if finite.any() else 0.0
    exp = np.exp(np.where(finite, scores - shift, -np.inf))
    total = exp.sum()
    probs = (exp / total if total > 0
             else np.full(len(scores), 1.0 / len(scores)))
    if k <= 0:
        return []
    if k >= len(probs):
        top = np.argsort(-probs, kind="stable")
    else:
        # O(n + k log k) instead of a full O(n log n) sort: partition out
        # k candidates, then reconstruct the exact stable-sort answer —
        # everything strictly above the boundary value, plus boundary
        # ties in ascending-id order (what a stable descending sort
        # would have kept), ordered by (probability desc, id asc).
        partitioned = np.argpartition(-probs, k - 1)[:k]
        boundary = probs[partitioned].min()
        above = np.flatnonzero(probs > boundary)
        at_boundary = np.flatnonzero(probs == boundary)
        chosen = np.concatenate([above, at_boundary[:k - len(above)]])
        top = chosen[np.lexsort((chosen, -probs[chosen]))]
    return [(int(e), float(probs[e])) for e in top]


@dataclass
class RankingAccumulator:
    """Streaming collector of per-query ranks."""

    ranks: List[float] = field(default_factory=list)

    def add(self, rank: float) -> None:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        self.ranks.append(float(rank))

    def add_batch(self, scores: np.ndarray, targets: Sequence[int]) -> None:
        """Rank a (Q, |E|) score matrix against per-row targets."""
        self.add_ranks(ranks_of_targets(scores, targets))

    def add_ranks(self, ranks: Sequence[float]) -> None:
        """Append precomputed 1-based ranks (one per query)."""
        ranks = np.asarray(ranks, dtype=float)
        if len(ranks) and float(ranks.min()) < 1:
            raise ValueError(f"ranks are 1-based, got {float(ranks.min())}")
        self.ranks.extend(ranks.tolist())

    def merge(self, other: "RankingAccumulator") -> None:
        self.ranks.extend(other.ranks)

    # -- metrics ----------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.ranks)

    def mrr(self) -> float:
        """Mean reciprocal rank, in percent (paper convention)."""
        if not self.ranks:
            return 0.0
        return float(np.mean(1.0 / np.asarray(self.ranks))) * 100.0

    def hits_at(self, k: int) -> float:
        """Fraction of queries ranked in the top-k, in percent."""
        if not self.ranks:
            return 0.0
        return float(np.mean(np.asarray(self.ranks) <= k)) * 100.0

    def summary(self, ks: Iterable[int] = (1, 3, 10)) -> Dict[str, float]:
        """The paper's standard metric row."""
        result = {"mrr": self.mrr(), "count": float(self.count)}
        for k in ks:
            result[f"hits@{k}"] = self.hits_at(k)
        return result
