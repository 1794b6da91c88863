"""Loss functions and miscellaneous differentiable helpers."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .ops import fused_multilabel_loss, log_softmax, softmax
from .tensor import Tensor


def cross_entropy(logits: Tensor, targets: Union[np.ndarray, Tensor]) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` is ``(batch, classes)``; ``targets`` is ``(batch,)`` of ids.
    """
    if isinstance(targets, Tensor):
        targets = targets.data
    targets = np.asarray(targets)
    log_p = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked = log_p[np.arange(batch), targets]
    return -picked.mean()


def multilabel_soft_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The paper's entity-prediction loss (Eq. 20).

    Eq. 18 passes scores through a softmax (the paper's sigma_2) and Eq. 20
    sums ``y * log phi`` over entities — i.e. softmax cross-entropy against
    a multi-hot label row normalized over its positives.  ``labels`` is a
    float multi-hot matrix ``(batch, num_entities)``.
    """
    return fused_multilabel_loss(logits, labels)


def binary_cross_entropy_with_logits(logits: Tensor,
                                     labels: np.ndarray) -> Tensor:
    """Numerically stable element-wise BCE over raw logits."""
    labels_t = Tensor(np.asarray(labels, dtype=logits.dtype))
    # softplus(x) = relu(x) + log1p(exp(-|x|)), stable for large |x|
    x = logits
    softplus = x.relu() + ((-x.abs()).exp() + 1.0).log()
    return (softplus - x * labels_t).mean()


def mse_loss(pred: Tensor, target: Union[np.ndarray, Tensor]) -> Tensor:
    """Mean squared error."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=pred.dtype))
    diff = pred - target
    return (diff * diff).mean()


def info_nce(anchor: Tensor, positive: Tensor, temperature: float) -> Tensor:
    """InfoNCE contrastive loss over aligned row pairs (paper Eq. 1/17).

    Row *i* of ``anchor`` and row *i* of ``positive`` form the positive
    pair; every other row of ``positive`` serves as a negative.  Both
    inputs are expected to be L2-normalized.
    """
    sims = anchor @ positive.T  # (n, n)
    sims = sims * (1.0 / temperature)
    log_p = log_softmax(sims, axis=-1)
    n = sims.shape[0]
    diag = log_p[np.arange(n), np.arange(n)]
    return -diag.mean()


def margin_ranking_loss(positive_scores: Tensor, negative_scores: Tensor,
                        margin: float = 1.0) -> Tensor:
    """Hinge loss pushing positives above negatives by ``margin``.

    The classic TransE-family objective: ``mean(max(0, margin - pos +
    neg))``.  ``positive_scores`` is ``(batch,)`` or ``(batch, 1)``;
    ``negative_scores`` is ``(batch, k)`` for k corrupted candidates.
    """
    if positive_scores.ndim == 1:
        positive_scores = positive_scores.reshape(-1, 1)
    gap = negative_scores - positive_scores + margin
    return gap.relu().mean()
