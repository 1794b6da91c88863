"""Online-learning evaluation (paper §IV-H, Fig. 10).

Under the online setting the test period is walked timestamp by
timestamp: the model first answers the queries at ``t`` (scored exactly
like the offline protocol), and only *then* fine-tunes on the revealed
facts of ``t`` before moving to ``t+1``.  Historical facts in the test
period thereby update the model, which is why online results dominate
offline ones for every model in Fig. 10.

Scoring and ranking go through the same paths as the offline protocol
(:func:`repro.eval.protocol.batch_scores`, then
:func:`repro.eval.ranking.batch_ranks_vectorized`), so no ``(Q, |E|)``
score matrix is formed for models with the split scoring API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..eval.metrics import RankingAccumulator
from ..eval.protocol import (_build_filters, batch_scores,
                             reuse_context_enabled)
from ..eval.ranking import batch_ranks_vectorized
from ..interface import ExtrapolationModel
from ..nn import Adam, clip_grad_norm
from ..obs import NULL_TELEMETRY, Telemetry
from ..tkg.dataset import TKGDataset
from .context import PHASES, HistoryContext, iter_timestep_batches


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online pass."""

    lr: float = 1e-4             # gentler than offline: we adapt, not retrain
    steps_per_timestamp: int = 1
    grad_clip: float = 1.0
    window: int = 3
    phases: Sequence[str] = PHASES


def evaluate_online(model: ExtrapolationModel, dataset: TKGDataset,
                    config: OnlineConfig = OnlineConfig(),
                    telemetry: Telemetry = NULL_TELEMETRY
                    ) -> Dict[str, float]:
    """Walk the test split online: predict at t, then adapt on t's facts.

    Returns the same metric row as :func:`repro.eval.evaluate`, so online
    and offline numbers are directly comparable (Fig. 10).  The caller's
    train/eval mode is restored on return.  A ``telemetry`` instance
    records ``context_build`` / ``predict`` / ``adapt`` spans plus
    ``queries_evaluated`` and ``adapt_steps`` counters.
    """
    with telemetry.span("context_build"):
        context = HistoryContext(dataset, window=config.window,
                                 telemetry=telemetry)
        context.reset()
        time_filter, _ = _build_filters(dataset, "time-aware")
    optimizer = Adam(model.parameters(), lr=config.lr)
    accumulator = RankingAccumulator()
    was_training = bool(getattr(model, "training", False))

    # Group the per-phase batches by timestamp so we score *both* phases
    # before any adaptation step sees the timestamp's facts.
    by_time: Dict[int, list] = {}
    for batch in iter_timestep_batches(dataset, "test", context,
                                       phases=config.phases):
        by_time.setdefault(batch.time, []).append(batch)

    for t in sorted(by_time):
        group = by_time[t]
        # 1. predict (eval mode, filtered ranking)
        model.eval()
        # Both phases of t share one encoder context (the model does not
        # change between them); a fresh memo per timestamp drops it
        # before the adaptation below.
        context_memo = {} if reuse_context_enabled(model) else None
        with telemetry.span("predict"):
            for batch in group:
                scores = batch_scores(model, batch, context_memo)
                accumulator.add_ranks(batch_ranks_vectorized(
                    scores, batch, time_filter))
                telemetry.incr("queries_evaluated", len(batch))
        # 2. adapt on the now-revealed facts of t
        model.train()
        with telemetry.span("adapt"):
            for _ in range(config.steps_per_timestamp):
                for batch in group:
                    optimizer.zero_grad()
                    loss = model.loss_on(batch)
                    loss.backward()
                    clip_grad_norm(model.parameters(), config.grad_clip,
                                   telemetry=telemetry)
                    optimizer.step()
                    telemetry.incr("adapt_steps")

    if was_training:
        model.train()
    else:
        model.eval()
    return accumulator.summary()
