"""Online-learning evaluation (paper §IV-H, Fig. 10).

Under the online setting the test period is walked timestamp by
timestamp: the model first answers the queries at ``t`` (scored exactly
like the offline protocol), and only *then* fine-tunes on the revealed
facts of ``t`` before moving to ``t+1``.  Historical facts in the test
period thereby update the model, which is why online results dominate
offline ones for every model in Fig. 10.

Ranking goes through the same batched kernel as the offline protocol
(:func:`repro.eval.ranking.batch_ranks_vectorized`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..eval.metrics import RankingAccumulator
from ..eval.ranking import batch_ranks_vectorized
from ..interface import ExtrapolationModel
from ..nn import Adam, clip_grad_norm
from ..obs import NULL_TELEMETRY, Telemetry
from ..tkg.dataset import TKGDataset
from ..tkg.filtering import TimeAwareFilter
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
                    workers: int = 1,
                    telemetry: Telemetry = NULL_TELEMETRY
                    ) -> Dict[str, float]:
    """Walk the test split online: predict at t, then adapt on t's facts.

    Returns the same metric row as :func:`repro.eval.evaluate`, so online
    and offline numbers are directly comparable (Fig. 10).  The caller's
    train/eval mode is restored on return.  ``workers`` shards each
    timestamp's predict phase across forked processes
    (:mod:`repro.parallel`); adaptation stays serial in the parent, so
    metric rows are bitwise-identical for every worker count.  A
    ``telemetry`` instance records ``context_build`` / ``predict`` /
    ``adapt`` spans plus ``queries_evaluated`` and ``adapt_steps``
    counters.
    """
    with telemetry.span("context_build"):
        context = HistoryContext(dataset, window=config.window,
                                 telemetry=telemetry)
        context.reset()
        augmented = [quads.with_inverses(dataset.num_relations)
                     for quads in dataset.splits().values()]
        time_filter = TimeAwareFilter(augmented)
    optimizer = Adam(model.parameters(), lr=config.lr)
    accumulator = RankingAccumulator()
    was_training = bool(getattr(model, "training", False))

    # Group the per-phase batches by timestamp so we score *both* phases
    # before any adaptation step sees the timestamp's facts.
    batches = list(iter_timestep_batches(dataset, "test", context,
                                         phases=config.phases))
    by_time: Dict[int, list] = {}
    for batch in batches:
        by_time.setdefault(batch.time, []).append(batch)

    runner = None
    if workers != 1:
        # Lazy import: repro.parallel is an execution detail of this
        # protocol, pulled in only when sharding is requested.
        from ..parallel.evaluation import OnlineShardRunner
        runner = OnlineShardRunner(model, batches, time_filter,
                                   workers=workers)
    try:
        for t in sorted(by_time):
            group = by_time[t]
            # 1. predict (eval mode, filtered ranking)
            model.eval()
            if runner is not None:
                for ranks in runner.predict_group(group, telemetry=telemetry):
                    accumulator.add_ranks(ranks)
            else:
                with telemetry.span("predict"):
                    for batch in group:
                        scores = model.predict_on(batch)
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
    finally:
        if runner is not None:
            runner.close()
            context.bind_telemetry(telemetry)
    if was_training:
        model.train()
    else:
        model.eval()
    return accumulator.summary()
