"""Reference oracle for the evaluation protocols of :mod:`repro.eval`.

The filtered ranking of §IV-B1 written as one loop per query: score the
timestamp batch with ``model.predict_on`` (no context shared between
phases), copy the query's score row, strike the competing true objects
of the dict-based filter of ``tests/tkg/reference_filter.py`` and take
``rank_of_target``.  Slow, but each step is visible, so ``evaluate`` and
``evaluate_online`` (batched masks, filter memos, context reuse, shards)
are held to it bitwise.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.eval.metrics import RankingAccumulator, rank_of_target
from repro.eval.protocol import QueryRecord
from repro.nn import Adam, clip_grad_norm
from repro.training.context import (PHASES, HistoryContext,
                                    iter_timestep_batches)

from tests.tkg.reference_filter import (ReferenceStaticFilter,
                                        ReferenceTimeAwareFilter)


def reference_filter(dataset, filter_setting: str):
    """The oracle filter over every split's inverse-augmented facts."""
    if filter_setting == "raw":
        return None
    augmented = [quads.with_inverses(dataset.num_relations)
                 for quads in dataset.splits().values()]
    if filter_setting == "time-aware":
        return ReferenceTimeAwareFilter(augmented)
    return ReferenceStaticFilter(augmented)


def reference_ranks(scores: np.ndarray, batch, filt) -> List[float]:
    """Per-query filtered ranks: copy the row, strike, ``rank_of_target``."""
    ranks = []
    for row, (s, r, o) in enumerate(zip(batch.subjects, batch.relations,
                                        batch.objects)):
        query_scores = scores[row]
        if filt is not None:
            if isinstance(filt, ReferenceTimeAwareFilter):
                true = filt.true_objects(int(s), int(r), batch.time)
            else:
                true = filt.true_objects(int(s), int(r))
            others = sorted(true - {int(o)})
            if others:
                query_scores = query_scores.copy()
                query_scores[others] = -np.inf
        ranks.append(rank_of_target(query_scores, int(o)))
    return ranks


def reference_evaluate(model, dataset, split: str, window: int = 3,
                       filter_setting: str = "time-aware",
                       phases: Sequence[str] = PHASES
                       ) -> Tuple[Dict[str, float], List[QueryRecord]]:
    """``evaluate``'s metric row and records, one query at a time."""
    filt = reference_filter(dataset, filter_setting)
    context = HistoryContext(dataset, window=window)
    was_training = bool(getattr(model, "training", False))
    model.eval()
    accumulator, records = RankingAccumulator(), []
    for batch in iter_timestep_batches(dataset, split, context,
                                       phases=phases):
        ranks = reference_ranks(model.predict_on(batch), batch, filt)
        for s, r, o, rank in zip(batch.subjects, batch.relations,
                                 batch.objects, ranks):
            accumulator.add(rank)
            records.append(QueryRecord(
                subject=int(s), relation=int(r), gold_object=int(o),
                time=batch.time, phase=batch.phase, rank=rank))
    if was_training:
        model.train()
    return accumulator.summary(), records


def reference_evaluate_online(model, dataset, config) -> Dict[str, float]:
    """``evaluate_online``'s metric row: predict-and-rank every phase of a
    timestamp, one query at a time, then adapt on that timestamp."""
    filt = reference_filter(dataset, "time-aware")
    context = HistoryContext(dataset, window=config.window)
    optimizer = Adam(model.parameters(), lr=config.lr)
    accumulator = RankingAccumulator()
    by_time: Dict[int, list] = {}
    for batch in iter_timestep_batches(dataset, "test", context,
                                       phases=config.phases):
        by_time.setdefault(batch.time, []).append(batch)
    for t in sorted(by_time):
        model.eval()
        for batch in by_time[t]:
            for rank in reference_ranks(model.predict_on(batch), batch,
                                        filt):
                accumulator.add(rank)
        model.train()
        for _ in range(config.steps_per_timestamp):
            for batch in by_time[t]:
                optimizer.zero_grad()
                model.loss_on(batch).backward()
                clip_grad_norm(model.parameters(), config.grad_clip)
                optimizer.step()
    return accumulator.summary()
