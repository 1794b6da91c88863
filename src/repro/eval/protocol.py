"""End-to-end evaluation protocol for TKG extrapolation.

Implements the paper's reported setting: per-timestamp query batches over
a chronological split, two-phase (original + inverse) queries, and the
**time-aware filtered** ranking (only facts true at the query timestamp
are removed from the candidate list).  Raw and static-filtered settings
are also available for comparison.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..interface import ExtrapolationModel
from ..nn.tensor import no_grad
from ..obs import NULL_TELEMETRY, Telemetry
from ..tkg.dataset import TKGDataset
from ..tkg.filtering import StaticFilter, TimeAwareFilter
from ..training.context import (PHASES, HistoryContext,
                                iter_timestep_batches)
from .metrics import RankingAccumulator
from .ranking import batch_ranks_vectorized

FILTER_SETTINGS = ("time-aware", "raw", "static")

# Dataset-keyed memo of evaluation filters.  A filter sorts each
# timestamp's facts the first time a query reaches it, so repeated
# evaluations of one benchmark (training-loop eval epochs, the benchmark
# tables, the per-filter parity sweep) keep those blocks, together with
# the per-batch mask memo, across calls.  Entries hold a strong
# reference to the dataset so an ``id()`` can never be recycled while
# its entry is alive; ``evaluate``-built filters are read-only (nothing
# calls ``add_facts`` on them), which is what makes sharing safe.
_FILTER_MEMO: "OrderedDict[Tuple[int, str], tuple]" = OrderedDict()
_FILTER_MEMO_LIMIT = 8


def _build_filters(dataset: TKGDataset, filter_setting: str
                   ) -> Tuple[Optional[TimeAwareFilter], Optional[StaticFilter]]:
    """The (time_filter, static_filter) pair for one setting, memoized.

    The one filter construction of the offline and online protocols.
    Both filters index the raw splits as they are, with their inverses
    filed alongside (``inverse_relations``), so inverse-phase queries
    are filtered symmetrically without an augmented copy of the
    history; construction sorts nothing (see
    :mod:`repro.tkg.filtering`).  The raw setting indexes nothing.
    """
    if filter_setting == "raw":
        return None, None
    key = (id(dataset), filter_setting)
    entry = _FILTER_MEMO.get(key)
    if entry is not None and entry[0] is dataset:
        _FILTER_MEMO.move_to_end(key)
        return entry[1], entry[2]
    splits = dataset.splits().values()
    time_filter = (TimeAwareFilter(splits, dataset.num_relations)
                   if filter_setting == "time-aware" else None)
    static_filter = (StaticFilter(splits, dataset.num_relations)
                     if filter_setting == "static" else None)
    _FILTER_MEMO[key] = (dataset, time_filter, static_filter)
    if len(_FILTER_MEMO) > _FILTER_MEMO_LIMIT:
        _FILTER_MEMO.popitem(last=False)
    return time_filter, static_filter


def reuse_context_enabled(model) -> bool:
    """Whether per-timestamp encoder contexts may be shared across the
    forward/inverse phases of one timestamp.

    Requires the split ``precompute_context`` / ``encode_queries`` /
    ``score_queries`` API (documented numerically identical to
    ``encode``; ``score_queries`` takes ``factored=True``, see
    :func:`batch_scores`) and a noise-free model — with
    ``input_noise_std > 0`` the serial protocol draws fresh noise per
    batch, so phases must not share one perturbed context.
    """
    return (hasattr(model, "precompute_context")
            and hasattr(model, "encode_queries")
            and hasattr(model, "score_queries")
            and getattr(model, "input_noise_std", 0.0) <= 0.0)


def batch_scores(model, batch, memo: Optional[dict]):
    """One batch's scores in the form the ranking kernel takes.

    Without a context ``memo``, ``model.predict_on``'s ``(Q, |E|)``
    matrix.  With one (models for which :func:`reuse_context_enabled`
    holds), the same scores as :class:`repro.interface.ScoreFactors`,
    sharing one query-independent context per timestamp: ``memo`` maps
    a timestamp to its context, and batches walk time monotonically, so
    only the current timestamp is kept.  Bitwise-identical to
    ``predict_on``: the context is query-independent, ``encode_queries``
    on it is the exact tail of ``encode``, and the factors' product
    (formed a row block at a time by the ranking kernel) is
    ``score_queries``' matrix.
    """
    if memo is None:
        return model.predict_on(batch)
    with no_grad():
        context = memo.get(batch.time)
        if context is None:
            memo.clear()
            context = model.precompute_context(batch.snapshots, batch.time)
            memo[batch.time] = context
        encoded = model.encode_queries(context, batch.subjects,
                                       batch.relations, batch.global_edges)
        return model.score_queries(encoded, batch.subjects,
                                   batch.relations, factored=True)


@dataclass(frozen=True)
class QueryRecord:
    """One evaluated query with its filtered rank.

    ``phase`` distinguishes forward from inverse queries; for inverse
    queries ``relation`` already carries the inverse-space id.
    """

    subject: int
    relation: int
    gold_object: int
    time: int
    phase: str
    rank: float


def evaluate(model: ExtrapolationModel, dataset: TKGDataset, split: str,
             context: Optional[HistoryContext] = None, window: int = 3,
             filter_setting: str = "time-aware",
             phases: Sequence[str] = PHASES,
             records: Optional[List[QueryRecord]] = None,
             telemetry: Telemetry = NULL_TELEMETRY) -> Dict[str, float]:
    """Evaluate ``model`` on one split and return the paper's metric row.

    Parameters
    ----------
    model:
        Any :class:`repro.interface.ExtrapolationModel`.  Its train/eval
        mode is restored on return, so live models owned by a serving
        engine can be evaluated without clobbering their state.
    dataset, split:
        Benchmark and split name (``"valid"`` / ``"test"``).
    context:
        Optional pre-built history context (reused by trainers); a fresh
        one is created otherwise.  The context is reset before the pass so
        its monotonic global index starts clean.
    filter_setting:
        ``"time-aware"`` (paper), ``"raw"`` or ``"static"``.
    phases:
        Propagation phases to evaluate (Table VII uses single phases).
    records:
        Optional list that, when provided, receives one
        :class:`QueryRecord` per evaluated query — the input to
        per-pattern analysis (:mod:`repro.analysis`).
    telemetry:
        Optional :class:`repro.obs.Telemetry`; when given, the pass
        records ``context_build`` (history/filter construction),
        ``forward`` (model scoring, including lazy window/subgraph
        materialization; for split-API models up to the query features)
        and ``rank`` (filtered ranking, with those models' row-blocked
        score product) spans plus a
        ``queries_evaluated`` counter, and is bound to the shared
        history cache so its ``subgraph_cache_hits``/``_misses``
        counters surface too.  Defaults to the inert null telemetry.
    """
    if filter_setting not in FILTER_SETTINGS:
        raise ValueError(f"filter_setting must be one of {FILTER_SETTINGS}")
    with telemetry.span("context_build"):
        if context is None:
            context = HistoryContext(dataset, window=window,
                                     telemetry=telemetry)
        elif telemetry is not NULL_TELEMETRY:
            context.bind_telemetry(telemetry)
        context.reset()
        time_filter, static_filter = _build_filters(dataset, filter_setting)

    was_training = bool(getattr(model, "training", False))
    model.eval()
    accumulator = RankingAccumulator()
    # Forward and inverse batches of one timestamp share the
    # query-independent encoder context (window walk + base
    # embeddings) instead of recomputing it per phase.
    context_memo = {} if reuse_context_enabled(model) else None
    for batch in iter_timestep_batches(dataset, split, context,
                                       phases=phases):
        with telemetry.span("forward"):
            scores = batch_scores(model, batch, context_memo)
        with telemetry.span("rank"):
            ranks = batch_ranks_vectorized(scores, batch, time_filter,
                                           static_filter)
        # Free this batch's scores before the next forward allocates its
        # own: a lower peak, so the allocator keeps the freed pages
        # instead of returning and re-faulting them.
        del scores
        accumulator.add_ranks(ranks)
        telemetry.incr("queries_evaluated", len(batch))
        if records is not None:
            _record_batch(records, batch, ranks)
    if was_training:
        model.train()
    else:
        model.eval()
    return accumulator.summary()


def _record_batch(records: List[QueryRecord], batch, ranks) -> None:
    """Append one batch's per-query records in row order."""
    for row, (s, r, o) in enumerate(zip(batch.subjects, batch.relations,
                                        batch.objects)):
        records.append(QueryRecord(
            subject=int(s), relation=int(r), gold_object=int(o),
            time=batch.time, phase=batch.phase, rank=float(ranks[row])))


def format_metric_row(name: str, metrics: Dict[str, float]) -> str:
    """Render one model's metrics like a row of the paper's tables."""
    return (f"{name:24s} MRR {metrics['mrr']:6.2f}  "
            f"H@1 {metrics['hits@1']:6.2f}  "
            f"H@3 {metrics['hits@3']:6.2f}  "
            f"H@10 {metrics['hits@10']:6.2f}")
