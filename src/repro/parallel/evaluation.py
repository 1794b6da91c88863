"""Sharded execution of the read-path protocols (evaluation, ranking).

The filtered evaluation protocol scores each ``(timestamp, phase)``
query batch independently given the preceding history, and history is
immutable during a pass — so a pass shards into contiguous blocks of
batches with **no cross-shard state**.  Each forked worker inherits the
model, the :class:`repro.training.context.HistoryContext` and the
filters copy-on-write, walks its block through the same batched ranking
kernel as the serial path, and returns per-batch rank arrays plus its
private telemetry snapshot.  The parent concatenates ranks in original
batch order (the reduction the serial accumulator performs), which is
what keeps ``workers=N`` metric rows bitwise-identical to ``workers=1``.

Determinism contract
--------------------
* **Noise-free models** (the normal case): ``workers=N`` is
  bitwise-identical to the serial walk for every ``N``, because scores
  are pure functions of (weights, batch, history) and ranks merge in
  batch order.
* **Noisy models** (``input_noise_std > 0``): the serial path draws
  noise from one sequential stream, which no parallel schedule can
  reproduce.  The sharded path instead derives a per-batch substream
  from one key drawn off the model's stream
  (:meth:`repro.interface.ExtrapolationModel.draw_noise_seed`), making
  the pass a pure function of (weights, key, batch) — identical across
  worker counts, though not to the serial draw order.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.metrics import ranks_of_targets
from ..eval.ranking import batch_ranks_vectorized
from ..obs import NULL_TELEMETRY, Telemetry
from .pool import ShardPool, effective_workers, plan_shards

# Per-worker-process cache of re-opened store files, keyed by path.  A
# forked worker adopting a memory-mapped store re-opens the backing file
# once and reuses the mapping for every shard it runs.
_WORKER_STORES: Dict[str, object] = {}


def _adopt_worker_store(context, path: str) -> None:
    """Point a worker's inherited context at a re-opened mapped store.

    Workers get the *path* of a memory-mapped history store instead of
    relying on copy-on-write inheritance of the parent's arrays: every
    worker's ``np.memmap`` of the same file shares one physical copy
    through the OS page cache, and the worker-private index/cache
    structures start empty instead of duplicating the parent's.
    """
    store = _WORKER_STORES.get(path)
    if store is None:
        from ..data.storefile import open_store
        store = open_store(path)
        _WORKER_STORES[path] = store
    if context.store is not store:
        context.adopt_store(store)


def _run_eval_shard(state: Dict, payload: Tuple[int, int]
                    ) -> Tuple[List[np.ndarray], Dict]:
    """Score and rank one contiguous block of batches (worker side).

    Returns the per-batch rank arrays in block order plus the worker's
    telemetry snapshot.  The worker's history-context copy advances its
    monotonic index forward only, because blocks are contiguous in the
    time-ordered batch list.
    """
    start, end = payload
    telemetry = Telemetry("shard")
    model = state["model"]
    context = state["context"]
    if (state.get("store_path") is not None
            and os.getpid() != state["parent_pid"]):
        # Forked worker + file-backed store: re-open by path.  The pid
        # check keeps the serial fallback (same process) reading the
        # caller's own context untouched.
        _adopt_worker_store(context, state["store_path"])
    context.bind_telemetry(telemetry)
    noise_key = state["noise_key"]
    # Mirror the serial protocol's inverse-phase context reuse: blocks
    # are contiguous in the time-ordered batch list, so a shard usually
    # holds both phases of its timestamps and shares one precomputed
    # context per timestamp.  Noisy models reseed per batch — their
    # contexts are batch-dependent and must not be shared.
    from ..eval.protocol import predict_scores_reusing, reuse_context_enabled
    context_memo = ({} if noise_key is None and reuse_context_enabled(model)
                    else None)
    ranks_out: List[np.ndarray] = []
    for index in range(start, end):
        batch = state["batches"][index]
        if noise_key is not None:
            model.reseed_noise((noise_key, index))
        with telemetry.span("forward"):
            scores = (predict_scores_reusing(model, batch, context_memo)
                      if context_memo is not None
                      else model.predict_on(batch))
        with telemetry.span("rank"):
            ranks = batch_ranks_vectorized(scores, batch,
                                           state["time_filter"],
                                           state["static_filter"])
        telemetry.incr("queries_evaluated", len(batch))
        ranks_out.append(ranks)
    if not state.get("want_telemetry", True):
        return ranks_out, None
    return ranks_out, telemetry.export_state()


def sharded_ranks(model, batches: Sequence, time_filter, static_filter,
                  workers: int,
                  telemetry: Telemetry = NULL_TELEMETRY
                  ) -> List[np.ndarray]:
    """Rank every batch across a worker pool; one rank array per batch.

    ``batches`` is the time-ordered list the serial protocol would walk
    (each batch already bound to a shared history context).  Results
    come back in the same order, so the caller's accumulator sees ranks
    exactly as the serial loop would append them.  Worker telemetry
    snapshots are folded into ``telemetry`` (spans land under the bare
    stage names — a worker has no enclosing span to nest under).
    """
    if not batches:
        return []
    context = batches[0].context
    batch_sizes = [len(batch) for batch in batches]
    # Too few queries and forking costs more than it buys: degrade the
    # worker count (possibly to the serial path) before planning shards.
    # The degradation is observable: see effective_workers' counters.
    workers = effective_workers(workers, sum(batch_sizes),
                                telemetry=telemetry)
    noise_key = (model.draw_noise_seed()
                 if getattr(model, "input_noise_std", 0.0) > 0.0 else None)
    state = {
        "model": model, "context": context, "batches": list(batches),
        "time_filter": time_filter, "static_filter": static_filter,
        "noise_key": noise_key,
        # Workers skip assembling/pickling telemetry snapshots nobody
        # will read when the parent evaluates with the null telemetry.
        "want_telemetry": telemetry is not NULL_TELEMETRY,
        # Mapped stores hand workers the backing-file path (plus the
        # parent pid so the serial fallback can tell it never forked).
        "store_path": getattr(getattr(context, "store", None),
                              "backing_path", None),
        "parent_pid": os.getpid(),
    }
    # Shard boundaries equalize *query counts*, not batch counts: whole
    # timestamps vary in size by an order of magnitude, and equal-batch
    # shards routinely left one worker with half the queries.
    shards = plan_shards(len(batches), workers, weights=batch_sizes)
    with ShardPool(workers, shared=state) as pool:
        results = pool.map(_run_eval_shard, shards)
    # The serial fallback ran the shard protocol in-process and rebound
    # the context's cache counters to per-shard telemetry; point them
    # back at the caller's instance either way.
    context.bind_telemetry(telemetry)
    ranks_in_order: List[np.ndarray] = []
    for block_ranks, telemetry_state in results:
        ranks_in_order.extend(block_ranks)
        if telemetry_state is not None:
            telemetry.merge_state(telemetry_state)
    return ranks_in_order


def _run_online_shard(state: Dict, payload: Tuple[Dict, int]
                      ) -> Tuple[np.ndarray, Dict]:
    """Predict-and-rank one phase batch of one timestamp (worker side).

    The online protocol adapts the model after every timestamp, so the
    parent ships the current weights with each task; everything heavy
    (history, filters, batch arrays) is inherited from the fork.
    """
    weights, index = payload
    telemetry = Telemetry("shard")
    model = state["model"]
    model.load_state_dict(weights)
    model.eval()
    state["context"].bind_telemetry(telemetry)
    batch = state["batches"][index]
    with telemetry.span("predict"):
        scores = model.predict_on(batch)
        ranks = batch_ranks_vectorized(scores, batch, state["time_filter"])
    telemetry.incr("queries_evaluated", len(batch))
    return ranks, telemetry.export_state()


class OnlineShardRunner:
    """Pool wrapper for the online protocol's per-timestamp predict phase.

    One pool lives for the whole online walk; each timestamp's phase
    batches are submitted as tasks carrying the *current* (post-adapt)
    weights.  Ranks come back in submission order, matching the serial
    loop's accumulator order bitwise.
    """

    def __init__(self, model, batches: Sequence, time_filter,
                 workers: int):
        self._batches = list(batches)
        workers = effective_workers(workers,
                                    sum(len(b) for b in self._batches))
        self._index_of = {id(batch): i for i, batch in enumerate(self._batches)}
        state = {
            "model": model, "batches": self._batches,
            "context": self._batches[0].context if self._batches else None,
            "time_filter": time_filter,
        }
        self._model = model
        self._pool = ShardPool(workers, shared=state)

    def predict_group(self, group: Sequence,
                      telemetry: Telemetry = NULL_TELEMETRY
                      ) -> List[np.ndarray]:
        """Rank one timestamp's phase batches against current weights."""
        weights = self._model.state_dict()
        payloads = [(weights, self._index_of[id(batch)]) for batch in group]
        results = self._pool.map(_run_online_shard, payloads)
        ranks = []
        for batch_ranks, telemetry_state in results:
            telemetry.merge_state(telemetry_state)
            ranks.append(batch_ranks)
        return ranks

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "OnlineShardRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run_rank_shard(state: Dict, payload: Tuple[int, int]) -> np.ndarray:
    """Filtered-rank one row block of a precomputed score matrix."""
    start, end = payload
    scores = state["scores"][start:end]
    targets = state["targets"][start:end]
    if state["filtered"]:
        rows, cols = state["filter"].mask_indices_for_batch(
            state["subjects"][start:end], state["relations"][start:end],
            state["time"], targets)
        if len(rows):
            scores = scores.copy()
            scores[rows, cols] = -np.inf
    return ranks_of_targets(scores, targets)


def sharded_filtered_ranks(scores: np.ndarray, subjects: np.ndarray,
                           relations: np.ndarray, targets: np.ndarray,
                           time: int, time_filter, filtered: bool,
                           workers: int,
                           telemetry: Telemetry = NULL_TELEMETRY
                           ) -> np.ndarray:
    """Shard the filtered-ranking kernel over row blocks of one batch.

    Scoring happens *before* this call (batch composition is model
    semantics — splitting the forward pass would change attention
    pooling); only the per-row mask-and-rank work fans out.  Row ranks
    are independent, so concatenating block results in row order is
    bitwise-identical to the one-shot kernel.  Worker-count degradation
    lands in ``telemetry`` (the serving engine passes its stats here, so
    a collapsed ``workers=N`` request shows up in ``stats.summary()``).
    """
    state = {
        "scores": scores, "subjects": subjects, "relations": relations,
        "targets": targets, "time": int(time), "filter": time_filter,
        "filtered": bool(filtered),
    }
    workers = effective_workers(workers, len(targets), telemetry=telemetry)
    shards = plan_shards(len(targets), workers)
    with ShardPool(workers, shared=state) as pool:
        blocks = pool.map(_run_rank_shard, shards)
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=float)
