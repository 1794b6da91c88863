"""Timestamp batching and shared history state for training/evaluation.

The paper trains with "batch size ... the number of quadruples in each
timestamp": every optimization step sees all queries of one snapshot.
:func:`iter_timestep_batches` yields those batches in time order, applying
the two-phase forward propagation of §III-F — the original queries first,
then the inverse queries — so the entity-aware attention never perceives
the answers of the phase it is scoring (the data-leakage guard the paper
motivates).

:class:`HistoryContext` is a thin facade over the shared
:mod:`repro.history` runtime layer: a dataset-backed
:class:`repro.history.HistoryStore` holds the state both encoders read
(the inverse-augmented snapshot sequence for the local window, the
incremental :class:`repro.core.subgraph.GlobalHistoryIndex` for the
global query subgraphs), and a bounded
:class:`repro.history.ContextCache` memoizes per-batch subgraphs.  The
serving engine is a client of the same two classes, which is what keeps
offline and online window/invalidation semantics identical
(``tests/integration/test_history_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.subgraph import GlobalHistoryIndex
from ..history import DEFAULT_SUBGRAPH_CAPACITY, ContextCache, HistoryStore
from ..obs import NULL_TELEMETRY, Telemetry
from ..tkg.dataset import Snapshot, TKGDataset
from ..tkg.quadruples import QuadrupleSet

PHASES = ("forward", "inverse")


class HistoryContext:
    """Shared history state for one pass over a dataset in time order.

    Parameters
    ----------
    dataset:
        The benchmark; history is drawn from the union of all splits (the
        standard extrapolation protocol — at evaluation time everything
        before the query timestamp is known ground truth).
    window:
        Local window length ``m``.
    extra_facts:
        Optional additional facts (used by the online-learning protocol to
        make newly revealed test facts part of history).
    telemetry:
        Receives the shared cache's hit/miss counters and build spans
        (``subgraph_cache_hits`` etc.); defaults to the inert null
        telemetry.  Consumers that learn their telemetry late rebind it
        through :meth:`bind_telemetry`.
    subgraph_cache_size:
        LRU bound of the per-batch subgraph cache — the same bound the
        serving engine enforces (the cache was unbounded here once; long
        multi-split evaluations grew memory without limit).
    store:
        Optional prebuilt :class:`repro.history.HistoryStore` to adopt
        instead of building one from the dataset — the out-of-core path:
        ``HistoryContext(ds, window, store=repro.data.open_store(path))``
        evaluates against the memory-mapped backing file.  The adopted
        store must hold the same augmented history the default
        construction would build (``extra_facts`` is rejected alongside
        it — bake extras into the store at write time).
    """

    def __init__(self, dataset: TKGDataset, window: int,
                 extra_facts: Optional[QuadrupleSet] = None,
                 telemetry: Telemetry = NULL_TELEMETRY,
                 subgraph_cache_size: int = DEFAULT_SUBGRAPH_CAPACITY,
                 store: Optional[HistoryStore] = None):
        self.dataset = dataset
        self.window = window
        if store is not None:
            if extra_facts is not None and len(extra_facts):
                raise ValueError(
                    "pass either extra_facts or a prebuilt store, not both "
                    "(write the extras into the store file instead)")
            self.store = store
        else:
            self.store = HistoryStore.from_dataset(dataset,
                                                   extra_facts=extra_facts)
        self.cache = ContextCache(telemetry=telemetry,
                                  subgraph_capacity=subgraph_cache_size)
        self.reset()

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Point the cache's counters/spans at ``telemetry`` (idempotent)."""
        self.cache.telemetry = telemetry

    @property
    def global_index(self) -> GlobalHistoryIndex:
        """The store's monotonic global index (shared, never copied)."""
        return self.store.index

    @property
    def num_entities(self) -> int:
        return self.dataset.num_entities

    def reset(self) -> None:
        """Rewind the monotonic global index (call at each epoch start).

        Delegates to :meth:`repro.history.HistoryStore.rewind` — the
        index keeps its fact buffer and only drops its advance state, so
        an epoch start no longer pays a full index rebuild.  The subgraph
        cache survives the reset: a dataset-backed store's fact buffer is
        immutable, so a batch's merged subgraph is a pure function of its
        ``(time, subjects, relations)`` key and repeated passes (epochs,
        noise-sweep sigmas) hit instead of rebuilding.  Cached *encoder*
        contexts depend on model weights and are dropped.
        """
        self.store.rewind()
        self.cache.contexts.clear()

    # ------------------------------------------------------------------
    def window_before(self, query_time: int) -> List[Snapshot]:
        """The last ``window`` non-empty snapshots before ``query_time``."""
        return self.store.window_before(query_time, self.window)

    def global_edges(self, query_time: int, subjects: np.ndarray,
                     relations: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged historical query subgraph for a batch (cached per batch).

        The cache key includes the query pairs, not just the timestamp:
        the §III-D subgraph is seeded from each query's ``(s, r)`` and its
        historical answers, so the forward and inverse phases of one
        timestamp seed *different* subgraphs and may not share one merged
        edge set.  Identical repeated batches still hit the cache.
        """
        return self.cache.subgraph(
            query_time, subjects, relations,
            lambda: self.store.subgraph(query_time, subjects, relations))

    def history_index_at(self, query_time: int) -> GlobalHistoryIndex:
        """The global index advanced to ``query_time``."""
        return self.store.index_at(query_time)


@dataclass
class TimestepBatch:
    """All queries of one timestamp in one propagation phase.

    ``subjects[i]``, ``relations[i]`` form query *i*; ``objects[i]`` is its
    gold answer (``None`` for label-free serving batches).  ``phase`` is
    ``"forward"`` for original facts, ``"inverse"`` for the reversed ones
    (relation ids already offset) and ``"serving"`` for engine-built
    batches.  Lazy accessors pull the local window and global subgraph
    from ``context`` — any provider of the shared history surface
    (``window_before`` / ``global_edges`` / ``history_index_at`` /
    ``num_entities``): a training :class:`HistoryContext` or a serving
    :class:`repro.serving.InferenceEngine`.
    """

    time: int
    subjects: np.ndarray
    relations: np.ndarray
    objects: Optional[np.ndarray]
    phase: str
    context: "HistoryContext"

    def __len__(self) -> int:
        return len(self.subjects)

    @property
    def snapshots(self) -> List[Snapshot]:
        return self.context.window_before(self.time)

    @property
    def global_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.context.global_edges(self.time, self.subjects,
                                         self.relations)

    @property
    def history_index(self) -> GlobalHistoryIndex:
        """The shared global history index, advanced to this timestamp.

        Copy-mechanism baselines (CyGNet, TiRGN, CENET) read historical
        answer vocabularies from here without materializing a subgraph.
        """
        return self.context.history_index_at(self.time)

    @property
    def num_entities(self) -> int:
        return self.context.num_entities


def iter_timestep_batches(dataset: TKGDataset, split: str,
                          context: HistoryContext,
                          phases: Sequence[str] = PHASES,
                          min_history: int = 1) -> Iterator[TimestepBatch]:
    """Yield per-timestamp query batches of ``split`` in time order.

    ``phases`` selects the two-phase propagation halves (Table VII's
    LogCL-FP uses ``("forward",)``, LogCL-SP uses ``("inverse",)``).
    Timestamps earlier than ``min_history`` are skipped — there is no
    history to condition on.
    """
    unknown = set(phases) - set(PHASES)
    if unknown:
        raise ValueError(f"unknown phases {sorted(unknown)}; valid: {PHASES}")
    quads = dataset.splits()[split]
    num_rel = dataset.num_relations
    for t, facts in sorted(quads.group_by_time().items()):
        if t < min_history:
            continue
        if "forward" in phases:
            yield TimestepBatch(
                time=int(t), subjects=facts[:, 0].copy(),
                relations=facts[:, 1].copy(), objects=facts[:, 2].copy(),
                phase="forward", context=context)
        if "inverse" in phases:
            yield TimestepBatch(
                time=int(t), subjects=facts[:, 2].copy(),
                relations=facts[:, 1] + num_rel, objects=facts[:, 0].copy(),
                phase="inverse", context=context)


def iter_joint_timestep_batches(dataset: TKGDataset, split: str,
                                context: HistoryContext,
                                min_history: int = 1
                                ) -> Iterator[TimestepBatch]:
    """Yield one batch per timestamp holding both propagation phases.

    The original LogCL/RE-GCN training loop scores a timestamp's facts
    and their inverses as *one* batch with one optimizer step; the
    two-phase iterator above splits them for ablations and evaluation.
    Joint batches halve the per-timestamp encoder work during training
    (one window walk, one global subgraph — built for the union of both
    phases' query entities — and one backward pass instead of two).
    Evaluation keeps the two-phase iterator: metric rows and per-phase
    query records must not depend on the training batching.
    """
    quads = dataset.splits()[split]
    num_rel = dataset.num_relations
    for t, facts in sorted(quads.group_by_time().items()):
        if t < min_history:
            continue
        yield TimestepBatch(
            time=int(t),
            subjects=np.concatenate([facts[:, 0], facts[:, 2]]),
            relations=np.concatenate([facts[:, 1], facts[:, 1] + num_rel]),
            objects=np.concatenate([facts[:, 2], facts[:, 0]]),
            phase="joint", context=context)
