"""Incremental online inference engine for trained TKG models.

The batch pipeline re-runs the local recurrent encoder over the whole
snapshot window and rebuilds the global query subgraph for every
evaluation pass.  :class:`InferenceEngine` turns the same trained model
into an ingest-then-answer service:

* :meth:`InferenceEngine.advance` ingests one snapshot of facts in
  amortized O(new facts) — it appends to a streaming
  :class:`repro.history.HistoryStore` (which grows the
  :class:`repro.core.subgraph.GlobalHistoryIndex` and the snapshot
  window) and to the time-aware filter, without touching older history;
* :meth:`InferenceEngine.predict` answers ``(s, r, t, ?)`` query batches
  against cached state: the query-independent local recurrent walk is
  computed once per timestamp and merged historical subgraphs are
  memoized per query batch — both in the shared, bounded
  :class:`repro.history.ContextCache` (the same cache class the training
  :class:`repro.training.context.HistoryContext` uses) — and full score
  matrices per repeated batch in a local LRU memo;
* :meth:`InferenceEngine.batch_scores` hands the same forward's scores
  over in the form the ranking kernel takes
  (:class:`repro.interface.ScoreFactors` for LogCL), without the memo:
  the ``score`` op and write-path calibration form probabilities and
  ranks from it one row block at a time, so no ``(Q, |E|)`` matrix
  exists for them.

Memory model: every cache is scoped to what a request can still
reach.  Reads only move forward in time, so an entry keyed below the
history index's horizon is dead: the first read past the last
retirement point drops every encoder context, merged subgraph and score
memo entry keyed below its anchor, before it builds anything, and
:meth:`InferenceEngine.advance` drops them too, together with entries
keyed after the new snapshot (their history is stale) and every memo
entry of the older watermark.  So a long stream keeps, besides the
ingested facts, only entries at or past its query horizon, whatever
its length; the capacities (``score_cache_size`` matrices,
``context_cache_size`` contexts, the subgraph LRU's 512 entries) cap
what many distinct reads at one horizon can hold.

Predictions are numerically identical to the cold batch path
(``model.predict_on`` over a fresh :class:`HistoryContext`): the engine
calls the very same encoder ops in the same order, it only reuses the
query-independent prefix.  The engine and the training context are
clients of one history layer, so their ``window_before`` /
``global_edges`` views are asserted bitwise-identical on shared streams
(``tests/integration/test_history_parity.py``).

Internally the engine is a **read/write split**: the immutable,
shareable :class:`ReadState` (frozen model parameters + the identity of
the mmap-backed store file) and the small mutable :class:`DeltaState`
(post-snapshot facts, filter, horizon).  :meth:`ReadState.spawn` builds
a replica engine over the same physical read state — the basis of the
replica-set serving layer (:mod:`repro.serving.replica`,
:mod:`repro.serving.router`).

Models that expose the incremental-context protocol
(``precompute_context`` / ``encode_queries`` / ``score_queries``, i.e.
LogCL) get the cached fast path; every other
:class:`repro.interface.ExtrapolationModel` is served through a
label-free :class:`repro.training.context.TimestepBatch` (phase
``"serving"``) fed to its ``predict_on`` — correct, incremental on the
history side, just without local-state reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.metrics import ranks_of_targets, softmax_topk
from ..history import HistoryStore, ContextCache, LRUCache, subgraph_key
from ..nn import no_grad
from ..obs import Telemetry
from ..tkg.dataset import Snapshot, TKGDataset
from ..tkg.filtering import TimeAwareFilter
from ..tkg.quadruples import QuadrupleSet
from ..training.context import TimestepBatch

# Stage names the engine records (flat spans on :attr:`InferenceEngine.stats`).
STAGES = ("ingest", "local_state", "subgraph", "forward", "rank",
          "calibrate")


def filtered_topk_rows(scores: np.ndarray, subjects: np.ndarray,
                       relations: np.ndarray, query_time: int, k: int,
                       time_filter=None) -> List[List[Tuple[int, float]]]:
    """Per-row top-k ``(entity, probability)`` lists for batched scores.

    The one shared :func:`repro.eval.metrics.softmax_topk` pass behind
    every serving top-k front-end (:meth:`InferenceEngine.predict_topk`,
    :meth:`InferenceEngine.predict_topk_batch` and the protocol's
    batched ``predict`` op), so all of them agree exactly on
    probabilities and tie order.  With ``time_filter`` set
    (a :class:`repro.tkg.filtering.TimeAwareFilter`), entities already
    observed as answers of ``(subject, relation)`` at ``query_time`` are
    struck to ``-inf`` before ranking: one memoized
    ``mask_indices_for_batch`` call for the whole batch (target ``-1``,
    which no entity id matches, so every known answer is struck) and
    one assignment on a copy.  Without known answers the scores are
    ranked in place without a copy.
    """
    scores = np.atleast_2d(np.asarray(scores))
    if time_filter is not None:
        struck_rows, struck_cols = time_filter.mask_indices_for_batch(
            subjects, relations, query_time,
            np.full(scores.shape[0], -1, dtype=np.int64))
        if len(struck_rows):
            scores = scores.copy()
            scores[struck_rows, struck_cols] = -np.inf
    return [softmax_topk(row, k) for row in scores]


@dataclass(frozen=True)
class ReadState:
    """The immutable, shareable half of an :class:`InferenceEngine`.

    Everything N serving replicas can share from one physical copy:
    the frozen (eval-mode) model parameters, the vocabulary sizes and
    window length, and the identity of the mmap-backed fact buffer
    (``store_path`` — replicas re-open the file rather than copying the
    arrays, so the OS page cache keeps one resident copy).  Nothing
    here changes after construction; every mutation an ``advance``
    makes lands in the engine's private :class:`DeltaState` instead.

    :meth:`spawn` is the replica constructor: it builds a fresh engine
    around this shared state, with its own empty delta and caches.
    """

    model: object
    num_entities: int
    num_relations: int
    window: int
    store_path: Optional[str]
    score_cache_size: int
    context_cache_size: int
    # Score-calibration config (repro.serving.ops.CalibrationConfig) or
    # None when the score op serves uncalibrated.  Part of the *read*
    # state because replicas must calibrate identically: the mutable
    # rolling window itself is per-engine and rebuilt deterministically
    # from the delta stream.
    calibration: Optional[object] = None

    def spawn(self) -> "InferenceEngine":
        """A fresh engine over this shared state (own delta + caches).

        The model object is shared by reference — safe because serving
        never mutates parameters — and the store file, if any, is
        re-adopted by path, so the spawned engine's base history is the
        same physical pages.  Post-snapshot deltas are *not* carried
        over; the caller replays them (``HistoryStore.delta_since``)
        to reach the source engine's watermark — with calibration
        enabled, that replay also rebuilds the identical rolling
        reference window, since calibration updates ride ``advance``.
        """
        engine = InferenceEngine(
            self.model, self.num_entities, self.num_relations,
            window=self.window, score_cache_size=self.score_cache_size,
            context_cache_size=self.context_cache_size)
        if self.store_path is not None:
            engine.use_store_file(self.store_path)
        if self.calibration is not None:
            engine.enable_calibration(self.calibration)
        return engine


@dataclass
class DeltaState:
    """The small mutable half of an :class:`InferenceEngine`.

    Owns exactly what ``advance`` touches: the history store (whose
    in-memory tail holds every post-snapshot fact), the time-aware
    filter, and the ingestion horizon.  Kept deliberately apart from
    :class:`ReadState` so the read/write split is structural — the
    replica layer ships deltas between processes, never read state.
    """

    history: HistoryStore
    filter: TimeAwareFilter
    last_time: Optional[int] = None


class InferenceEngine:
    """Serves one trained model over an incrementally ingested history.

    Parameters
    ----------
    model:
        A trained :class:`repro.interface.ExtrapolationModel`; switched to
        eval mode on construction.
    num_entities, num_relations:
        Vocabulary sizes (``num_relations`` counts *original* relations;
        the history store augments ingested facts with inverses itself).
    window:
        Local window length ``m`` — must match the value the model was
        trained/evaluated with for prediction parity.
    score_cache_size:
        LRU capacity of the full-score memo (0 disables it).  Entries
        live for one watermark.  The memo is also disabled automatically
        while the model has input noise enabled, since scores are then
        stochastic.

    Time contract
    -------------
    Ingestion and querying are monotonic: ``advance`` requires strictly
    increasing snapshot timestamps, and a ``predict`` at time ``t`` pins
    the history index at ``t`` so later calls may not go back before it.
    Queries at time ``t`` see exactly the facts ingested with timestamps
    ``< t`` — the same extrapolation contract as batch evaluation.  The
    engine's caches follow the contract: what is keyed below the
    horizon is retired (see the module's memory model).
    """

    def __init__(self, model, num_entities: int, num_relations: int,
                 window: int = 3, score_cache_size: int = 512,
                 context_cache_size: int = 4):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._read_state = ReadState(
            model=model.eval(), num_entities=num_entities,
            num_relations=num_relations, window=window, store_path=None,
            score_cache_size=score_cache_size,
            context_cache_size=context_cache_size)
        self._delta = DeltaState(
            history=HistoryStore.streaming(num_relations),
            filter=TimeAwareFilter([]))
        self.stats = Telemetry("serving")
        self._supports_context = all(
            hasattr(model, method) for method in
            ("precompute_context", "encode_queries", "score_queries"))
        self.cache = ContextCache(telemetry=self.stats,
                                  context_capacity=context_cache_size)
        self._score_cache = LRUCache(score_cache_size)
        # Every cache entry keyed below this time has been retired.
        self._retired_below = -1
        self._calibration = None

    # -- score calibration ----------------------------------------------
    @property
    def calibration(self):
        """The live :class:`repro.serving.ops.CalibrationState` (or None)."""
        return self._calibration

    def enable_calibration(self, config=None):
        """Attach in-stream score calibration (the ``score`` op's flag).

        ``config`` is a :class:`repro.serving.ops.CalibrationConfig`
        (defaults applied when None).  From here on every ``advance``
        scores its snapshot against pre-advance history, rolls the
        scores into the calibrator's reference window and feeds the
        :class:`repro.obs.DriftMonitor` — all on the write path, so
        calibration state stays bitwise-identical across replicas.  The
        config becomes part of the immutable read state: spawned
        replicas re-enable it automatically.  Returns the new state.
        """
        # Lazy import: the ops layer sits above the engine.
        from .ops import CalibrationConfig, CalibrationState
        if config is None:
            config = CalibrationConfig()
        config.validate()
        self._calibration = CalibrationState(config, telemetry=self.stats)
        self._read_state = replace(self._read_state, calibration=config)
        return self._calibration

    # -- read/write split ----------------------------------------------
    # The engine's state is partitioned into the frozen, shareable
    # ReadState and the private mutable DeltaState; the historical
    # attribute surface (model, window, history, ...) is preserved as
    # delegating properties so every pre-split caller keeps working.
    def read_state(self) -> ReadState:
        """The immutable shareable half (see :class:`ReadState`)."""
        return self._read_state

    @property
    def watermark(self) -> int:
        """The history store's snapshot count (monotonic version).

        The replica-set consistency token: a replica whose watermark
        trails the router's is lagging and reports itself unready
        instead of answering from stale history.
        """
        return self._delta.history.watermark

    @property
    def model(self):
        """The frozen eval-mode model (shared across replicas)."""
        return self._read_state.model

    @property
    def num_entities(self) -> int:
        """Entity vocabulary size."""
        return self._read_state.num_entities

    @property
    def num_relations(self) -> int:
        """Original-relation vocabulary size (inverses are derived)."""
        return self._read_state.num_relations

    @property
    def window(self) -> int:
        """Local window length ``m`` (paper §III-C)."""
        return self._read_state.window

    @window.setter
    def window(self, value: int) -> None:
        """Rebind the read state with a new window (pre-spawn tuning)."""
        self._read_state = replace(self._read_state, window=int(value))

    @property
    def store_path(self) -> Optional[str]:
        """Absolute path of the mapped backing file (None if streamed)."""
        return self._read_state.store_path

    @property
    def history(self) -> HistoryStore:
        """The mutable history store (base region + streamed tail)."""
        return self._delta.history

    @property
    def filter(self) -> TimeAwareFilter:
        """The time-aware filter over every ingested fact."""
        return self._delta.filter

    @property
    def last_time(self) -> Optional[int]:
        """The latest ingested snapshot timestamp (None while empty)."""
        return self._delta.last_time

    @last_time.setter
    def last_time(self, value: Optional[int]) -> None:
        """Write through to the mutable delta half (restore path)."""
        self._delta.last_time = value

    @property
    def _context_cache(self) -> LRUCache:
        """The per-timestamp encoder-context LRU (read-only view)."""
        return self.cache.contexts

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_checkpoint(cls, checkpoint_path: str, model_name: str,
                        dataset: TKGDataset, window: int = 3,
                        **model_overrides) -> "InferenceEngine":
        """Build a registered model, load weights, wrap it in an engine."""
        from ..registry import build_model
        from ..training.checkpoint import load_checkpoint
        model = build_model(model_name, dataset, **model_overrides)
        load_checkpoint(model, checkpoint_path)
        return cls(model, dataset.num_entities, dataset.num_relations,
                   window=window)

    def preload(self, dataset: TKGDataset, splits: Sequence[str] = ("train",),
                up_to: Optional[int] = None) -> int:
        """Ingest a dataset's facts snapshot-by-snapshot; returns #facts."""
        facts = QuadrupleSet.empty()
        for split in splits:
            facts = facts.concat(dataset.splits()[split])
        total = 0
        for t, arr in sorted(facts.group_by_time().items()):
            if up_to is not None and t > up_to:
                break
            self.advance(arr[:, :3], time=int(t))
            total += len(arr)
        return total

    def use_store_file(self, path: str) -> int:
        """Adopt a memory-mapped ``repro.data`` store file as the history.

        Replaces whatever was ingested so far: the engine's history
        becomes a zero-copy view of the backing file
        (:func:`repro.data.open_store`), so N replicas serving the same
        file share one physical fact buffer through the page cache.
        Later :meth:`advance` calls append normally — the deltas live in
        memory and are recorded, so :meth:`serving_state` stays
        replayable as (backing path + delta facts).

        The time-aware filter (``filtered`` predictions need it) takes
        the mapped columns as they are, with the file's ``snap_times``
        and ``offsets`` as its per-time row ranges: no copy, no sort and
        no page of the ``t`` column read.  Each timestamp's block is
        sorted when a query first reaches it (see
        :mod:`repro.tkg.filtering`).
        Returns the number of augmented facts mapped.
        """
        # Lazy import: repro.serving must not require repro.data unless
        # a backing file is actually used (and repro.data imports the
        # history layer, not the other way around).
        from ..data.storefile import map_columns, open_store
        store = open_store(path, record_raw=True)
        if store.num_relations != self.num_relations:
            raise ValueError(
                f"store file holds {store.num_relations} relations, "
                f"engine expects {self.num_relations}")
        info, arrays = map_columns(path)
        self._delta = DeltaState(
            history=store, last_time=store.last_time,
            filter=TimeAwareFilter.from_time_runs(
                arrays["s"], arrays["r"], arrays["o"],
                arrays["snap_times"], arrays["offsets"]))
        self._clear_caches()
        self._read_state = replace(self._read_state,
                                   store_path=store.backing_path)
        self.stats.incr("facts_ingested", info.num_facts)
        self.stats.incr("snapshots_ingested", info.num_snapshots)
        return info.num_facts

    # -- ingestion ------------------------------------------------------
    def advance(self, facts: np.ndarray, time: Optional[int] = None) -> int:
        """Ingest one snapshot; returns the number of (original) facts.

        ``facts`` is ``(k, 3)`` ``(s, r, o)`` rows for one timestamp, or
        ``(k, 4)`` rows whose shared time column may replace ``time``.
        Timestamps must be strictly increasing across calls.
        """
        with self.stats.span("ingest", nested=False):
            arr = np.asarray(facts, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] not in (3, 4):
                raise ValueError(f"expected (k, 3) or (k, 4) facts, "
                                 f"got shape {arr.shape}")
            if arr.shape[1] == 4:
                stamps = np.unique(arr[:, 3])
                if len(stamps) > 1:
                    raise ValueError("one advance() call ingests one "
                                     f"snapshot; got timestamps {stamps}")
                if time is None and len(stamps):
                    time = int(stamps[0])
                arr = arr[:, :3]
            if time is None:
                time = 0 if self.last_time is None else self.last_time + 1
            time = int(time)
            if (self._calibration is not None and self.last_time is not None
                    and time > self.last_time):
                # Score the incoming snapshot against pre-advance history
                # (write-path calibration: replicas replaying this delta
                # derive the identical reference window).  Skipped for
                # the very first snapshot (no history to condition on)
                # and for out-of-order times extend() will reject.
                self._calibration.ingest(self, arr, time)
            augmented = self.history.extend(arr, time)
            self.filter.add_facts(augmented)
            # Encoder contexts and subgraphs for a query time beyond the
            # new snapshot now have a stale history; those at its time
            # stay valid (a query at t sees facts before t only) but,
            # like every entry, go once the horizon passes them.  Every
            # memo entry is of the old watermark, which no query can
            # reach again.
            self._retire(self.history.index.horizon, after=time)
            self.last_time = time
            self.stats.incr("facts_ingested", len(arr))
            self.stats.incr("snapshots_ingested")
            self.stats.observe("context_cache_entries",
                               len(self.cache.contexts))
            self.stats.observe("subgraph_cache_entries",
                               len(self.cache.subgraphs))
            self.stats.observe("score_cache_entries", len(self._score_cache))
        return len(arr)

    # -- cache scope ----------------------------------------------------
    def _retire(self, below: int, after: Optional[int] = None) -> None:
        """Drop every cached entry no later request can reach: contexts,
        subgraphs and memo entries keyed below ``below`` or after
        ``after`` (see :meth:`ContextCache.retire`), and memo entries of
        an older watermark."""
        watermark = self.watermark
        retired = self.cache.retire(below, after)
        retired += self._score_cache.evict_if(
            lambda key: key[0] != watermark or key[1] < below)
        self._retired_below = max(self._retired_below, below)
        if retired:
            self.stats.incr("cache_entries_retired", retired)

    def _clear_caches(self) -> None:
        """Empty every cache (the history was replaced)."""
        self.cache.clear()
        self._score_cache.clear()
        self._retired_below = -1

    # -- query-time state -----------------------------------------------
    @property
    def next_time(self) -> int:
        """The earliest fully-served timestamp (one past the ingested horizon)."""
        return 0 if self.last_time is None else self.last_time + 1

    def window_before(self, query_time: int) -> List[Snapshot]:
        """The last ``window`` ingested snapshots before ``query_time``.

        Served straight from the shared history store, so sparse streams
        with timestamp gaps keep a full local window — identical to
        :meth:`repro.training.context.HistoryContext.window_before`.
        """
        return self.history.window_before(query_time, self.window)

    def _context(self, query_time: int) -> Dict:
        """Cached query-independent encoder state for ``query_time``."""
        def build() -> Dict:
            with no_grad():
                return self.model.precompute_context(
                    self.window_before(query_time), query_time)
        return self.cache.context(query_time, build)

    def global_edges(self, query_time: int, subjects: np.ndarray,
                     relations: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached merged historical subgraph for one query batch.

        Public counterpart of
        :meth:`repro.training.context.HistoryContext.global_edges`; the
        two are asserted bitwise-identical on shared streams by
        ``tests/integration/test_history_parity.py``.  A time behind the
        index's horizon is refused whether or not the batch is cached:
        a lookup answers only what a rebuild would.
        """
        self._refuse_behind_horizon(query_time)
        return self.cache.subgraph(
            query_time, subjects, relations,
            lambda: self.history.subgraph(query_time, subjects, relations))

    def history_index_at(self, query_time: int):
        """The shared global index advanced to ``query_time``."""
        return self.history.index_at(query_time)

    # -- prediction -----------------------------------------------------
    def predict(self, subjects: np.ndarray, relations: np.ndarray,
                time: Optional[int] = None) -> np.ndarray:
        """Scores ``(Q, |E|)`` for aligned query arrays at one timestamp.

        ``relations`` may contain inverse-space ids (``>= num_relations``)
        for object-to-subject queries, exactly as in batch evaluation.
        ``time`` defaults to :attr:`next_time`.
        """
        query_time = self.next_time if time is None else int(time)
        return self._scores(subjects, relations, query_time, query_time)

    def predict_horizon(self, subjects: np.ndarray, relations: np.ndarray,
                        steps: int = 1) -> np.ndarray:
        """Scores at the future timestamp ``next_time + steps - 1``.

        The ``forecast`` op's forward: the query timestamp moves
        ``steps`` past the ingested horizon (so time encodings see the
        true elapsed gap) while the historical evidence — the local
        window *and* the global subgraph — stays anchored at
        :attr:`next_time`.  Between the horizon and the target no facts
        exist, so the anchored subgraph is exactly the subgraph a
        genuine query at the target time would see; anchoring just
        avoids pinning the monotonic history index past ``next_time``,
        which would poison later ``predict`` calls at nearer times (and
        would do so on *one* round-robin replica only, breaking replica
        parity).  ``steps=1`` is exactly :meth:`predict` at
        ``next_time``.
        """
        steps = int(steps)
        if steps < 1:
            raise ValueError("steps must be >= 1")
        anchor = self.next_time
        return self._scores(subjects, relations, anchor + steps - 1, anchor)

    def batch_scores(self, subjects: np.ndarray, relations: np.ndarray,
                     time: Optional[int] = None):
        """One batch's scores in the form the ranking kernel takes.

        :class:`repro.interface.ScoreFactors` for models with the
        incremental-context protocol, ``predict_on``'s ``(Q, |E|)``
        matrix otherwise (the split of
        :func:`repro.eval.protocol.batch_scores`), from the same forward
        as :meth:`predict`.  Never reads or writes the score memo, so a
        caller that forms the product one row block at a time
        (:func:`repro.serving.ops.score_facts`) never holds the whole
        matrix.  ``time`` defaults to :attr:`next_time`.
        """
        query_time = self.next_time if time is None else int(time)
        subjects, relations = self._queries(subjects, relations, query_time)
        self.stats.incr("queries_served", len(subjects))
        return self._forward(subjects, relations, query_time, query_time,
                             factored=True)

    def _queries(self, subjects: np.ndarray, relations: np.ndarray,
                 anchor: int) -> Tuple[np.ndarray, np.ndarray]:
        """Aligned int64 query arrays; raises when ``anchor`` is behind
        the history index's horizon.

        Every read passes here first, so this is where the horizon rule
        runs, before the read builds anything: it retires every entry
        keyed below the horizon the read leaves behind, ``anchor`` when
        it is served (the read pins the index there) and the current
        horizon when it is refused.  A read that does not move past the
        last retirement point scans nothing.
        """
        subjects = np.ascontiguousarray(subjects, dtype=np.int64)
        relations = np.ascontiguousarray(relations, dtype=np.int64)
        if subjects.shape != relations.shape or subjects.ndim != 1:
            raise ValueError("subjects/relations must be aligned 1-D arrays")
        horizon = max(anchor, self.history.index.horizon)
        if horizon > self._retired_below:
            self._retire(horizon)
        self._refuse_behind_horizon(anchor)
        return subjects, relations

    def _refuse_behind_horizon(self, anchor: int) -> None:
        """Raise when ``anchor`` is behind the history index's horizon."""
        if anchor < self.history.index.horizon:
            raise ValueError(
                f"queries must advance monotonically in time: the index is "
                f"already at t={self.history.index.horizon}, "
                f"asked {anchor}")

    def _forward(self, subjects: np.ndarray, relations: np.ndarray,
                 target: int, anchor: int, factored: bool = False):
        """The one forward of every read: scores at ``target`` over the
        history index at ``anchor``.  A ``(Q, |E|)`` matrix, or with
        ``factored`` what :meth:`batch_scores` returns."""
        if self._supports_context:
            context = self._context(target)
            edges = self.global_edges(anchor, subjects, relations)
            with self.stats.span("forward", nested=False):
                with no_grad():
                    encoded = self.model.encode_queries(context, subjects,
                                                        relations, edges)
                    scores = self.model.score_queries(
                        encoded, subjects, relations, factored=factored)
            return scores if factored else scores.data
        history = self if anchor == target else _HorizonView(self, anchor)
        batch = TimestepBatch(time=target, subjects=subjects,
                              relations=relations, objects=None,
                              phase="serving", context=history)
        with self.stats.span("forward", nested=False):
            return self.model.predict_on(batch)

    def _scores(self, subjects: np.ndarray, relations: np.ndarray,
                target: int, anchor: int) -> np.ndarray:
        """Scores at ``target`` over the history index at ``anchor``.

        :meth:`predict` is the ``anchor == target`` case.  The memo is
        keyed at the *target* time: an anchored subgraph is
        content-identical to the target-time one (no facts in between),
        so horizon entries agree with genuine predicts at the target
        and horizons never collide with each other.  It holds entries
        of the current watermark only, targeted at or past the horizon
        (see :meth:`_retire`).
        """
        subjects, relations = self._queries(subjects, relations, anchor)
        memo_enabled = (self._score_cache.capacity > 0
                        and getattr(self.model, "input_noise_std", 0.0) <= 0.0)
        # subgraph_key folds dtype+length into the key (repro.history
        # .array_key) — the queries above are normalized to int64, but
        # keying through the shared helper keeps every content-addressed
        # cache in the repo collision-safe by construction.  The store
        # watermark prefixes the key, so an entry can only ever answer
        # a query at the watermark it was computed at.
        key = (self.watermark,) + subgraph_key(target, subjects, relations)
        if memo_enabled:
            cached = self._score_cache.get(key)
            if cached is not None:
                self.stats.incr("score_cache_hits")
                self.stats.incr("queries_served", len(subjects))
                return cached.copy()
        self.stats.incr("score_cache_misses")

        scores = self._forward(subjects, relations, target, anchor)
        if memo_enabled:
            self._score_cache.put(key, scores)
        self.stats.incr("queries_served", len(subjects))
        return scores.copy() if memo_enabled else scores

    def predict_topk(self, subject: int, relation: int, k: int = 10,
                     time: Optional[int] = None,
                     filtered: bool = False) -> List[Tuple[int, float]]:
        """Top-k ``(entity, probability)`` answers for one query.

        With ``filtered=True`` entities already observed as answers of
        ``(subject, relation)`` at the query timestamp (per the ingested
        facts) are excluded before ranking.
        """
        query_time = self.next_time if time is None else int(time)
        scores = self.predict(np.array([subject]), np.array([relation]),
                              time=query_time)
        return filtered_topk_rows(scores, np.array([subject]),
                                  np.array([relation]), query_time, k,
                                  self.filter if filtered else None)[0]

    def predict_topk_batch(self, subjects: np.ndarray,
                           relations: np.ndarray, k: int = 10,
                           time: Optional[int] = None,
                           filtered: bool = False
                           ) -> List[List[Tuple[int, float]]]:
        """Top-k answers for an aligned query batch via **one** forward.

        The batched counterpart of :meth:`predict_topk`: one
        :meth:`predict` call scores the whole batch, then one shared
        :func:`repro.eval.metrics.softmax_topk` pass ranks each row
        (with per-row time-aware filtering when ``filtered``).  The
        request batch is the forward batch — the same composition
        contract as :meth:`rank_queries`, so for models whose scores
        depend on batch composition (LogCL's query-aware attention pools
        relation context over the batch) the rows match the batch
        semantics, not N independent single-query calls.
        """
        subjects = np.ascontiguousarray(subjects, dtype=np.int64)
        relations = np.ascontiguousarray(relations, dtype=np.int64)
        query_time = self.next_time if time is None else int(time)
        scores = self.predict(subjects, relations, time=query_time)
        return filtered_topk_rows(scores, subjects, relations, query_time,
                                  k, self.filter if filtered else None)

    def rank_queries(self, subjects: np.ndarray, relations: np.ndarray,
                     targets: np.ndarray, time: Optional[int] = None,
                     filtered: bool = True) -> np.ndarray:
        """Time-aware filtered ranks for a gold-labelled query batch.

        The serving-side evaluation loop: scores come from
        :meth:`predict` (so every engine cache applies), competing true
        answers per the *ingested* facts are struck to ``-inf`` with one
        packed fancy-index assignment
        (:meth:`repro.tkg.filtering.TimeAwareFilter.mask_indices_for_batch`)
        and all mean-tie ranks come out of one broadcasted pass
        (:func:`repro.eval.metrics.ranks_of_targets`) — no per-query
        score copies.  The ``rank`` stage and ``queries_ranked`` counter
        record the cost in :attr:`stats`.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        query_time = self.next_time if time is None else int(time)
        scores = self.predict(subjects, relations, time=query_time)
        with self.stats.span("rank", nested=False):
            if filtered:
                rows, cols = self.filter.mask_indices_for_batch(
                    subjects, relations, query_time, targets)
                if len(rows):
                    # predict() already handed us a private array
                    # (memo hits return a copy), so strike in place.
                    scores[rows, cols] = -np.inf
            ranks = ranks_of_targets(scores, targets)
        self.stats.incr("queries_ranked", len(targets))
        return ranks

    # -- persistence ----------------------------------------------------
    def serving_state(self) -> Dict[str, np.ndarray]:
        """The engine's replayable history state as plain arrays.

        For an engine backed by a store file (:meth:`use_store_file`)
        the state is the backing path plus only the facts streamed in
        *after* adoption — the mapped facts stay in the file and are
        never duplicated into the snapshot.
        """
        state = {
            "facts": self.history.raw_facts(),
            "meta": np.array([self.num_entities, self.num_relations,
                              self.window,
                              -1 if self.last_time is None else self.last_time],
                             dtype=np.int64),
        }
        if self.store_path is not None:
            state["store_path"] = np.array(self.store_path)
        if self._calibration is not None:
            # The rolling reference window (float64, oldest first): the
            # piece of calibration state a delta replay cannot rebuild
            # (scores observed before the snapshot's base watermark).
            state["calibration"] = self._calibration.calibrator.state_array()
        return state

    def restore_state(self, state: Dict[str, np.ndarray]) -> None:
        """Rebuild ingestion state from :meth:`serving_state` output."""
        meta = np.asarray(state["meta"], dtype=np.int64)
        if int(meta[0]) != self.num_entities or int(meta[1]) != self.num_relations:
            raise ValueError(
                f"state was saved for {int(meta[0])} entities / "
                f"{int(meta[1])} relations, engine has "
                f"{self.num_entities} / {self.num_relations}")
        self.window = int(meta[2])
        self._delta = DeltaState(
            history=HistoryStore.streaming(self.num_relations),
            filter=TimeAwareFilter([]))
        self._clear_caches()
        self._read_state = replace(self._read_state, store_path=None)
        if "store_path" in state:
            # Re-adopt the backing file, then replay only the delta the
            # saved engine streamed on top of it.
            self.use_store_file(str(np.asarray(state["store_path"]).item()))
        facts = np.asarray(state["facts"], dtype=np.int64)
        if len(facts):
            replay = QuadrupleSet(facts)
            for t, arr in sorted(replay.group_by_time().items()):
                self.advance(arr[:, :3], time=int(t))
        saved_last = int(meta[3])
        if saved_last >= 0 and self.last_time != saved_last:
            self.last_time = saved_last
        if self._calibration is not None and "calibration" in state:
            # The persisted window wins over whatever the replay above
            # re-accumulated: it is the exact reference the saved engine
            # flagged against (including scores of facts that now live
            # inside the store file's base region).
            self._calibration.calibrator.restore(
                np.asarray(state["calibration"], dtype=np.float64))


class _HorizonView:
    """A history surface for horizon forecasts of non-context models.

    Implements the provider protocol :class:`TimestepBatch` expects
    (``window_before`` / ``global_edges`` / ``history_index_at`` /
    ``num_entities``) by delegating to the engine with every *index*
    access anchored at the ingestion horizon: a batch at the forecast
    target time reads the same historical evidence a query at the
    anchor would, without advancing the monotonic index past it.  The
    local window is served at the requested time — between anchor and
    target no snapshots exist, so its content matches the anchor's.
    """

    def __init__(self, engine: "InferenceEngine", anchor: int):
        self._engine = engine
        self._anchor = int(anchor)

    def window_before(self, query_time: int) -> List[Snapshot]:
        return self._engine.window_before(query_time)

    def global_edges(self, query_time: int, subjects: np.ndarray,
                     relations: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._engine.global_edges(self._anchor, subjects, relations)

    def history_index_at(self, query_time: int):
        return self._engine.history_index_at(self._anchor)

    @property
    def num_entities(self) -> int:
        return self._engine.num_entities
