"""The single source of truth for history state (`HistoryStore`).

LogCL's premise is that *one* body of history feeds two encoders: the
local window of the latest ``m`` snapshots (paper §III-C) and the global
query subgraph over all past facts (§III-D).  :class:`HistoryStore` owns
that body once, for every consumer — the trainer's
:class:`repro.training.context.HistoryContext` is a facade over it, the
serving :class:`repro.serving.InferenceEngine` streams into it, and the
evaluation/robustness harnesses read through those two.

A store holds three things, always mutually consistent:

* the **inverse-augmented snapshot sequence** — one
  :class:`repro.tkg.dataset.Snapshot` per non-empty timestamp, each
  carrying both original and inverse edges;
* the growable, monotonic
  :class:`repro.core.subgraph.GlobalHistoryIndex` over the same
  augmented facts;
* for streaming stores, the **raw ingested facts** (original, without
  inverses) so engine state stays replayable.

Two construction modes share all query-time behaviour:

* **dataset-backed** (:meth:`HistoryStore.from_dataset`) — the union of
  all splits (plus optional extra facts) is augmented once up front;
  the store is then immutable except for :meth:`rewind`.
* **streaming** (:meth:`HistoryStore.streaming`) — starts empty;
  :meth:`extend` appends one snapshot at a time in amortized O(new
  facts), augmenting with inverses on ingest.

Both modes produce bitwise-identical ``window_before`` /
``subgraph`` views for the same facts
(``tests/history/test_store.py``,
``tests/integration/test_history_parity.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.subgraph import GlobalHistoryIndex
from ..tkg.dataset import Snapshot, TKGDataset
from ..tkg.quadruples import FACT_DTYPE, QuadrupleSet


class HistoryStore:
    """Snapshot sequence + global index + inverse augmentation.

    Construct through :meth:`from_dataset` or :meth:`streaming`; the bare
    constructor wires the parts together and is not part of the public
    surface.
    """

    def __init__(self, num_relations: int, index: GlobalHistoryIndex,
                 snapshots: Dict[int, Snapshot], streaming: bool):
        self.num_relations = num_relations
        self.index = index
        self._snapshots = snapshots
        self._snap_times: List[int] = sorted(snapshots)
        self._raw_chunks: List[np.ndarray] = []   # streaming mode only
        self._raw_chunk_times: List[int] = []     # aligned with _raw_chunks
        self._streaming = streaming
        # Snapshots present at construction (mapped or dataset-built);
        # the watermark counts upward from here as extend() appends.
        self._base_watermark = len(self._snap_times)
        # Set by repro.data.storefile.open_store for memory-mapped
        # stores: the absolute path of the backing file.  Forked
        # evaluation workers re-open the same file instead of inheriting
        # arrays, so all replicas share one physical copy via the OS
        # page cache (None for purely in-memory stores).
        self.backing_path: Optional[str] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: TKGDataset,
                     extra_facts: Optional[QuadrupleSet] = None
                     ) -> "HistoryStore":
        """History over the union of all splits (standard extrapolation:
        at evaluation time everything before the query timestamp is known
        ground truth).  ``extra_facts`` extends it (the online protocol
        makes newly revealed test facts part of history this way).
        """
        facts = dataset.all_facts()
        if extra_facts is not None and len(extra_facts):
            facts = facts.concat(extra_facts).unique()
        augmented = facts.with_inverses(dataset.num_relations)
        snapshots = {int(t): Snapshot.from_array(int(t), arr)
                     for t, arr in augmented.group_by_time().items()}
        return cls(dataset.num_relations, GlobalHistoryIndex(augmented),
                   snapshots, streaming=False)

    @classmethod
    def streaming(cls, num_relations: int) -> "HistoryStore":
        """An empty store that grows one snapshot at a time via
        :meth:`extend` (the serving engine's mode)."""
        return cls(num_relations, GlobalHistoryIndex.empty(), {},
                   streaming=True)

    # -- mutation -------------------------------------------------------
    def extend(self, facts: np.ndarray, time: int) -> QuadrupleSet:
        """Append one snapshot of ``(k, 3)`` original facts at ``time``.

        Facts are inverse-augmented on ingest; both the snapshot sequence
        and the global index grow in amortized O(k).  Timestamps must be
        strictly increasing across calls.  Returns the augmented
        quadruples (the engine feeds them to its time-aware filter).
        """
        arr = np.asarray(facts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected (k, 3) fact rows, got {arr.shape}")
        time = int(time)
        if self.last_time is not None and time <= self.last_time:
            raise ValueError(f"snapshots must arrive in time order: "
                             f"got t={time} after t={self.last_time}")
        quads = np.concatenate(
            [arr, np.full((len(arr), 1), time, dtype=np.int64)], axis=1)
        augmented = QuadrupleSet(quads).with_inverses(self.num_relations)
        self._snapshots[time] = Snapshot.from_array(time, augmented.array)
        self._snap_times.append(time)   # strictly increasing => sorted
        self.index.extend(augmented.array)
        if self._streaming:
            # Range-validated by the QuadrupleSet construction above.
            self._raw_chunks.append(quads.astype(FACT_DTYPE))
            self._raw_chunk_times.append(time)
        return augmented

    def rewind(self) -> None:
        """Rewind the monotonic index to the stream's start (epoch start).

        O(1): only the index's cursor and horizon reset.  Its fact
        buffer, triple index and entity CSRs (pure functions of the
        stored facts) are kept, where a fresh :class:`GlobalHistoryIndex`
        would copy and re-sort them; asserted behaviourally identical to a rebuild in
        ``tests/history/test_store.py``.
        """
        self.index.rewind()

    # -- watermarks ------------------------------------------------------
    @property
    def watermark(self) -> int:
        """Monotonic store version: the total number of snapshots applied.

        Counts the base snapshots present at construction (mapped file
        sections or the dataset build) plus every :meth:`extend` since.
        Two stores that applied the same snapshot sequence share the
        same watermark, which is what the serving replica set handshakes
        on before answering reads.
        """
        return len(self._snap_times)

    @property
    def base_watermark(self) -> int:
        """The watermark at construction (mapped/dataset snapshots only)."""
        return self._base_watermark

    def delta_since(self, watermark: int) -> List[Tuple[int, np.ndarray]]:
        """The streamed snapshots applied after ``watermark``.

        Returns ``(time, (k, 3) facts)`` pairs in application order —
        the replayable delta a lagging replica (or a restarted engine)
        must apply to catch up from ``watermark`` to :attr:`watermark`.
        Only recorded for streaming stores; asking a non-recording store
        for a non-empty delta raises.
        """
        watermark = int(watermark)
        if not self._base_watermark <= watermark <= self.watermark:
            raise ValueError(
                f"watermark {watermark} outside the recorded range "
                f"[{self._base_watermark}, {self.watermark}]")
        if self.watermark - self._base_watermark != len(self._raw_chunks):
            raise ValueError(
                "store did not record raw deltas (non-streaming mode); "
                "delta_since is only available on streaming stores")
        start = watermark - self._base_watermark
        return [(self._raw_chunk_times[i], self._raw_chunks[i][:, :3])
                for i in range(start, len(self._raw_chunks))]

    # -- query-time views -----------------------------------------------
    @property
    def last_time(self) -> Optional[int]:
        """The latest stored snapshot timestamp (None while empty)."""
        return self._snap_times[-1] if self._snap_times else None

    @property
    def num_snapshots(self) -> int:
        """How many snapshots are stored."""
        return len(self._snap_times)

    def snapshot_times(self) -> List[int]:
        """Stored snapshot timestamps, ascending (a copy)."""
        return list(self._snap_times)

    def window_before(self, query_time: int, window: int) -> List[Snapshot]:
        """The last ``window`` non-empty snapshots before ``query_time``.

        Walks back over *existing* snapshot times, so streams with
        timestamp gaps still fill the full window — the paper's "latest
        m snapshots" (§III-C), not the last m raw timestamps.
        """
        end = bisect_left(self._snap_times, query_time)
        start = max(0, end - window)
        return [self._snapshots[t] for t in self._snap_times[start:end]]

    def index_at(self, query_time: int) -> GlobalHistoryIndex:
        """The global index advanced to ``query_time`` (facts ``< t``)."""
        self.index.advance_to(query_time)
        return self.index

    def subgraph(self, query_time: int, subjects: np.ndarray,
                 relations: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged historical query subgraph (§III-D) for one batch.

        The edges are the distinct historical triples: deduplicated
        edges measured better than multiplicity-weighted ones at bench
        scale (repeated edges over-smooth the R-GCN aggregation).
        """
        index = self.index_at(query_time)
        return index.subgraph_for_queries(
            np.stack([np.asarray(subjects), np.asarray(relations)], axis=1))

    # -- persistence ----------------------------------------------------
    def raw_facts(self) -> np.ndarray:
        """All ingested original facts as one ``(n, 4)`` array.

        Only meaningful for streaming stores — the replayable engine
        state (:meth:`repro.serving.InferenceEngine.serving_state`).
        """
        if not self._raw_chunks:
            return np.empty((0, 4), dtype=FACT_DTYPE)
        return np.concatenate(self._raw_chunks, axis=0)
