"""HistoryStore: dataset-backed vs streaming parity, rewind, contracts."""

import numpy as np
import pytest

from repro.core.subgraph import GlobalHistoryIndex
from repro.datasets import tiny
from repro.history import HistoryStore
from repro.tkg import QuadrupleSet, TKGDataset


def sparse_dataset() -> TKGDataset:
    train = QuadrupleSet.from_quads([
        (0, 0, 1, 0), (1, 1, 2, 0),
        (2, 0, 3, 7), (0, 0, 2, 7),
        (3, 1, 0, 15),
    ])
    valid = QuadrupleSet.from_quads([(1, 0, 3, 20)])
    test = QuadrupleSet.from_quads([(2, 1, 4, 30)])
    return TKGDataset("sparse", train, valid, test,
                      num_entities=5, num_relations=2)


def streaming_copy(dataset: TKGDataset) -> HistoryStore:
    """A streaming store fed the dataset's facts snapshot by snapshot."""
    store = HistoryStore.streaming(dataset.num_relations)
    for t, arr in sorted(dataset.all_facts().group_by_time().items()):
        store.extend(arr[:, :3], int(t))
    return store


class TestConstructionParity:
    """Dataset-backed and streaming construction expose identical views."""

    @pytest.mark.parametrize("dataset_fn", [sparse_dataset, tiny],
                             ids=["sparse", "tiny"])
    def test_windows_and_subgraphs_identical(self, dataset_fn):
        dataset = dataset_fn()
        backed = HistoryStore.from_dataset(dataset)
        streamed = streaming_copy(dataset)
        assert backed.snapshot_times() == streamed.snapshot_times()
        probes = [t + d for t in backed.snapshot_times() for d in (0, 1)]
        for probe in probes:
            a = backed.window_before(probe, 3)
            b = streamed.window_before(probe, 3)
            assert [s.time for s in a] == [s.time for s in b]
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x.src, y.src)
                np.testing.assert_array_equal(x.rel, y.rel)
                np.testing.assert_array_equal(x.dst, y.dst)
        subjects = np.array([0, 1, 2])
        relations = np.array([0, 1, 2])   # includes one inverse-space id
        for probe in sorted(set(probes)):
            for got, want in zip(streamed.subgraph(probe, subjects, relations),
                                 backed.subgraph(probe, subjects, relations)):
                np.testing.assert_array_equal(got, want)

    def test_snapshots_carry_inverse_edges(self):
        dataset = sparse_dataset()
        for store in (HistoryStore.from_dataset(dataset),
                      streaming_copy(dataset)):
            snap = store.window_before(1, 1)[0]
            assert snap.rel.max() >= dataset.num_relations


class TestStreamingContracts:
    def test_extend_rejects_out_of_order(self):
        store = HistoryStore.streaming(2)
        store.extend(np.array([[0, 0, 1]]), 5)
        with pytest.raises(ValueError, match="time order"):
            store.extend(np.array([[1, 0, 2]]), 5)

    def test_extend_rejects_bad_shape(self):
        store = HistoryStore.streaming(2)
        with pytest.raises(ValueError, match=r"\(k, 3\)"):
            store.extend(np.array([[0, 0, 1, 3]]), 3)

    def test_raw_facts_replay_roundtrip(self):
        dataset = sparse_dataset()
        store = streaming_copy(dataset)
        replayed = HistoryStore.streaming(dataset.num_relations)
        for t, arr in sorted(QuadrupleSet(store.raw_facts())
                             .group_by_time().items()):
            replayed.extend(arr[:, :3], int(t))
        assert replayed.snapshot_times() == store.snapshot_times()
        np.testing.assert_array_equal(replayed.raw_facts(),
                                      store.raw_facts())

    def test_last_time_tracks_stream(self):
        store = HistoryStore.streaming(1)
        assert store.last_time is None
        store.extend(np.array([[0, 0, 1]]), 4)
        assert store.last_time == 4
        assert store.num_snapshots == 1


class TestRewind:
    """`rewind()` must be behaviourally identical to a fresh index."""

    def _assert_index_equivalent(self, rewound: GlobalHistoryIndex,
                                 fresh: GlobalHistoryIndex,
                                 dataset: TKGDataset, horizon: int):
        rewound.advance_to(horizon)
        fresh.advance_to(horizon)
        assert rewound.num_indexed_facts == fresh.num_indexed_facts
        assert rewound.horizon == fresh.horizon
        queries = [(s, r) for s in range(dataset.num_entities)
                   for r in range(2 * dataset.num_relations)]
        for s, r in queries:
            assert (rewound.historical_answers(s, r)
                    == fresh.historical_answers(s, r))
            assert rewound.answer_counts(s, r) == fresh.answer_counts(s, r)
        for got, want in zip(rewound.subgraph_for_queries(queries),
                             fresh.subgraph_for_queries(queries)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rewound.facts_since(0),
                                      fresh.facts_since(0))

    def test_rewound_index_matches_fresh(self):
        dataset = sparse_dataset()
        augmented = dataset.all_facts().with_inverses(dataset.num_relations)
        store = HistoryStore.from_dataset(dataset)
        # Advance all the way, rewind, then compare against a never-used
        # fresh index at several horizons (including a partial one).
        store.index_at(31)
        for horizon in (8, 16, 31):
            store.rewind()
            assert store.index.num_indexed_facts == 0
            self._assert_index_equivalent(store.index,
                                          GlobalHistoryIndex(augmented),
                                          dataset, horizon)

    def test_rewind_preserves_identity(self):
        """Consumers hold references to the index (the recency heuristic
        keys its reset logic on identity + horizon); rewind must mutate
        in place, not swap the object."""
        store = HistoryStore.from_dataset(sparse_dataset())
        index = store.index
        store.index_at(10)
        store.rewind()
        assert store.index is index
        assert index.horizon == -1


class TestWatermarks:
    """The monotonic store version and the replayable delta export."""

    def test_watermark_counts_snapshots(self):
        store = HistoryStore.streaming(2)
        assert store.watermark == 0 and store.base_watermark == 0
        store.extend(np.array([[0, 0, 1]]), 3)
        store.extend(np.array([[1, 1, 2]]), 5)
        assert store.watermark == 2
        assert store.base_watermark == 0

    def test_dataset_store_base_watermark(self):
        dataset = sparse_dataset()
        store = HistoryStore.from_dataset(dataset)
        assert store.base_watermark == store.num_snapshots
        assert store.watermark == store.base_watermark

    def test_delta_since_replays_exactly(self):
        store = HistoryStore.streaming(2)
        first = np.array([[0, 0, 1], [1, 1, 2]])
        second = np.array([[2, 0, 3]])
        store.extend(first, 3)
        store.extend(second, 5)
        deltas = store.delta_since(0)
        assert [t for t, _ in deltas] == [3, 5]
        np.testing.assert_array_equal(deltas[0][1], first)
        np.testing.assert_array_equal(deltas[1][1], second)
        # Partial replay: only snapshots after the given watermark.
        partial = store.delta_since(1)
        assert [t for t, _ in partial] == [5]
        np.testing.assert_array_equal(partial[0][1], second)
        assert store.delta_since(store.watermark) == []

    def test_delta_replay_reproduces_store(self):
        """A fresh store fed delta_since(0) is behaviourally identical."""
        source = HistoryStore.streaming(2)
        rng = np.random.default_rng(0)
        for t in (0, 2, 5, 6):
            k = int(rng.integers(1, 5))
            facts = np.stack([rng.integers(0, 5, k), rng.integers(0, 2, k),
                              rng.integers(0, 5, k)], axis=1)
            source.extend(facts, t)
        replica = HistoryStore.streaming(2)
        for t, facts in source.delta_since(0):
            replica.extend(facts, t)
        assert replica.watermark == source.watermark
        assert replica.snapshot_times() == source.snapshot_times()
        subjects = np.array([0, 1, 2])
        relations = np.array([0, 1, 0])
        for a, b in zip(source.subgraph(7, subjects, relations),
                        replica.subgraph(7, subjects, relations)):
            np.testing.assert_array_equal(a, b)

    def test_delta_since_validates_range(self):
        store = HistoryStore.streaming(2)
        store.extend(np.array([[0, 0, 1]]), 1)
        with pytest.raises(ValueError, match="outside the recorded range"):
            store.delta_since(2)
        with pytest.raises(ValueError, match="outside the recorded range"):
            store.delta_since(-1)

    def test_delta_since_requires_recording(self):
        """Non-streaming stores cannot export post-base deltas."""
        dataset = sparse_dataset()
        store = HistoryStore.from_dataset(dataset)
        assert store.delta_since(store.base_watermark) == []
        store.extend(np.array([[0, 0, 1]]), 99)   # not recorded
        with pytest.raises(ValueError, match="did not record raw deltas"):
            store.delta_since(store.base_watermark)
