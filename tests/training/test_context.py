"""Tests for HistoryContext and timestep batching (incl. two-phase)."""

import numpy as np
import pytest

from repro.core.subgraph import GlobalHistoryIndex
from repro.datasets import tiny
from repro.tkg import QuadrupleSet, TKGDataset
from repro.training import HistoryContext, iter_timestep_batches


@pytest.fixture(scope="module")
def dataset():
    return tiny()


def gapped_dataset():
    """A sparse stream: snapshots only at t = 0, 7, 15, 20, 30."""
    train = QuadrupleSet.from_quads(
        [(0, 0, 1, 0), (1, 0, 2, 7), (2, 0, 3, 15)])
    valid = QuadrupleSet.from_quads([(0, 0, 2, 20)])
    test = QuadrupleSet.from_quads([(1, 0, 3, 30)])
    return TKGDataset("gapped", train, valid, test,
                      num_entities=4, num_relations=1)


class TestHistoryContext:
    def test_window_before_clamps_at_zero(self, dataset):
        ctx = HistoryContext(dataset, window=5)
        snaps = ctx.window_before(2)
        assert all(0 <= s.time < 2 for s in snaps)

    def test_window_size_respected(self, dataset):
        ctx = HistoryContext(dataset, window=3)
        snaps = ctx.window_before(20)
        assert [s.time for s in snaps] == [17, 18, 19]

    def test_snapshots_contain_inverse_edges(self, dataset):
        ctx = HistoryContext(dataset, window=1)
        snap = ctx.window_before(10)[0]
        assert snap.rel.max() >= dataset.num_relations  # inverse ids present

    def test_global_edges_cached_per_time(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        ctx.reset()
        subj = np.array([0, 1])
        rel = np.array([0, 1])
        a = ctx.global_edges(5, subj, rel)
        b = ctx.global_edges(5, subj, rel)
        assert a is b

    def test_reset_clears_cache_and_index(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        ctx.global_edges(5, np.array([0]), np.array([0]))
        ctx.reset()
        assert ctx.global_index.num_indexed_facts == 0
        # after reset we can advance from the beginning again
        ctx.global_edges(3, np.array([0]), np.array([0]))

    def test_extra_facts_extend_history(self, dataset):
        extra = QuadrupleSet.from_quads([(0, 0, 1, dataset.num_timestamps + 3)])
        ctx = HistoryContext(dataset, window=2, extra_facts=extra)
        snaps = ctx.window_before(dataset.num_timestamps + 4)
        assert any(s.time == dataset.num_timestamps + 3 for s in snaps)

    def test_window_spans_timestamp_gaps(self):
        """Sparse streams keep a full window of the last m *non-empty*
        snapshots (paper's "latest m snapshots"), not the last m raw
        timestamps."""
        ctx = HistoryContext(gapped_dataset(), window=3)
        assert [s.time for s in ctx.window_before(30)] == [7, 15, 20]
        assert [s.time for s in ctx.window_before(16)] == [0, 7, 15]
        assert [s.time for s in ctx.window_before(15)] == [0, 7]
        assert [s.time for s in ctx.window_before(7)] == [0]
        assert ctx.window_before(0) == []

    def test_window_gap_respects_window_length(self):
        ctx = HistoryContext(gapped_dataset(), window=2)
        assert [s.time for s in ctx.window_before(31)] == [20, 30]

    def test_inverse_phase_subgraph_covers_inverse_seeds(self, dataset):
        """Regression: the subgraph cache used to be keyed by timestamp
        only, handing the inverse phase the *forward* phase's subgraph
        even though the §III-D seeds — (s, r) and its historical answers
        — differ between phases."""
        ctx = HistoryContext(dataset, window=2)
        batches = list(iter_timestep_batches(dataset, "test", ctx))
        checked_distinct = False
        for fwd, inv in zip(batches[0::2], batches[1::2]):
            assert fwd.phase == "forward" and inv.phase == "inverse"
            fwd_edges = fwd.global_edges
            inv_edges = inv.global_edges
            # The inverse batch's subgraph must equal the one seeded from
            # the *inverse* query pairs, computed on an independent index.
            reference = GlobalHistoryIndex(
                dataset.all_facts().with_inverses(dataset.num_relations))
            reference.advance_to(inv.time)
            expected = reference.subgraph_for_queries(
                list(zip(inv.subjects.tolist(), inv.relations.tolist())))
            for got, want in zip(inv_edges, expected):
                np.testing.assert_array_equal(got, want)
            if any(len(a) != len(b) or not np.array_equal(a, b)
                   for a, b in zip(fwd_edges, inv_edges)):
                checked_distinct = True
        # The fix is vacuous unless the phases actually disagree somewhere.
        assert checked_distinct


class TestTimestepBatches:
    def test_phases_and_inverse_offsets(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        batches = list(iter_timestep_batches(dataset, "train", ctx))
        forward = [b for b in batches if b.phase == "forward"]
        inverse = [b for b in batches if b.phase == "inverse"]
        assert len(forward) == len(inverse)
        assert all(b.relations.max() < dataset.num_relations for b in forward)
        assert all(b.relations.min() >= dataset.num_relations for b in inverse)

    def test_inverse_batch_mirrors_forward(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        batches = list(iter_timestep_batches(dataset, "train", ctx))
        fwd, inv = batches[0], batches[1]
        assert fwd.time == inv.time
        np.testing.assert_array_equal(fwd.subjects, inv.objects)
        np.testing.assert_array_equal(fwd.objects, inv.subjects)
        np.testing.assert_array_equal(fwd.relations + dataset.num_relations,
                                      inv.relations)

    def test_single_phase_selection(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        only_fwd = list(iter_timestep_batches(dataset, "train", ctx,
                                              phases=("forward",)))
        assert all(b.phase == "forward" for b in only_fwd)

    def test_unknown_phase_rejected(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        with pytest.raises(ValueError):
            list(iter_timestep_batches(dataset, "train", ctx,
                                       phases=("sideways",)))

    def test_min_history_skips_first_timestamps(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        batches = list(iter_timestep_batches(dataset, "train", ctx,
                                             min_history=5))
        assert min(b.time for b in batches) >= 5

    def test_batches_in_time_order(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        times = [b.time for b in iter_timestep_batches(dataset, "train", ctx)]
        assert times == sorted(times)

    def test_batch_lazy_properties(self, dataset):
        ctx = HistoryContext(dataset, window=2)
        batch = next(iter_timestep_batches(dataset, "valid", ctx))
        assert len(batch.snapshots) <= 2
        src, rel, dst = batch.global_edges
        assert len(src) == len(rel) == len(dst)
        assert batch.num_entities == dataset.num_entities
