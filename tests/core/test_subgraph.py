"""Tests for the global historical query subgraph index (§III-D)."""

import numpy as np
import pytest

from repro.core.subgraph import GlobalHistoryIndex
from repro.tkg import QuadrupleSet


def facts():
    # timeline: t0: (0,0,1), (2,1,3); t1: (1,0,2); t2: (0,0,4)
    return QuadrupleSet.from_quads([
        (0, 0, 1, 0), (2, 1, 3, 0), (1, 0, 2, 1), (0, 0, 4, 2)])


class TestAdvance:
    def test_starts_empty(self):
        index = GlobalHistoryIndex(facts())
        assert index.num_indexed_facts == 0
        assert index.historical_answers(0, 0) == set()

    def test_advance_includes_strictly_before(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(1)
        assert index.num_indexed_facts == 2
        assert index.historical_answers(0, 0) == {1}
        index.advance_to(2)
        assert index.historical_answers(1, 0) == {2}

    def test_no_leakage_of_query_time_facts(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(2)
        # the t2 fact (0,0,4) must NOT be visible at horizon 2
        assert 4 not in index.historical_answers(0, 0)

    def test_advance_backward_rejected(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(2)
        with pytest.raises(ValueError):
            index.advance_to(1)

    def test_advance_idempotent_at_same_horizon(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(2)
        index.advance_to(2)
        assert index.num_indexed_facts == 3


class TestAnswerCounts:
    def test_mutating_the_result_leaves_history_intact(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(3)
        subgraph = index.subgraph_for_queries([(0, 0)])
        counts = index.answer_counts(0, 0)
        assert counts == {1: 1, 4: 1}
        counts[1] = 7
        counts[2] = 1
        del counts[4]
        assert list(index.answer_counts(0, 0).items()) == [(1, 1), (4, 1)]
        assert index.historical_answers(0, 0) == {1, 4}
        for got, want in zip(index.subgraph_for_queries([(0, 0)]), subgraph):
            np.testing.assert_array_equal(got, want)


class TestSubgraphExtraction:
    def test_one_hop_of_subject(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(1)
        src, rel, dst = index.subgraph_for_queries([(0, 5)])
        # only fact (0,0,1) involves entity 0
        assert list(zip(src, rel, dst)) == [(0, 0, 1)]

    def test_two_hop_via_historical_answers(self):
        # query (0, 0): historical answer is 1; facts involving 1 include
        # (1, 0, 2) at t1 -> included once horizon covers it.
        index = GlobalHistoryIndex(facts())
        index.advance_to(2)
        src, rel, dst = index.subgraph_for_queries([(0, 0)])
        triples = set(zip(src.tolist(), rel.tolist(), dst.tolist()))
        assert (0, 0, 1) in triples
        assert (1, 0, 2) in triples          # one-hop of answer entity 1
        assert (2, 1, 3) not in triples      # unrelated to the query

    def test_batch_union(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(1)
        src, rel, dst = index.subgraph_for_queries([(0, 0), (2, 1)])
        triples = set(zip(src.tolist(), rel.tolist(), dst.tolist()))
        assert triples == {(0, 0, 1), (2, 1, 3)}

    def test_empty_history_returns_empty_edges(self):
        index = GlobalHistoryIndex(facts())
        index.advance_to(0)
        src, rel, dst = index.subgraph_for_queries([(0, 0)])
        assert len(src) == len(rel) == len(dst) == 0

    def test_multiplicity_kept_by_default(self):
        """Recurring facts contribute one edge per occurrence (§III-D
        samples historical *facts*), so frequency shapes the aggregation."""
        quads = QuadrupleSet.from_quads([(0, 0, 1, 0), (0, 0, 1, 1),
                                         (0, 0, 1, 2)])
        index = GlobalHistoryIndex(quads)
        index.advance_to(3)
        src, rel, dst = index.subgraph_for_queries([(0, 0)])
        assert len(src) == 3

    def test_deduplicate_option(self):
        quads = QuadrupleSet.from_quads([(0, 0, 1, 0), (0, 0, 1, 1),
                                         (0, 0, 1, 2)])
        index = GlobalHistoryIndex(quads)
        index.advance_to(3)
        src, rel, dst = index.subgraph_for_queries([(0, 0)],
                                                   deduplicate=True)
        assert len(src) == 1  # collapsed to the unique static triple

    def test_subgraph_changes_with_query_time(self):
        # the paper: "the historical query subgraph ... can change along
        # the query time"
        index = GlobalHistoryIndex(facts())
        index.advance_to(1)
        early = index.subgraph_for_queries([(0, 0)])
        index.advance_to(3)
        late = index.subgraph_for_queries([(0, 0)])
        assert len(late[0]) > len(early[0])
