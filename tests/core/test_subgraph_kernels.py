"""The sort-free triple-id unique and the shift-packed triple dedupe
(§III-D).

Both replace a sort-based unique on the subgraph path, so both are held
to ``np.unique``: the triple ids to the 1-D unique, the triples to the
row-wise ``np.unique(axis=0)`` (same rows, same lexicographic order).
"""

import numpy as np
import pytest

from repro.core.subgraph import (GlobalHistoryIndex, _dedupe_triples,
                                 _marked_unique)
from repro.tkg import QuadrupleSet
from repro.tkg.quadruples import FACT_DTYPE

from .reference_index import ReferenceHistoryIndex

RNG = np.random.default_rng(23)


def _assert_same_subgraph(index, oracle, queries):
    for got, want in zip(index.subgraph_for_queries(queries),
                         oracle.subgraph_for_queries(queries,
                                                     deduplicate=True)):
        assert got.dtype == want.dtype == FACT_DTYPE
        np.testing.assert_array_equal(got, want)


class TestMarkedUnique:
    @pytest.mark.parametrize("size", [1, 2, 1000, 65537])
    def test_matches_np_unique(self, size):
        marker = np.zeros(size, dtype=bool)
        values = RNG.integers(0, size, 3 * size)
        values[:2] = [0, size - 1]                 # both ends of the span
        got = _marked_unique(marker, values)
        np.testing.assert_array_equal(got, np.unique(values))
        assert not marker.any()                    # cleared for reuse

    def test_no_parts_and_empty_parts(self):
        marker = np.zeros(8, dtype=bool)
        assert len(_marked_unique(marker, np.empty(0, dtype=np.int64))) == 0
        assert len(_marked_unique(
            marker, np.empty(0, dtype=FACT_DTYPE))) == 0
        assert not marker.any()

    def test_index_marker_follows_a_growing_cursor(self):
        """Only triples first seen below the cursor are marked, as the
        cursor moves through the base region and on into streamed
        appends."""
        quads = RNG.integers(0, 30, (400, 4))
        quads[:, 3] = np.sort(RNG.integers(0, 10, 400))
        rows = QuadrupleSet(quads).array
        index = GlobalHistoryIndex(QuadrupleSet(rows))
        oracle = ReferenceHistoryIndex(rows)
        queries = [tuple(q) for q in RNG.integers(0, 30, (12, 2)).tolist()]
        for time, extra in ((1, None), (5, None), (12, 300), (20, 900)):
            if extra is not None:
                chunk = RNG.integers(0, 30, (extra, 4))
                chunk[:, 3] = time - 1
                index.extend(chunk)
                oracle.extend(chunk)
            index.advance_to(time)
            oracle.advance_to(time)
            _assert_same_subgraph(index, oracle, queries)

    def test_streamed_snapshots_reuse_the_marker(self):
        """The marker is sized to the base's triples, so a stream of
        small snapshots never reallocates it."""
        quads = RNG.integers(0, 30, (400, 4))
        quads[:, 3] = np.sort(RNG.integers(0, 10, 400))
        rows = QuadrupleSet(quads).array
        index = GlobalHistoryIndex(QuadrupleSet(rows))
        oracle = ReferenceHistoryIndex(rows)
        queries = [tuple(q) for q in RNG.integers(0, 30, (4, 2)).tolist()]
        markers = []
        for time in range(10, 310):
            chunk = RNG.integers(0, 30, (10, 4))
            chunk[:, 3] = time
            index.extend(chunk)
            oracle.extend(chunk)
            index.advance_to(time + 1)
            index.subgraph_for_queries(queries)
            if not markers or index._triple_marker is not markers[-1]:
                markers.append(index._triple_marker)
        assert len(markers) == 1
        oracle.advance_to(310)
        _assert_same_subgraph(index, oracle, queries)


def _check_dedupe(src, rel, dst):
    rows = np.stack([src, rel, dst], axis=1).astype(FACT_DTYPE)
    got = _dedupe_triples(*(rows[:, col].copy() for col in range(3)))
    assert got is not None
    assert all(col.dtype == FACT_DTYPE for col in got)
    np.testing.assert_array_equal(np.stack(got, axis=1),
                                  np.unique(rows, axis=0))


class TestShiftPackedDedupe:
    def test_random_triples_with_repeats(self):
        rows = RNG.integers(0, 50, (3000, 3))
        rows = np.concatenate([rows, rows[:1000]])
        _check_dedupe(rows[:, 0], rows[:, 1], rows[:, 2])

    @pytest.mark.parametrize("bits", [1, 7, 8, 16, 21])
    def test_ids_at_the_bit_bounds(self, bits):
        """Spans of exactly ``2**bits - 1`` and one past it; at 21 bits
        per column the three fields fill all 63 bits."""
        top = (1 << bits) - 1
        edge = np.array([0, 1, top - 1, top])
        rows = np.array(np.meshgrid(edge, edge, edge)).reshape(3, -1).T
        rows = np.concatenate([rows, rows[::3]])
        _check_dedupe(rows[:, 0], rows[:, 1], rows[:, 2])
        over = np.array([0, top + 1])
        _check_dedupe(over, np.array([0, 0]), over[::-1].copy())

    def test_negative_and_constant_columns(self):
        src = RNG.integers(-1000, 1000, 500)
        rel = np.full(500, 7)                     # a zero-width field
        dst = RNG.integers(-2 ** 31, 2 ** 31 - 1, 500)
        _check_dedupe(src, rel, dst)

    def test_overflowing_fields_fall_back(self):
        wide = np.array([0, 2 ** 31 - 1, 2 ** 31 - 1], dtype=FACT_DTYPE)
        assert _dedupe_triples(wide, wide, wide) is None

    def test_fallback_through_the_index(self):
        """Streamed ids whose fields need more than 63 bits take the
        row-wise ``np.unique(axis=0)`` path and give the same edges."""
        big = 2 ** 31 - 1
        base = QuadrupleSet.from_quads([(0, 1, 2, 0), (2, 1, 0, 0)]).array
        streamed = np.array([[0, big, big, 1], [big, 0, 0, 1],
                             [0, big, big, 2], [big, big, 0, 2],
                             [0, 5, big, 3]], dtype=FACT_DTYPE)
        index = GlobalHistoryIndex(QuadrupleSet(base))
        oracle = ReferenceHistoryIndex(base)
        index.extend(streamed)
        oracle.extend(streamed)
        index.advance_to(4)
        oracle.advance_to(4)
        kept = oracle.subgraph_for_queries([(0, big)])
        assert _dedupe_triples(*kept) is None
        _assert_same_subgraph(index, oracle, [(0, big)])
        deduped = index.subgraph_for_queries([(0, big)])
        assert len(deduped[0]) < len(kept[0])
