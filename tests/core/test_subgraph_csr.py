"""The columnar CSR history index against the dict-of-lists oracle.

White-box by design: besides the property test over the public surface,
this module checks the CSR lifecycle itself (which is why `make
lint-private` exempts it).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subgraph import GlobalHistoryIndex
from repro.tkg import QuadrupleSet
from repro.tkg.quadruples import FACT_DTYPE

from .reference_index import ReferenceHistoryIndex

ENTITIES = 6
RELATIONS = 3
# One id past the vocabulary and one negative id: lookups must simply
# find nothing for them.
QUERY_ENTITIES = st.integers(-1, ENTITIES)

facts = st.lists(st.tuples(st.integers(0, ENTITIES - 1),
                           st.integers(0, RELATIONS - 1),
                           st.integers(0, ENTITIES - 1),
                           st.integers(0, 3)), max_size=10)
operations = st.lists(st.one_of(
    st.tuples(st.just("extend"), facts),        # times offset from the last
    st.tuples(st.just("advance"), st.integers(0, 3)),
    st.tuples(st.just("rewind")),
    st.tuples(st.just("query"),
              st.lists(st.tuples(QUERY_ENTITIES,
                                 st.integers(0, RELATIONS - 1)),
                       max_size=5)),
), max_size=12)


def _rows(quads, first_time=0) -> np.ndarray:
    rows = np.array([(s, r, o, first_time + t) for s, r, o, t in quads],
                    dtype=FACT_DTYPE).reshape(-1, 4)
    return rows


def _assert_same_triples(got, want):
    for got_col, want_col in zip(got, want):
        assert got_col.dtype == want_col.dtype == FACT_DTYPE
        np.testing.assert_array_equal(got_col, want_col)


def _assert_equivalent(index, oracle, queries, last_time):
    assert index.num_indexed_facts == oracle.num_indexed_facts
    assert index.horizon == oracle.horizon
    for t in range(-1, last_time + 2):
        got, want = index.facts_since(t), oracle.facts_since(t)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    pairs = [(s, r) for s in range(-1, ENTITIES + 1)
             for r in range(RELATIONS)]
    for s, r in pairs:
        # Item order matters: downstream float sums follow it.
        assert (list(index.answer_counts(s, r).items())
                == list(oracle.answer_counts(s, r).items()))
        # NumPy scalars (e.g. from iterating an int32 column) key the
        # same lookups as python ints.
        assert (list(index.answer_counts(np.int32(s), np.int32(r)).items())
                == list(oracle.answer_counts(s, r).items()))
        assert index.historical_answers(s, r) \
            == oracle.historical_answers(s, r)
    batch = pairs + pairs[::-1]                    # repeats included
    matrix = index.answer_count_matrix(
        np.array([s for s, _ in batch], dtype=FACT_DTYPE),
        np.array([r for _, r in batch], dtype=FACT_DTYPE), ENTITIES)
    assert matrix.shape == (len(batch), ENTITIES)
    for row, (s, r) in zip(matrix, batch):
        want = np.zeros(ENTITIES, dtype=np.int64)
        for obj, count in oracle.answer_counts(s, r).items():
            want[obj] = count
        np.testing.assert_array_equal(row, want)
    triples = [(s, r, o) for s, r in batch for o in range(-1, ENTITIES + 1)]
    counts = index.fact_counts(*(np.array(col, dtype=FACT_DTYPE)
                                 for col in zip(*triples)))
    assert counts.tolist() == [oracle.answer_counts(s, r).get(o, 0)
                               for s, r, o in triples]
    for batch in (queries, [(s, r) for s in range(ENTITIES)
                            for r in range(RELATIONS)]):
        for deduplicate in (False, True):
            _assert_same_triples(
                index.subgraph_for_queries(batch, deduplicate=deduplicate),
                oracle.subgraph_for_queries(batch, deduplicate=deduplicate))


@settings(max_examples=150, deadline=None)
@given(base=facts, adopt_columns=st.booleans(), ops=operations)
def test_matches_reference_index(base, adopt_columns, ops):
    rows = QuadrupleSet(_rows(base)).array   # canonical (time-major) order
    if adopt_columns:
        columns = [np.ascontiguousarray(rows[:, c]) for c in range(4)]
        index = GlobalHistoryIndex.from_columns(*columns)
    else:
        index = GlobalHistoryIndex(QuadrupleSet(rows))
    oracle = ReferenceHistoryIndex(rows)
    last_time = int(rows[-1, 3]) if len(rows) else 0
    queries = []
    for op in ops:
        if op[0] == "extend":
            chunk = _rows(op[1], first_time=last_time)
            index.extend(chunk)
            oracle.extend(chunk)
            if len(chunk):
                last_time = int(chunk[:, 3].max())
        elif op[0] == "advance":
            horizon = max(index.horizon, 0) + op[1]
            index.advance_to(horizon)
            oracle.advance_to(horizon)
        elif op[0] == "rewind":
            index.rewind()
            oracle.rewind()
        else:
            queries = op[1]
        _assert_equivalent(index, oracle, queries, last_time)


def test_extend_merges_into_the_tail_csr_only():
    base = np.array([(0, 0, 1, 0), (1, 1, 2, 1), (2, 0, 0, 2)],
                    dtype=FACT_DTYPE)
    index = GlobalHistoryIndex.from_columns(*(base[:, c].copy()
                                              for c in range(4)))
    index.advance_to(3)
    index.subgraph_for_queries([(0, 0)])
    base_csr = index._base_csr
    base_keys = base_csr.keys

    index.extend(np.array([(0, 1, 2, 3)], dtype=FACT_DTYPE))
    index.advance_to(4)
    src, _, _ = index.subgraph_for_queries([(0, 0)])
    assert index._base_csr is base_csr
    assert index._base_csr.keys is base_keys
    assert index._tail_csr.size == 1
    assert len(src) == 4                      # the tail fact is visible

    tail_csr = index._tail_csr
    index.extend(np.array([(1, 0, 2, 5), (2, 2, 0, 5)], dtype=FACT_DTYPE))
    assert tail_csr.size == 1                 # merged lazily, on lookup
    index.advance_to(6)
    assert index.historical_answers(1, 0) == {2}
    assert index._base_csr is base_csr
    assert index._tail_csr is tail_csr        # the new rows merged in
    assert tail_csr.size == 3 and len(tail_csr.keys) == 6
    assert np.all(np.diff(tail_csr.keys) > 0)


def test_rewind_keeps_both_csrs():
    index = GlobalHistoryIndex.from_columns(
        *(np.array([0, 1], dtype=FACT_DTYPE) for _ in range(4)))
    index.extend(np.array([(0, 0, 1, 2)], dtype=FACT_DTYPE))
    index.advance_to(3)
    index.answer_counts(0, 0)
    csrs = (index._base_csr, index._tail_csr)
    index.rewind()
    assert index.num_indexed_facts == 0
    assert index.answer_counts(0, 0) == {}
    index.advance_to(3)
    assert index.answer_counts(0, 0) == {0: 1, 1: 1}
    assert (index._base_csr, index._tail_csr) == csrs
