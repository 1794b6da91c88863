"""The lazy, per-timestamp time-aware filter.

Construction keeps the caller's time-ordered columns and sorts nothing;
each timestamp's block is sorted when a query first reaches it.  These
tests hold the filter to the dict-of-frozensets oracle over random
interleavings of streamed appends, adds at stored times, duplicates and
queries (with and without filed inverses, over QuadrupleSets and raw
column tuples), count the rows a build sorts, and pin that a bad id
raises when it is added, not when it is first queried.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tkg import QuadrupleSet, StaticFilter, TimeAwareFilter
from repro.tkg import filtering

from .reference_filter import ReferenceStaticFilter, ReferenceTimeAwareFilter

NUM_RELATIONS = 3

ids = st.integers(0, 4)
facts = st.lists(st.tuples(ids, st.integers(0, NUM_RELATIONS - 1), ids,
                           st.integers(0, 6)), max_size=10)
operations = st.lists(st.one_of(
    st.tuples(st.just("append"), facts),      # times past the last one
    st.tuples(st.just("add"), facts),         # any time, stored included
    st.tuples(st.just("repeat"), st.integers(0, 50)),   # re-add a seen row
    st.tuples(st.just("mask"), st.integers(-1, 12),
              st.lists(st.tuples(st.integers(-1, 5),
                                 st.integers(-1, 2 * NUM_RELATIONS),
                                 st.integers(-1, 5)), max_size=8)),
    st.tuples(st.just("true"), st.integers(-1, 12), st.integers(-1, 5),
              st.integers(-1, 2 * NUM_RELATIONS)),
), max_size=12)


def _rows(quads):
    return np.array(quads, dtype=np.int64).reshape(-1, 4)


def _with_inverses(rows):
    inverse = rows[:, [2, 1, 0, 3]].copy()
    inverse[:, 1] += NUM_RELATIONS
    return np.concatenate((rows, inverse))


def _source(rows, as_columns):
    """A QuadrupleSet, or its time-sorted columns."""
    quads = QuadrupleSet(rows)
    if not as_columns:
        return quads
    return tuple(np.ascontiguousarray(col) for col in quads.array.T)


def _assert_same_mask(got, want):
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype
        assert got_arr.shape == want_arr.shape
        np.testing.assert_array_equal(got_arr, want_arr)


@settings(max_examples=200, deadline=None)
@given(st.lists(facts, max_size=3), operations, st.booleans(),
       st.booleans())
def test_matches_oracle_over_interleavings(initial, ops, inverses,
                                           as_columns):
    sources = [_source(_rows(quads), as_columns) for quads in initial]
    expand = _with_inverses if inverses else (lambda rows: rows)
    filt = TimeAwareFilter(sources, NUM_RELATIONS if inverses else None)
    oracle = ReferenceTimeAwareFilter(
        [QuadrupleSet(expand(_rows(quads))) for quads in initial])
    seen = [quad for quads in initial for quad in quads]
    for op in ops:
        kind = op[0]
        if kind in ("append", "add", "repeat"):
            if kind == "repeat":
                if not seen:
                    continue
                rows = _rows([seen[op[1] % len(seen)]])
            else:
                rows = _rows(op[1])
                if kind == "append" and len(rows):
                    last = max([q[3] for q in seen], default=-1)
                    rows[:, 3] += last + 1
            filt.add_facts(QuadrupleSet(rows) if len(seen) % 2 else rows)
            oracle.add_facts(expand(rows))
            seen.extend(map(tuple, rows.tolist()))
        elif kind == "mask":
            _, time, queries = op
            subjects, relations, targets = (
                np.array([q[i] for q in queries], dtype=np.int64)
                for i in range(3))
            _assert_same_mask(
                filt.mask_indices_for_batch(subjects, relations, time,
                                            targets),
                oracle.mask_indices_for_batch(subjects, relations, time,
                                              targets))
        else:
            _, time, s, r = op
            assert filt.true_objects(s, r, time) \
                == oracle.true_objects(s, r, time)
    for s, r, o, t in seen:
        assert filt.true_objects(s, r, t) == oracle.true_objects(s, r, t)
        if inverses:
            assert filt.true_objects(o, r + NUM_RELATIONS, t) \
                == oracle.true_objects(o, r + NUM_RELATIONS, t)
    if initial:
        static = StaticFilter(sources, NUM_RELATIONS if inverses else None)
        static_oracle = ReferenceStaticFilter(
            [QuadrupleSet(expand(_rows(quads))) for quads in initial])
        rows = expand(_rows([q for quads in initial for q in quads]))
        subjects, relations, _, targets = rows.T
        _assert_same_mask(
            static.mask_indices_for_batch(subjects, relations, 0, targets),
            static_oracle.mask_indices_for_batch(subjects, relations, 0,
                                                 targets))


def _stream(rng, num_times, per_time):
    rows = rng.integers(0, 40, size=(num_times * per_time, 4))
    rows[:, 1] %= NUM_RELATIONS
    rows[:, 3] = np.repeat(np.arange(num_times), per_time)
    return rows


def test_a_build_sorts_only_the_queried_blocks(monkeypatch):
    sorted_rows = []
    real = filtering._sorted_rows

    def counting(columns):
        sorted_rows.append(len(columns[0]))
        return real(columns)

    monkeypatch.setattr(filtering, "_sorted_rows", counting)
    rng = np.random.default_rng(0)
    rows = _stream(rng, num_times=200, per_time=50)       # 10,000 facts
    quads = QuadrupleSet(rows)
    per_time = np.bincount(quads.array[:, 3])
    filt = TimeAwareFilter([quads, QuadrupleSet(rows[:0])], NUM_RELATIONS)
    assert sorted_rows == []                  # construction sorts nothing
    targets = quads.array[quads.array[:, 3] == 17]
    filt.mask_indices_for_batch(targets[:, 0], targets[:, 1], 17,
                                targets[:, 2])
    filt.true_objects(0, 0, 17)
    filt.true_objects(0, 0, 999)              # unseen: nothing to sort
    # One block, its facts and their inverses.
    assert sorted_rows == [2 * per_time[17]]
    # A streamed snapshot is filed, not sorted; the next query at its
    # time sorts that snapshot's rows alone.
    snapshot = _stream(rng, num_times=1, per_time=30)
    snapshot[:, 3] = 200
    filt.add_facts(snapshot)
    assert sorted_rows == [2 * per_time[17]]
    filt.true_objects(1, 0, 200)
    assert sorted_rows == [2 * per_time[17], 2 * 30]
    # An add at a stored time re-derives that time's block only.
    filt.add_facts(snapshot[:3] * [1, 1, 1, 0] + [0, 0, 0, 17])
    filt.true_objects(0, 0, 17)
    filt.true_objects(1, 0, 200)              # still memoized
    assert sorted_rows[2:] == [2 * (per_time[17] + 3)]


def test_store_columns_are_kept_as_views():
    rng = np.random.default_rng(1)
    arr = QuadrupleSet(_stream(rng, num_times=20, per_time=10)).array
    columns = tuple(np.ascontiguousarray(col) for col in arr.T)
    filt = TimeAwareFilter([columns])
    (source,) = filt._blocks._sources
    for kept, given_col in zip((source.s, source.r, source.o), columns):
        assert kept is given_col
    oracle = ReferenceTimeAwareFilter([QuadrupleSet(arr)])
    for s, r, _, t in arr.tolist():
        assert filt.true_objects(s, r, t) == oracle.true_objects(s, r, t)


def test_added_rows_are_copied():
    filt = TimeAwareFilter([])
    rows = _rows([(0, 0, 1, 5), (0, 0, 2, 5)])
    filt.add_facts(rows)
    rows[:, 2] = 9                            # the caller reuses its buffer
    assert filt.true_objects(0, 0, 5) == {1, 2}


def test_unsorted_columns_are_refused():
    columns = tuple(np.array(col) for col in ([0, 1], [0, 0], [1, 2],
                                              [5, 3]))
    with pytest.raises(ValueError, match="sorted by time"):
        TimeAwareFilter([columns])
    StaticFilter([columns])                   # the static filter ignores t


class TestIdsRaiseAtAddTime:
    def test_add_facts(self):
        filt = TimeAwareFilter([])
        for bad in ((2 ** 31, 0, 1, 0), (0, -2 ** 31 - 1, 1, 0)):
            with pytest.raises(ValueError, match="fit int32"):
                filt.add_facts(_rows([bad]))
        # Nothing was filed: the filter still answers as empty.
        assert filt.true_objects(0, 0, 0) == frozenset()
        assert not filt._blocks._added

    def test_construction_from_columns(self):
        columns = tuple(np.array([v], dtype=np.int64)
                        for v in (0, 2 ** 31, 1, 0))
        with pytest.raises(ValueError, match="fit int32"):
            TimeAwareFilter([columns])
        with pytest.raises(ValueError, match="fit int32"):
            StaticFilter([columns])

    def test_objects_become_subjects_with_inverses(self):
        rows = _rows([(0, 0, 2 ** 31, 0)])
        TimeAwareFilter([]).add_facts(rows)           # objects are free
        with pytest.raises(ValueError, match="fit int32"):
            TimeAwareFilter([], NUM_RELATIONS).add_facts(rows)

    def test_inverse_relation_ids(self):
        quads = QuadrupleSet(_rows([(0, 2 ** 31 - 2, 1, 0)]))
        with pytest.raises(ValueError, match="inverse relation ids"):
            TimeAwareFilter([quads], NUM_RELATIONS)
