"""The columnar filters against the dict-of-frozensets oracle.

Random fact sets, incremental adds and query batches: every
``mask_indices_for_batch`` result must equal the oracle's bitwise
(dtype, shape, row order, column order) and every ``true_objects`` set
must match.  Small id ranges make duplicates, shared ``(s, r)`` pairs and
adds at existing timestamps common; the extreme-id strategy pushes the
packed sort key past 63 bits, so the ``np.lexsort`` fallback runs too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tkg import QuadrupleSet, StaticFilter, TimeAwareFilter

from .reference_filter import ReferenceStaticFilter, ReferenceTimeAwareFilter

ID_MIN, ID_MAX = -2 ** 31, 2 ** 31 - 1

small_ids = st.integers(0, 4)
small_times = st.integers(0, 5)
extreme_ids = st.sampled_from([ID_MIN, -1, 0, 1, ID_MAX])
extreme_times = st.sampled_from([ID_MIN, 0, 3, ID_MAX])
# Query ids include values no fact uses, and ids past int32 that would
# alias a real pair if the pair key were allowed to wrap.
query_ids = st.one_of(st.integers(-1, 5),
                      st.sampled_from([ID_MIN, ID_MAX, 2 ** 32, -2 ** 32]))
query_times = st.one_of(st.integers(-1, 6), extreme_times)


def _facts(ids, times):
    return st.lists(st.tuples(ids, ids, ids, times), max_size=12)


def _scenario(ids, times):
    return st.tuples(
        st.lists(_facts(ids, times), max_size=3),            # initial sets
        st.lists(st.one_of(
            st.tuples(st.just("add"), _facts(ids, times)),
            st.tuples(st.just("mask"), query_times,
                      st.lists(st.tuples(query_ids, query_ids, query_ids),
                               max_size=8)),
        ), max_size=8))


def _rows(quads):
    return np.array(quads, dtype=np.int64).reshape(-1, 4)


def _assert_same_mask(got, want):
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype
        assert got_arr.shape == want_arr.shape
        np.testing.assert_array_equal(got_arr, want_arr)


def _runs_filter(sets):
    """``from_time_runs`` over the sets' rows in one time-sorted source,
    with its time column dropped after deriving the runs."""
    rows = np.concatenate([qs.array for qs in sets] + [_rows([])])
    rows = rows[np.argsort(rows[:, 3], kind="stable")]
    times, starts = np.unique(rows[:, 3], return_index=True)
    offsets = np.append(starts, len(rows))
    return TimeAwareFilter.from_time_runs(rows[:, 0], rows[:, 1],
                                          rows[:, 2], times, offsets)


def _check(initial, operations):
    sets = [QuadrupleSet(_rows(quads)) for quads in initial]
    filters = [TimeAwareFilter(sets), _runs_filter(sets)]
    oracle = ReferenceTimeAwareFilter(sets)
    seen = [quad for quads in initial for quad in quads]
    for op in operations:
        if op[0] == "add":
            # Alternate the two accepted input types.
            facts = _rows(op[1])
            if len(seen) % 2:
                facts = QuadrupleSet(facts)
            for filt in filters:
                filt.add_facts(facts)
            oracle.add_facts(facts)
            seen.extend(op[1])
            continue
        _, time, queries = op
        subjects, relations, targets = (
            np.array([q[i] for q in queries], dtype=np.int64)
            for i in range(3))
        for filt in filters:
            for _ in range(2):                 # the second call is memoized
                _assert_same_mask(
                    filt.mask_indices_for_batch(subjects, relations, time,
                                                targets),
                    oracle.mask_indices_for_batch(subjects, relations,
                                                  time, targets))
            for s, r in zip(subjects.tolist(), relations.tolist()):
                assert filt.true_objects(s, r, time) \
                    == oracle.true_objects(s, r, time)
    for s, r, _, t in seen:
        for filt in filters:
            assert filt.true_objects(s, r, t) \
                == oracle.true_objects(s, r, t)
    if seen:
        everything = [QuadrupleSet(_rows(seen))]
        static_filter = StaticFilter(everything)
        static_oracle = ReferenceStaticFilter(everything)
        subjects, relations, _, targets = _rows(seen).T
        _assert_same_mask(
            static_filter.mask_indices_for_batch(subjects, relations, 0,
                                                 targets),
            static_oracle.mask_indices_for_batch(subjects, relations, 0,
                                                 targets))
        for s, r, _, _ in seen:
            assert static_filter.true_objects(s, r) \
                == static_oracle.true_objects(s, r)


@settings(max_examples=200, deadline=None)
@given(_scenario(small_ids, small_times))
def test_matches_oracle_small_ids(scenario):
    _check(*scenario)


@settings(max_examples=100, deadline=None)
@given(_scenario(extreme_ids, extreme_times))
def test_matches_oracle_extreme_ids(scenario):
    _check(*scenario)


def test_add_at_existing_and_new_times():
    filt = TimeAwareFilter([QuadrupleSet(_rows([(0, 0, 3, 1), (0, 0, 1, 1),
                                                (2, 1, 0, 4)]))])
    filt.add_facts(_rows([(0, 0, 2, 1), (0, 0, 3, 1), (0, 0, 0, 9),
                          (0, 0, 5, 0)]))
    assert filt.true_objects(0, 0, 1) == {1, 2, 3}
    assert filt.true_objects(0, 0, 9) == {0}
    assert filt.true_objects(0, 0, 0) == {5}
    rows, cols = filt.mask_indices_for_batch([0, 2, 0], [0, 1, 0], 1,
                                             [2, 0, 7])
    np.testing.assert_array_equal(rows, [0, 0, 2, 2, 2])
    np.testing.assert_array_equal(cols, [1, 3, 1, 2, 3])


def test_empty_filter_and_empty_batch():
    filt = TimeAwareFilter([])
    rows, cols = filt.mask_indices_for_batch([], [], 0, [])
    assert rows.dtype == cols.dtype == np.int64 and not len(rows)
    assert filt.true_objects(0, 0, 0) == frozenset()
    filt.add_facts(np.empty((0, 4), dtype=np.int64))
    rows, cols = filt.mask_indices_for_batch([0], [0], 0, [1])
    assert not len(rows) and not len(cols)


def test_ids_past_int32_rejected():
    with pytest.raises(ValueError, match="fit int32"):
        TimeAwareFilter([]).add_facts(_rows([(2 ** 31, 0, 1, 0)]))


def test_growth_past_capacity_matches_oracle():
    # A serving-style stream of snapshots appended past the last time,
    # then adds at a stored middle time and at the last time; enough
    # rows that the column buffer regrows several times.
    rng = np.random.default_rng(0)

    def snapshot(time, size):
        rows = rng.integers(0, 12, size=(size, 4))
        rows[:, 3] = time
        return rows

    batches = [snapshot(0, 300)]
    filt = TimeAwareFilter([QuadrupleSet(batches[0])])
    oracle = ReferenceTimeAwareFilter([QuadrupleSet(batches[0])])
    batches += [snapshot(t, 200) for t in range(1, 30)]
    batches += [snapshot(7, 150), snapshot(29, 150)]
    for rows in batches[1:]:
        filt.add_facts(rows)
        oracle.add_facts(rows)
    subjects, relations, targets = rng.integers(0, 12, size=(3, 64))
    for time in range(-1, 31):
        _assert_same_mask(
            filt.mask_indices_for_batch(subjects, relations, time, targets),
            oracle.mask_indices_for_batch(subjects, relations, time,
                                          targets))
    for s, r, _, t in np.concatenate(batches).tolist():
        assert filt.true_objects(s, r, t) == oracle.true_objects(s, r, t)


def test_adds_at_a_stored_time_rebuild_only_that_block():
    filt = TimeAwareFilter([QuadrupleSet(_rows([(0, 0, o, t)
                                                for o in range(4)
                                                for t in range(3)]))])
    for t in range(3):
        assert filt.true_objects(0, 0, t) == frozenset(range(4))
    blocks = {t: filt._blocks.block(t) for t in range(3)}
    for o in range(12):
        filt.add_facts(_rows([(1, 0, o, 1)]))
    assert filt.true_objects(1, 0, 1) == frozenset(range(12))
    assert filt.true_objects(0, 0, 1) == frozenset(range(4))
    # The other timestamps' memoized blocks are kept as they were.
    for t in (0, 2):
        assert filt._blocks.block(t) is blocks[t]
    assert filt._blocks.block(1) is not blocks[1]


def test_time_runs_must_fit_the_rows():
    s = r = o = np.zeros(3, dtype=np.int32)
    for times, offsets in (([0, 1], [0, 2]),          # one offset short
                           ([0, 1], [0, 2, 4]),       # past the rows
                           ([0, 1], [1, 2, 3]),       # not from 0
                           ([0, 1, 2], [0, 2, 1, 3]),  # decreasing
                           ([1, 1], [0, 2, 3])):      # repeated time
        with pytest.raises(ValueError):
            TimeAwareFilter.from_time_runs(s, r, o, np.array(times),
                                           np.array(offsets))
    filt = TimeAwareFilter.from_time_runs(s, r, o, np.array([2, 5]),
                                          np.array([0, 3, 3]))
    assert filt.true_objects(0, 0, 2) == {0}
    assert filt.true_objects(0, 0, 5) == frozenset()
