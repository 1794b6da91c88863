"""Tests for QuadrupleSet storage and operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tkg import QuadrupleSet


def make_set():
    return QuadrupleSet.from_quads([
        (0, 0, 1, 0),
        (1, 1, 2, 0),
        (0, 0, 1, 1),
        (2, 1, 0, 2),
        (2, 1, 0, 2),  # duplicate
    ])


class TestBasics:
    def test_len_and_iter(self):
        qs = make_set()
        assert len(qs) == 5
        quads = list(qs)
        assert all(len(q) == 4 for q in quads)

    def test_sorted_by_time(self):
        qs = make_set()
        assert np.all(np.diff(qs.times) >= 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            QuadrupleSet(np.zeros((3, 3), dtype=np.int64))

    def test_empty(self):
        qs = QuadrupleSet.empty()
        assert len(qs) == 0
        assert qs.max_ids() == (-1, -1, -1)

    def test_immutable(self):
        qs = make_set()
        with pytest.raises(ValueError):
            qs.array[0, 0] = 99

    def test_equality(self):
        assert make_set() == make_set()
        assert make_set() != QuadrupleSet.empty()


class TestQueries:
    def test_at_time(self):
        qs = make_set()
        assert len(qs.at_time(0)) == 2
        assert len(qs.at_time(5)) == 0

    def test_before(self):
        qs = make_set()
        assert len(qs.before(2)) == 3

    def test_between(self):
        qs = make_set()
        assert len(qs.between(1, 3)) == 3

    def test_timestamps(self):
        np.testing.assert_array_equal(make_set().timestamps(), [0, 1, 2])

    def test_group_by_time_covers_everything(self):
        qs = make_set()
        groups = qs.group_by_time()
        assert sorted(groups) == [0, 1, 2]
        assert sum(len(g) for g in groups.values()) == len(qs)

    def test_unique_drops_duplicates(self):
        assert len(make_set().unique()) == 4

    def test_max_ids(self):
        assert make_set().max_ids() == (2, 1, 2)


class TestInverses:
    def test_with_inverses_doubles(self):
        qs = make_set()
        aug = qs.with_inverses(num_relations=2)
        assert len(aug) == 2 * len(qs)

    def test_inverse_ids_offset(self):
        qs = QuadrupleSet.from_quads([(3, 1, 7, 5)])
        aug = qs.with_inverses(num_relations=4)
        rows = {tuple(r) for r in aug.array.tolist()}
        assert (3, 1, 7, 5) in rows
        assert (7, 5, 3, 5) in rows  # relation 1 + 4 = 5, swapped entities

    def test_empty_with_inverses(self):
        assert len(QuadrupleSet.empty().with_inverses(3)) == 0


@st.composite
def quad_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    arr = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 4),
                  st.integers(0, 9), st.integers(0, 6)),
        min_size=n, max_size=n))
    return np.asarray(arr, dtype=np.int64)


class TestProperties:
    @given(quad_arrays())
    @settings(max_examples=50, deadline=None)
    def test_inverse_of_inverse_is_identity(self, arr):
        qs = QuadrupleSet(arr)
        aug = qs.with_inverses(5)
        # applying the inverse map twice to the inverse half recovers originals
        inverse_half = aug.array[aug.array[:, 1] >= 5]
        recovered = inverse_half[:, [2, 1, 0, 3]].copy()
        recovered[:, 1] -= 5
        assert QuadrupleSet(recovered) == qs

    @given(quad_arrays(), st.integers(0, 6))
    @settings(max_examples=50, deadline=None)
    def test_partition_by_time_is_lossless(self, arr, t):
        qs = QuadrupleSet(arr)
        before = qs.before(t)
        at = qs.at_time(t)
        after = QuadrupleSet(qs.array[qs.times > t])
        assert len(before) + len(at) + len(after) == len(qs)

    @given(quad_arrays())
    @settings(max_examples=50, deadline=None)
    def test_group_by_time_matches_at_time(self, arr):
        qs = QuadrupleSet(arr)
        for t, chunk in qs.group_by_time().items():
            assert QuadrupleSet(chunk) == qs.at_time(t)


class TestConcat:
    """``concat`` equals a plain sort of both inputs, fast path or not."""

    @staticmethod
    def _plain_sort(a, b):
        arr = np.concatenate([a.array, b.array]).astype(np.int64)
        order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0], arr[:, 3]))
        return arr[order].astype(a.array.dtype)

    @pytest.mark.parametrize("left,right", [
        ([(3, 0, 1, 0), (0, 1, 2, 1)], [(5, 0, 0, 2), (1, 1, 1, 3)]),
        ([(0, 0, 1, 0), (2, 1, 0, 2)], [(2, 1, 0, 2), (0, 0, 0, 3)]),
        ([(0, 0, 1, 0), (2, 1, 0, 2)], [(1, 1, 1, 1), (0, 0, 0, 3)]),
        ([(2, 1, 0, 2)], [(1, 1, 1, 2)]),
        ([], [(1, 1, 1, 2)]),
        ([(1, 1, 1, 2)], []),
        ([], []),
    ], ids=["disjoint", "boundary-tie", "interleaved", "same-time-earlier",
            "empty-left", "empty-right", "both-empty"])
    def test_bitwise_equal_to_plain_sort(self, left, right):
        a, b = QuadrupleSet.from_quads(left), QuadrupleSet.from_quads(right)
        merged = a.concat(b)
        expected = self._plain_sort(a, b)
        assert merged.array.dtype == expected.dtype
        assert merged.array.tobytes() == expected.tobytes()
        assert not merged.array.flags.writeable

    @given(quad_arrays(), quad_arrays())
    @settings(max_examples=50, deadline=None)
    def test_property_matches_plain_sort(self, left, right):
        a, b = QuadrupleSet(left), QuadrupleSet(right)
        assert a.concat(b).array.tobytes() == \
            self._plain_sort(a, b).tobytes()
        later = QuadrupleSet(np.concatenate(
            [right[:, :3], right[:, 3:] + 7], axis=1))
        assert a.concat(later).array.tobytes() == \
            self._plain_sort(a, later).tobytes()


class TestIOProperties:
    @given(quad_arrays())
    @settings(max_examples=25, deadline=None)
    def test_file_roundtrip_property(self, arr):
        import tempfile, os
        from repro.tkg import load_quadruple_file, save_quadruple_file
        qs = QuadrupleSet(arr)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "facts.txt")
            save_quadruple_file(qs, path)
            assert load_quadruple_file(path) == qs

    @given(quad_arrays(), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_group_by_time_window_union(self, arr, window):
        """Union of per-time groups within a window equals between()."""
        qs = QuadrupleSet(arr)
        t_max = int(qs.times.max())
        start = max(0, t_max - window)
        windowed = qs.between(start, t_max + 1)
        groups = qs.group_by_time()
        manual = sum(len(groups[t]) for t in groups
                     if start <= t <= t_max)
        assert len(windowed) == manual
