"""Tests for TKGDataset, snapshots, splits, filters, vocab and IO."""

import numpy as np
import pytest

from repro.tkg import (QuadrupleSet, Snapshot, StaticFilter, TKGDataset,
                       TimeAwareFilter, Vocabulary, chronological_split,
                       load_benchmark_directory, load_quadruple_file,
                       save_benchmark_directory, save_quadruple_file)

from tests.tkg.reference_filter import (ReferenceStaticFilter,
                                        ReferenceTimeAwareFilter)


def tiny_dataset():
    train = QuadrupleSet.from_quads([
        (0, 0, 1, 0), (1, 0, 2, 0), (0, 1, 2, 1), (2, 0, 0, 1),
        (0, 0, 1, 2), (1, 1, 0, 2),
    ])
    valid = QuadrupleSet.from_quads([(0, 0, 1, 3), (2, 1, 1, 3)])
    test = QuadrupleSet.from_quads([(0, 0, 1, 4), (1, 0, 2, 4)])
    return TKGDataset("tiny", train, valid, test,
                      num_entities=3, num_relations=2)


class TestDataset:
    def test_validation_rejects_out_of_range_entity(self):
        train = QuadrupleSet.from_quads([(5, 0, 1, 0)])
        with pytest.raises(ValueError, match="entity"):
            TKGDataset("bad", train, QuadrupleSet.empty(),
                       QuadrupleSet.empty(), num_entities=3, num_relations=2)

    def test_validation_rejects_overlapping_splits(self):
        quads = QuadrupleSet.from_quads([(0, 0, 1, 5)])
        with pytest.raises(ValueError, match="chronologically"):
            TKGDataset("bad", quads, quads, quads,
                       num_entities=3, num_relations=2)

    def test_num_relations_with_inverses(self):
        assert tiny_dataset().num_relations_with_inverses == 4

    def test_num_timestamps(self):
        assert tiny_dataset().num_timestamps == 5

    def test_snapshots_time_ordered(self):
        snaps = tiny_dataset().snapshots("train")
        assert [s.time for s in snaps] == [0, 1, 2]

    def test_snapshots_with_inverses_double_edges(self):
        ds = tiny_dataset()
        plain = ds.snapshots("train", with_inverses=False)
        aug = ds.snapshots("train", with_inverses=True)
        assert sum(s.num_edges for s in aug) == 2 * sum(s.num_edges for s in plain)

    def test_snapshot_active_entities(self):
        snap = Snapshot(time=0, src=np.array([0, 1]), rel=np.array([0, 0]),
                        dst=np.array([1, 2]))
        np.testing.assert_array_equal(snap.active_entities(), [0, 1, 2])


class TestChronologicalSplit:
    def test_ratios_roughly_respected(self):
        rng = np.random.default_rng(0)
        arr = np.stack([rng.integers(0, 10, 1000), rng.integers(0, 5, 1000),
                        rng.integers(0, 10, 1000), rng.integers(0, 50, 1000)], axis=1)
        quads = QuadrupleSet(arr)
        train, valid, test = chronological_split(quads)
        total = len(quads)
        assert 0.7 < len(train) / total < 0.9
        assert len(valid) > 0 and len(test) > 0

    def test_splits_disjoint_in_time(self):
        rng = np.random.default_rng(1)
        arr = np.stack([rng.integers(0, 10, 500), rng.integers(0, 5, 500),
                        rng.integers(0, 10, 500), rng.integers(0, 30, 500)], axis=1)
        train, valid, test = chronological_split(QuadrupleSet(arr))
        assert train.times.max() < valid.times.min()
        assert valid.times.max() < test.times.min()

    def test_bad_ratios_rejected(self):
        quads = QuadrupleSet.from_quads([(0, 0, 1, t) for t in range(5)])
        with pytest.raises(ValueError):
            chronological_split(quads, ratios=(0.5, 0.5, 0.5))

    def test_too_few_timestamps_rejected(self):
        quads = QuadrupleSet.from_quads([(0, 0, 1, 0), (0, 0, 1, 1)])
        with pytest.raises(ValueError):
            chronological_split(quads)


class TestFilters:
    def test_time_aware_filter_same_time_only(self):
        facts = QuadrupleSet.from_quads([
            (0, 0, 1, 0), (0, 0, 2, 0), (0, 0, 3, 1)])
        filt = TimeAwareFilter([facts])
        assert filt.true_objects(0, 0, 0) == {1, 2}
        assert filt.true_objects(0, 0, 1) == {3}
        assert filt.true_objects(0, 0, 9) == frozenset()

    @staticmethod
    def _masked(filt, scores, s, r, t, target):
        rows, cols = filt.mask_indices_for_batch([s], [r], t, [target])
        out = scores.copy()
        out[cols] = -np.inf
        return out, len(rows)

    def test_time_aware_filter_scores_keeps_target(self):
        facts = QuadrupleSet.from_quads([(0, 0, 1, 0), (0, 0, 2, 0)])
        scores = np.array([0.1, 0.9, 0.8, 0.2])
        out, _ = self._masked(TimeAwareFilter([facts]), scores, 0, 0, 0, 1)
        assert out[1] == 0.9            # gold entity keeps its score
        assert out[2] == -np.inf        # competing truth removed
        assert out[0] == 0.1 and out[3] == 0.2
        np.testing.assert_array_equal(
            out, ReferenceTimeAwareFilter([facts]).filter_scores(
                scores, 0, 0, 0, target=1))

    def test_time_aware_filter_no_copy_when_nothing_filtered(self):
        """An empty mask: the ranking kernel then ranks the row as is."""
        facts = QuadrupleSet.from_quads([(0, 0, 1, 0)])
        scores = np.array([0.5, 0.5])
        out, struck = self._masked(TimeAwareFilter([facts]), scores,
                                   0, 0, 0, 1)
        assert struck == 0
        np.testing.assert_array_equal(out, scores)

    def test_static_filter_spans_time(self):
        facts = QuadrupleSet.from_quads([(0, 0, 1, 0), (0, 0, 2, 7)])
        filt = StaticFilter([facts])
        assert filt.true_objects(0, 0) == {1, 2}
        scores = np.array([0.0, 0.4, 0.6])
        out, _ = self._masked(filt, scores, 0, 0, 3, 1)
        assert out[2] == -np.inf
        np.testing.assert_array_equal(
            out, ReferenceStaticFilter([facts]).filter_scores(
                scores, 0, 0, target=1))


class TestVocabulary:
    def test_add_idempotent(self):
        vocab = Vocabulary()
        assert vocab.add("china") == 0
        assert vocab.add("china") == 0
        assert vocab.add("iran") == 1

    def test_roundtrip(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.id_of("b") == 1
        assert vocab.name_of(2) == "c"
        assert "a" in vocab and "z" not in vocab
        assert len(vocab) == 3


class TestIO:
    def test_quadruple_file_roundtrip(self, tmp_path):
        qs = QuadrupleSet.from_quads([(0, 1, 2, 3), (4, 0, 1, 2)])
        path = str(tmp_path / "facts.txt")
        save_quadruple_file(qs, path)
        assert load_quadruple_file(path) == qs

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_text("# comment\n\n0\t1\t2\t3\n")
        assert len(load_quadruple_file(str(path))) == 1

    def test_load_rejects_short_rows(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_text("0\t1\t2\n")
        with pytest.raises(ValueError):
            load_quadruple_file(str(path))

    def test_load_tolerates_fifth_column(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_text("0\t1\t2\t3\t0\n")
        qs = load_quadruple_file(str(path))
        assert list(qs) == [(0, 1, 2, 3)]

    def test_benchmark_directory_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        directory = str(tmp_path / "tiny")
        save_benchmark_directory(ds, directory)
        loaded = load_benchmark_directory(directory)
        assert loaded.num_entities == ds.num_entities
        assert loaded.num_relations == ds.num_relations
        assert loaded.train == ds.train
        assert loaded.test == ds.test

    def test_missing_split_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_benchmark_directory(str(tmp_path))
