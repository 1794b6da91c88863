"""Store-file format: layout, validation, zero-copy open, parity."""

import numpy as np
import pytest

from repro.data import (map_columns, open_store, read_info, write_store,
                        write_store_facts)
from repro.data.storefile import (ALIGNMENT, HEADER_BYTES, MAGIC,
                                   _HEADER_STRUCT, _layout)
from repro.datasets import tiny
from repro.history import HistoryStore
from repro.tkg.quadruples import FACT_DTYPE, QuadrupleSet


@pytest.fixture(scope="module")
def dataset():
    return tiny()


@pytest.fixture()
def store_path(dataset, tmp_path):
    path = str(tmp_path / "tiny.hst")
    write_store(path, dataset)
    return path


class TestFormat:
    def test_header_info(self, dataset, store_path):
        info = read_info(store_path)
        augmented = dataset.all_facts().with_inverses(dataset.num_relations)
        assert info.num_facts == len(augmented)
        assert info.num_snapshots == len(set(augmented.times.tolist()))
        assert info.num_entities == dataset.num_entities
        assert info.num_relations == dataset.num_relations
        assert info.bytes_per_fact > 16  # four int32 columns + overhead
        assert str(info.num_facts) in info.describe()

    def test_sections_are_aligned_and_typed(self, store_path):
        info, arrays = map_columns(store_path)
        assert sorted(arrays) == ["o", "offsets", "r", "run_offsets",
                                  "run_triples", "s", "snap_times", "t",
                                  "triple_o", "triple_r", "triple_row",
                                  "triple_s"]
        for name in ("s", "r", "o", "t"):
            assert arrays[name].dtype == FACT_DTYPE
            assert len(arrays[name]) == info.num_facts
        for name in ("triple_s", "triple_r", "triple_o", "triple_row"):
            assert arrays[name].dtype == FACT_DTYPE
            assert len(arrays[name]) == info.num_triples
        assert arrays["run_triples"].dtype == FACT_DTYPE
        assert len(arrays["run_triples"]) == 2 * info.num_triples
        assert arrays["run_offsets"].dtype == np.int64
        assert len(arrays["run_offsets"]) == 2 * info.index_entities + 1
        assert arrays["offsets"].dtype == np.int64
        assert arrays["snap_times"].dtype == np.int32
        assert int(arrays["offsets"][0]) == 0
        assert int(arrays["offsets"][-1]) == info.num_facts
        for view in arrays.values():  # mapped views must be dtype-aligned
            base_offset = view.__array_interface__["data"][0]
            assert base_offset % view.dtype.itemsize == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.hst"
        path.write_bytes(b"NOTASTORE" + b"\x00" * 100)
        with pytest.raises(ValueError, match="bad magic"):
            read_info(str(path))

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.hst"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError, match="too small"):
            read_info(str(path))

    def test_truncated_file_rejected(self, store_path):
        data = open(store_path, "rb").read()
        with open(store_path, "wb") as handle:
            handle.write(data[:HEADER_BYTES + 100])
        with pytest.raises(ValueError, match="truncated"):
            read_info(store_path)

    def test_unsupported_version_rejected(self, store_path):
        with open(store_path, "r+b") as handle:
            handle.seek(len(MAGIC))
            handle.write((99).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="version 99"):
            read_info(store_path)

    def test_version_1_rejected_with_the_upgrade_path(self, store_path):
        with open(store_path, "r+b") as handle:
            handle.seek(len(MAGIC))
            handle.write((1).to_bytes(4, "little"))
        with pytest.raises(ValueError) as error:
            open_store(store_path)
        message = str(error.value)
        for words in (store_path, "version 1", "version 2", "write_store",
                      "data export", "--store"):
            assert words in message

    def test_write_is_deterministic(self, dataset, tmp_path):
        a, b = str(tmp_path / "a.hst"), str(tmp_path / "b.hst")
        write_store(a, dataset)
        write_store(b, dataset)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_facts_round_trip(self, tmp_path):
        path = str(tmp_path / "empty.hst")
        info = write_store_facts(path, QuadrupleSet.empty(), 5, 3)
        assert info.num_facts == 0 and info.num_snapshots == 0
        store = open_store(path)
        assert store.num_snapshots == 0
        assert store.last_time is None

    def test_alignment_constant_sane(self):
        assert ALIGNMENT % 8 == 0 and HEADER_BYTES == 64


class TestOpenStoreParity:
    def test_snapshots_and_windows_match_in_memory(self, dataset, store_path):
        memory = HistoryStore.from_dataset(dataset)
        mapped = open_store(store_path)
        assert mapped.num_relations == memory.num_relations
        assert mapped.snapshot_times() == memory.snapshot_times()
        for t in mapped.snapshot_times():
            for window in (1, 3, 10):
                mem_win = memory.window_before(t + 1, window)
                map_win = mapped.window_before(t + 1, window)
                assert len(mem_win) == len(map_win)
                for a, b in zip(mem_win, map_win):
                    assert a.time == b.time
                    assert np.array_equal(a.src, b.src)
                    assert np.array_equal(a.rel, b.rel)
                    assert np.array_equal(a.dst, b.dst)

    def test_subgraphs_match_in_memory(self, dataset, store_path):
        memory = HistoryStore.from_dataset(dataset)
        mapped = open_store(store_path)
        for t, arr in sorted(dataset.test.group_by_time().items()):
            mem_sub = memory.subgraph(t, arr[:, 0], arr[:, 1])
            map_sub = mapped.subgraph(t, arr[:, 0], arr[:, 1])
            for a, b in zip(mem_sub, map_sub):
                assert np.array_equal(a, b)

    def test_mapped_columns_are_zero_copy_views(self, store_path):
        mapped = open_store(store_path)
        some_time = mapped.snapshot_times()[0]
        snapshot = mapped.window_before(some_time + 1, 1)[0]
        assert isinstance(snapshot.src.base, np.memmap) or isinstance(
            getattr(snapshot.src.base, "base", None), np.memmap)

    def test_backing_path_recorded(self, store_path):
        import os
        mapped = open_store(store_path)
        assert mapped.backing_path == os.path.abspath(store_path)
        assert HistoryStore.from_dataset(tiny()).backing_path is None

    def test_extend_after_open(self, dataset, store_path):
        mapped = open_store(store_path, record_raw=True)
        last = mapped.last_time
        new = np.array([[0, 1, 2], [3, 4, 5]])
        mapped.extend(new, last + 3)
        assert mapped.last_time == last + 3
        window = mapped.window_before(last + 4, 1)
        assert window[0].time == last + 3
        assert window[0].num_edges == 4  # inverse-augmented
        assert len(mapped.raw_facts()) == 2  # delta only, mapped part excluded

    def test_extend_before_mapped_horizon_rejected(self, store_path):
        mapped = open_store(store_path)
        with pytest.raises(ValueError, match="time order"):
            mapped.extend(np.array([[0, 1, 2]]), 0)


class TestStoreWatermark:
    """Header-level watermark + append-safe reopen (replica handshake)."""

    def test_matches_header_and_store(self, dataset, store_path):
        from repro.data import store_watermark
        snapshots, facts = store_watermark(store_path)
        info = read_info(store_path)
        assert (snapshots, facts) == (info.num_snapshots, info.num_facts)
        store = open_store(store_path)
        assert store.base_watermark == snapshots
        assert store.watermark == snapshots

    def test_append_safe_reopen(self, store_path):
        """Trailing bytes past the recorded layout never break a reader.

        A writer appending to a live store file grows the byte range
        first and publishes a new header last; a reader that opens
        mid-append must see the *recorded* watermark, not an error and
        not a torn snapshot.
        """
        from repro.data import store_watermark
        before = store_watermark(store_path)
        with open(store_path, "ab") as handle:
            handle.write(b"\x00" * 1024)   # unpublished in-flight append
        assert store_watermark(store_path) == before
        store = open_store(store_path)
        assert store.watermark == before[0]
        info = read_info(store_path)
        assert info.num_snapshots == before[0]

    def test_truncated_file_still_rejected(self, store_path):
        info = read_info(store_path)
        with open(store_path, "r+b") as handle:
            handle.truncate(info.file_bytes - 8)
        with pytest.raises(ValueError, match="truncated"):
            read_info(store_path)


def _header_counts(path):
    with open(path, "rb") as handle:
        return list(_HEADER_STRUCT.unpack(handle.read(HEADER_BYTES)))


def _set_count(path, field, value):
    """Overwrite one header count (field 3 is the first count)."""
    header = _header_counts(path)
    header[field] = value
    with open(path, "r+b") as handle:
        handle.write(_HEADER_STRUCT.pack(*header))


def _set_section(path, section, position, value):
    """Overwrite one element of one section of a store file."""
    info = read_info(path)
    sections, _total = _layout(info.num_facts, info.num_snapshots,
                               info.num_triples, info.index_entities)
    for name, dtype, offset, count in sections:
        if name == section:
            assert 0 <= position % count < count
            with open(path, "r+b") as handle:
                handle.seek(offset + (position % count) * dtype.itemsize)
                handle.write(np.array([value], dtype=dtype).tobytes())
            return
    raise KeyError(section)


class TestCorruptFiles:
    """A corrupt header or section fails at open, naming the path and
    the field; the checks are O(snapshots + entities), never O(rows)."""

    @pytest.mark.parametrize("field,name,value", [
        (3, "num_facts", -5), (4, "num_snapshots", -1),
        (5, "num_entities", -3), (6, "num_relations", -2),
        (7, "num_triples", -4), (8, "index_entities", -6)])
    def test_negative_counts_rejected(self, store_path, field, name, value):
        _set_count(store_path, field, value)
        for reader in (read_info, open_store):
            with pytest.raises(ValueError, match=f"{name} is {value}") \
                    as error:
                reader(store_path)
            assert store_path in str(error.value)

    def test_more_triples_than_facts_rejected(self, store_path):
        info = read_info(store_path)
        _set_count(store_path, 7, info.num_facts + 1)
        with pytest.raises(ValueError, match="num_triples"):
            read_info(store_path)

    @pytest.mark.parametrize("section,position,value,words", [
        ("offsets", 0, 1, "offsets start at 1"),
        ("offsets", -1, 7, "offsets end at 7"),
        ("offsets", 1, 10 ** 6, "offsets decrease"),
        ("snap_times", 1, -100, "snap_times are not strictly increasing"),
        ("run_offsets", 0, 3, "run_offsets start at 3"),
        ("run_offsets", -1, 5, "run_offsets end at 5"),
        ("run_offsets", 1, 10 ** 6, "run_offsets decrease")])
    def test_broken_section_invariants_rejected(self, store_path, section,
                                                position, value, words):
        _set_section(store_path, section, position, value)
        with pytest.raises(ValueError, match=words) as error:
            open_store(store_path)
        assert store_path in str(error.value)

    def test_equal_snapshot_times_rejected(self, store_path):
        times = map_columns(store_path)[1]["snap_times"]
        _set_section(store_path, "snap_times", 1, int(times[0]))
        with pytest.raises(ValueError, match="snap_times"):
            open_store(store_path)
