"""Columnar, memory-mappable backing files for :class:`HistoryStore`.

An in-memory history store keeps the inverse-augmented fact buffer, the
snapshot sequence and the global index in process-private arrays —
every forked evaluation worker and every serving replica pays for its
own copy, and nothing survives the process.  A **store file** is the
same state flattened to disk in a layout that ``np.memmap`` can adopt
zero-copy (version 2):

* a 64-byte versioned header (magic, version, counts);
* the snapshot timestamps (int32) and per-snapshot row offsets (int64);
* four int32 struct-of-arrays fact columns ``s, r, o, t`` holding the
  inverse-augmented facts in the canonical ``QuadrupleSet`` order
  (time-major), so each snapshot is one contiguous column slice;
* the §III-D triple index of those facts
  (:class:`repro.core.subgraph.TripleIndex`): the distinct triples in
  lexicographic order with each one's first row (four int32 columns),
  and an entity → triple-id CSR (one int64 offset per ``(entity,
  side)`` run, int32 triple ids).

Every section is aligned to 64 bytes, which keeps the mapped column
views dtype-aligned and cache-line friendly.  A reader accepts only its
own version; an older file is rejected with a message naming both
versions, and rewriting it with :func:`write_store` (or ``python -m
repro data export ... --store``) upgrades it.

:func:`open_store` maps the file read-only and wires the column views
straight into a :class:`repro.history.HistoryStore`: snapshots are
slices, the :class:`repro.core.subgraph.GlobalHistoryIndex` adopts the
columns as its immutable base region and the triple index as its
subgraph index, and nothing is copied or sorted until a query touches
it.  Because the arrays are file-backed, N serving replicas opening
the same path share one physical copy of the fact buffer through the
OS page cache.  The mapped store answers ``window_before`` /
``subgraph`` / ``evaluate()`` bitwise-identically to the in-memory
construction (``tests/data/test_storefile.py``,
``tests/data/test_mmap_parity.py``) and still accepts streamed
:meth:`repro.history.HistoryStore.extend` appends, which land in the
index's in-memory tail region.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..history import HistoryStore
from ..core.subgraph import GlobalHistoryIndex, TripleIndex
from ..tkg.dataset import Snapshot, TKGDataset
from ..tkg.quadruples import FACT_DTYPE, QuadrupleSet

MAGIC = b"RPROHST\x01"
VERSION = 2
HEADER_BYTES = 64
ALIGNMENT = 64
_HEADER_STRUCT = struct.Struct("<8sII6q")  # magic, version, flags, 6 counts
# The six header counts, in order.
_COUNTS = ("num_facts", "num_snapshots", "num_entities", "num_relations",
           "num_triples", "index_entities")


@dataclass(frozen=True)
class StoreInfo:
    """Header metadata of a store file (readable without mapping the facts).

    ``num_facts`` counts the *inverse-augmented* rows actually stored;
    ``num_relations`` counts original relations (the stored relation ids
    span ``[0, 2 * num_relations)``).  ``num_triples`` counts the
    distinct ``(s, r, o)`` triples of the triple index, whose runs cover
    the entity ids ``[0, index_entities)``.
    """

    path: str
    version: int
    num_facts: int
    num_snapshots: int
    num_entities: int
    num_relations: int
    num_triples: int
    index_entities: int
    file_bytes: int

    @property
    def bytes_per_fact(self) -> float:
        """On-disk bytes per augmented fact row (header amortized in)."""
        return self.file_bytes / max(self.num_facts, 1)

    def describe(self) -> str:
        """One human-readable summary line (the CLI ``data inspect`` row)."""
        return (f"{self.path}: store v{self.version}, "
                f"{self.num_facts} augmented facts "
                f"({self.num_triples} distinct triples) in "
                f"{self.num_snapshots} snapshots, "
                f"{self.num_entities} entities / "
                f"{self.num_relations} relations, "
                f"{self.file_bytes} bytes "
                f"({self.bytes_per_fact:.1f} B/fact)")


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _layout(num_facts: int, num_snapshots: int, num_triples: int,
            index_entities: int):
    """(name, dtype, offset, count) for every section, plus total bytes."""
    sections = []
    offset = HEADER_BYTES
    for name, dtype, count in (
            ("snap_times", np.int32, num_snapshots),
            ("offsets", np.int64, num_snapshots + 1),
            ("s", FACT_DTYPE, num_facts),
            ("r", FACT_DTYPE, num_facts),
            ("o", FACT_DTYPE, num_facts),
            ("t", FACT_DTYPE, num_facts),
            ("triple_s", FACT_DTYPE, num_triples),
            ("triple_r", FACT_DTYPE, num_triples),
            ("triple_o", FACT_DTYPE, num_triples),
            ("triple_row", FACT_DTYPE, num_triples),
            ("run_offsets", np.int64, 2 * index_entities + 1),
            ("run_triples", FACT_DTYPE, 2 * num_triples)):
        offset = _aligned(offset)
        sections.append((name, np.dtype(dtype), offset, count))
        offset += np.dtype(dtype).itemsize * count
    return sections, offset


def write_store_facts(path: str, facts: QuadrupleSet, num_entities: int,
                      num_relations: int) -> StoreInfo:
    """Pack *original* facts into a store file at ``path``.

    The facts are inverse-augmented exactly as
    :meth:`repro.history.HistoryStore.from_dataset` would augment them,
    then written in canonical order so :func:`open_store` reproduces the
    in-memory store bitwise.  Their triple index is derived here, once
    (:meth:`repro.core.subgraph.TripleIndex.derive`, the same function
    an in-memory store runs on its first lookup).  The bytes are a pure
    function of the arguments.
    """
    augmented = facts.with_inverses(num_relations)
    arr = augmented.array
    times = arr[:, 3]
    if len(arr):
        boundaries = np.flatnonzero(np.diff(times)) + 1
        starts = np.concatenate([[0], boundaries])
        offsets = np.concatenate([starts, [len(arr)]]).astype(np.int64)
        snap_times = times[starts].astype(np.int32)
    else:
        offsets = np.zeros(1, dtype=np.int64)
        snap_times = np.empty(0, dtype=np.int32)

    triples = TripleIndex.derive(arr[:, 0], arr[:, 1], arr[:, 2])
    num_triples = len(triples.triple_s)
    sections, total = _layout(len(arr), len(snap_times), num_triples,
                              triples.num_entities)
    columns = {"snap_times": snap_times, "offsets": offsets,
               "s": arr[:, 0], "r": arr[:, 1], "o": arr[:, 2], "t": times,
               **triples._asdict()}
    header = _HEADER_STRUCT.pack(MAGIC, VERSION, 0, len(arr),
                                 len(snap_times), int(num_entities),
                                 int(num_relations), num_triples,
                                 triples.num_entities)
    assert len(header) == HEADER_BYTES
    with open(path, "wb") as handle:
        handle.write(header)
        for name, dtype, offset, count in sections:
            handle.seek(offset)
            handle.write(np.ascontiguousarray(columns[name],
                                              dtype=dtype).tobytes())
        handle.truncate(total)
    return read_info(path)


def write_store(path: str, dataset: TKGDataset,
                extra_facts: Optional[QuadrupleSet] = None) -> StoreInfo:
    """Pack a dataset's full history (union of all splits) into ``path``.

    Mirrors :meth:`repro.history.HistoryStore.from_dataset`: history is
    the union of train/valid/test (plus optional ``extra_facts``),
    deduplicated, inverse-augmented on write.
    """
    facts = dataset.all_facts()
    if extra_facts is not None and len(extra_facts):
        facts = facts.concat(extra_facts).unique()
    return write_store_facts(path, facts, dataset.num_entities,
                             dataset.num_relations)


def read_info(path: str) -> StoreInfo:
    """Parse and validate a store file's header (no fact data is read)."""
    file_bytes = os.path.getsize(path)
    if file_bytes < HEADER_BYTES:
        raise ValueError(f"{path}: too small to be a history store file")
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_BYTES)
    magic, version, _flags, *counts = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: not a history store file "
                         f"(bad magic {magic!r})")
    if version != VERSION:
        raise ValueError(
            f"{path}: unsupported store version {version}; this build reads "
            f"version {VERSION}.  Rewrite the file with "
            f"repro.data.write_store (or `python -m repro data export "
            f"DATASET OUT --store PATH`)")
    counts = dict(zip(_COUNTS, counts))
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{path}: corrupt header, {name} is {value}")
    if counts["num_triples"] > counts["num_facts"]:
        raise ValueError(f"{path}: corrupt header, num_triples "
                         f"{counts['num_triples']} exceeds num_facts "
                         f"{counts['num_facts']}")
    _sections, expected = _layout(counts["num_facts"],
                                  counts["num_snapshots"],
                                  counts["num_triples"],
                                  counts["index_entities"])
    if file_bytes < expected:
        raise ValueError(f"{path}: truncated store file "
                         f"({file_bytes} bytes, header implies {expected})")
    return StoreInfo(path=path, version=version, file_bytes=file_bytes,
                     **counts)


def store_watermark(path: str) -> Tuple[int, int]:
    """``(num_snapshots, num_facts)`` from a store file's header.

    The snapshot count is the store's base watermark — the version every
    replica that opens ``path`` starts from (see
    :attr:`repro.history.HistoryStore.watermark`).  Header-only: no fact
    data is touched, so the replica-set handshake stays O(1).

    **Append-safe reopen.**  :func:`read_info` (and therefore this
    helper and :func:`open_store`) validates ``file_bytes >= expected``
    rather than strict equality, so a file that gained trailing bytes
    after the header was written is still readable at its *recorded*
    watermark — a reader never sees a torn append, it simply stays at
    the header's snapshot count until a new header is published
    (``tests/data/test_storefile.py``).
    """
    info = read_info(path)
    return info.num_snapshots, info.num_facts


def map_columns(path: str) -> Tuple[StoreInfo, dict]:
    """Memory-map a store file's sections as read-only array views.

    Returns the header info plus ``{name: array}`` for every section.
    The arrays are plain ``ndarray`` views into one shared ``np.memmap``;
    they hold a reference to it, so the mapping lives as long as any
    view does.  Plain views keep every slice and gather downstream off
    the ``np.memmap`` subclass's Python-level ``__getitem__`` and
    ``__array_finalize__``.
    """
    info = read_info(path)
    mapped = np.memmap(path, dtype=np.uint8, mode="r").view(np.ndarray)
    sections, _total = _layout(info.num_facts, info.num_snapshots,
                               info.num_triples, info.index_entities)
    arrays = {}
    for name, dtype, offset, count in sections:
        nbytes = dtype.itemsize * count
        arrays[name] = mapped[offset:offset + nbytes].view(dtype)
    return info, arrays


def _check_sections(info: StoreInfo, arrays: dict) -> None:
    """The cheap invariants of the mapped sections: O(snapshots +
    entities), never O(rows).  Raises ``ValueError`` naming the path and
    the section."""
    def check(ok: bool, field: str, what: str) -> None:
        if not ok:
            raise ValueError(f"{info.path}: corrupt store file, {field} "
                             f"{what}")

    offsets, runs = arrays["offsets"], arrays["run_offsets"]
    check(offsets[0] == 0, "offsets", f"start at {offsets[0]}, not 0")
    check(offsets[-1] == info.num_facts, "offsets",
          f"end at {offsets[-1]}, not num_facts {info.num_facts}")
    check(bool(np.all(offsets[1:] >= offsets[:-1])), "offsets",
          "decrease")
    times = arrays["snap_times"]
    check(bool(np.all(times[1:] > times[:-1])), "snap_times",
          "are not strictly increasing")
    check(runs[0] == 0, "run_offsets", f"start at {runs[0]}, not 0")
    check(runs[-1] == 2 * info.num_triples, "run_offsets",
          f"end at {runs[-1]}, not twice num_triples {info.num_triples}")
    check(bool(np.all(runs[1:] >= runs[:-1])), "run_offsets", "decrease")


def open_store(path: str, record_raw: bool = False) -> HistoryStore:
    """Open a store file as a zero-copy :class:`HistoryStore`.

    Snapshots and the global index's base region are views into the
    mapped file, and the index adopts the file's triple index; nothing
    is materialized until queried.  The sections' cheap invariants are
    checked first (O(snapshots + entities)).  The returned
    store still accepts :meth:`repro.history.HistoryStore.extend` —
    appends land in an in-memory tail, leaving the file untouched.

    ``record_raw`` turns on raw-chunk recording for facts ingested
    *after* opening (the serving engine's replayable delta on top of the
    backing file); the mapped facts themselves are never duplicated.
    """
    info, arrays = map_columns(path)
    _check_sections(info, arrays)
    subjects, relations = arrays["s"], arrays["r"]
    objects, times = arrays["o"], arrays["t"]
    offsets = arrays["offsets"]
    snapshots = {}
    for i, snap_time in enumerate(arrays["snap_times"].tolist()):
        start, end = int(offsets[i]), int(offsets[i + 1])
        snapshots[snap_time] = Snapshot(
            time=snap_time, src=subjects[start:end],
            rel=relations[start:end], dst=objects[start:end])
    triples = TripleIndex(**{name: arrays[name]
                             for name in TripleIndex._fields})
    index = GlobalHistoryIndex.from_columns(subjects, relations, objects,
                                            times, triples=triples)
    store = HistoryStore(info.num_relations, index, snapshots,
                         streaming=record_raw)
    store.backing_path = os.path.abspath(path)
    return store
