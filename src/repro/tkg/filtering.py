"""Answer-filtering indices for ranking evaluation.

TKG extrapolation papers (and this one, §IV-B1) report the *time-aware
filtered* setting: when ranking candidate objects for query ``(s, r, ?, t)``
only the other true objects *at the same timestamp t* are removed from the
candidate list.  The legacy *static filtered* setting removes true objects
at any timestamp, which leaks future information; the *raw* setting removes
nothing.  All three are provided.

Storage model
-------------
Both filters keep the caller's facts as they come, in time order, and
sort one timestamp at a time, only when that timestamp is first asked
about (:class:`_FactBlocks`).  No python object exists per fact:

* **construction** is O(n) and sorts nothing: each fact source (a
  :class:`QuadrupleSet`, or ``(s, r, o, t)`` columns such as a mapped
  ``.hst`` store's) is kept as views of its columns, with the
  int32 id-range check and a check that its time column is sorted
  (``QuadrupleSet`` order and the store's sections are), which also
  yields the row range of every timestamp.  A source whose row ranges
  are already known (a store's ``snap_times`` and ``offsets``,
  :meth:`TimeAwareFilter.from_time_runs`) skips that scan and reads
  no time column at all.  With ``inverse_relations``
  set, every
  fact also files its inverse ``(o, r + inverse_relations, s)``, so the
  raw splits stand in for their inverse-augmented copy;
* the first query at time ``t`` (``mask_indices_for_batch``,
  ``true_objects``) builds ``t``'s *block* from ``t``'s rows only: the
  distinct ``(pair key, object)`` rows in ascending order, with the
  pair key ``s * 2**32 + (r + 2**31)``.  A pair's objects form one run
  of the block.  The block sorts one packed int64 key per row
  (``np.lexsort`` over the columns when the key would overflow) and
  drops duplicates; it is memoized;
* ``add_facts`` checks the ids of the k new rows and files them under
  their timestamps, O(k) for one snapshot (every serving ``advance``);
  it drops the memoized blocks of exactly those timestamps, so the next
  query at a stored time re-derives that block alone;
* ``mask_indices_for_batch`` runs two ``searchsorted`` calls over the
  query time's block for the whole query batch, then a vectorized range
  expansion.

The static filter is the same structure with every fact under one key:
its single block holds all facts and is built on first use.

Concurrency: a query may build and memoize a block, so a filter is not
safe for unsynchronized concurrent use.  Serving relies on the engine's
existing serialization (the daemon's one-thread executor, the lock of a
``LocalReplica``); evaluation is single-threaded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .quadruples import FACT_DTYPE, QuadrupleSet

_EMPTY = np.empty(0, dtype=np.int64)

# Packed mask-index batches retained per filter.  Mask indices depend
# only on the query batch and the indexed facts — not on scores — so one
# build serves every rescoring of the same batch (trainer eval epochs,
# per-model benchmark tables, serving evaluation loops).
_MASK_CACHE_SIZE = 4096

# Pair key layout ``s * 2**32 + (r + 2**31)``: for int32 ids it covers
# int64 exactly and is monotone in (s, r), so one searchsorted over a
# block's pair keys finds a pair's run.  Multiplied, not shifted: ids
# may be negative.
_PAIR_STRIDE = 1 << 32
_PAIR_BIAS = 1 << 31
_ID_MIN = int(np.iinfo(FACT_DTYPE).min)
_ID_MAX = int(np.iinfo(FACT_DTYPE).max)

# A fact source: a QuadrupleSet or its ``(s, r, o, t)`` columns.
FactSource = Union[QuadrupleSet, Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]]


def _pair_keys(subjects: np.ndarray, relations: np.ndarray) -> np.ndarray:
    return subjects * _PAIR_STRIDE + (relations + _PAIR_BIAS)


def _key_layout(columns: Sequence[np.ndarray]
                ) -> Optional[List[Tuple[int, int]]]:
    """``(low, bits)`` per column of an order-preserving packed int64 row
    key, or None when the columns' ranges need more than 63 bits."""
    layout = [(int(col.min()), (int(col.max()) - int(col.min())).bit_length())
              for col in columns]
    return layout if sum(bits for _, bits in layout) <= 63 else None


def _pack(columns: Sequence[np.ndarray],
          layout: List[Tuple[int, int]]) -> np.ndarray:
    """One int64 key per row; key order is the rows' lexicographic order."""
    keys = np.zeros(len(columns[0]), dtype=np.int64)
    for col, (low, bits) in zip(columns, layout):
        keys <<= bits
        part = col.astype(np.int64)
        part -= low
        keys |= part
    return keys


def _sorted_rows(columns: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The distinct rows of equal-length integer ``columns`` (most
    significant first) in lexicographic order, as new int64 columns."""
    layout = _key_layout(columns)
    if layout is None:
        order = np.lexsort(columns[::-1])
        columns = [col[order].astype(np.int64, copy=False)
                   for col in columns]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = np.logical_or.reduce(
            [col[1:] != col[:-1] for col in columns])
        return [col[keep] for col in columns]
    keys = np.sort(_pack(columns, layout))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    unpacked = []
    for low, bits in reversed(layout):
        unpacked.append((keys & ((1 << bits) - 1)) + low)
        keys = keys >> bits
    return unpacked[::-1]


def _expand_runs(lo: np.ndarray, hi: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` for every position of every run
    ``[lo[i], hi[i])``, rows ascending, positions ascending per row."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    firsts = np.cumsum(counts) - counts
    return rows, np.arange(len(rows)) + np.repeat(lo - firsts, counts)


def _check_ids(columns: Sequence[np.ndarray]) -> None:
    """Raise unless every id of ``columns`` fits :data:`FACT_DTYPE` (the
    pair key's range).  Free for columns already of a narrower type."""
    for col in columns:
        if (len(col) and not np.can_cast(col.dtype, FACT_DTYPE)
                and (int(col.min()) < _ID_MIN or int(col.max()) > _ID_MAX)):
            raise ValueError("filter subject and relation ids must fit "
                             f"{np.dtype(FACT_DTYPE).name}")


class _Source:
    """One time-ordered fact source: column views plus the row range
    ``[offsets[i], offsets[i + 1])`` of each distinct time ``times[i]``."""

    def __init__(self, s: np.ndarray, r: np.ndarray, o: np.ndarray,
                 times: np.ndarray, offsets: np.ndarray):
        self.s, self.r, self.o = s, r, o
        self.times, self.offsets = times, offsets

    def rows_at(self, time: int) -> Optional[slice]:
        i = int(self.times.searchsorted(time))
        if i == len(self.times) or self.times[i] != time:
            return None
        start, stop = int(self.offsets[i]), int(self.offsets[i + 1])
        return slice(start, stop) if stop > start else None


def _time_runs(t: Optional[np.ndarray], n: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, offsets)`` of a sorted time column's runs; ``t=None``
    files all ``n`` rows under one time, 0 (the static filter)."""
    if t is None:
        return np.zeros(1, dtype=np.int64), np.array([0, n], dtype=np.int64)
    if n > 1 and not bool(np.all(t[1:] >= t[:-1])):
        raise ValueError("filter fact columns must be sorted by time")
    starts = np.flatnonzero(t[1:] != t[:-1]) + 1
    return (t[np.concatenate(([0], starts))].astype(np.int64),
            np.concatenate(([0], starts, [n])).astype(np.int64))


class _FactBlocks:
    """Facts by time, sorted one timestamp block at a time on demand
    (see "Storage model" above).  ``by_time=False`` files every fact
    under time 0."""

    def __init__(self, sources: Iterable[FactSource],
                 inverse_relations: Optional[int], by_time: bool = True):
        self._inverse = (None if inverse_relations is None
                         else int(inverse_relations))
        self._sources: List[_Source] = []
        for source in sources:
            if isinstance(source, QuadrupleSet):
                source = tuple(source.array.T)
            s, r, o, t = (np.asarray(col) for col in source)
            if not (len(s) == len(r) == len(o) == len(t)):
                raise ValueError("fact columns must have equal lengths")
            if len(s):
                self._check(s, r, o)
                self._sources.append(_Source(
                    s, r, o, *_time_runs(t if by_time else None, len(s))))
        # Rows from add_facts, filed per time as (k, 3) arrays.
        self._added: Dict[int, List[np.ndarray]] = {}
        self._blocks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def adopt_runs(self, s: np.ndarray, r: np.ndarray, o: np.ndarray,
                   times: np.ndarray, offsets: np.ndarray) -> None:
        """Add one source whose row range of each time is given (see
        :meth:`TimeAwareFilter.from_time_runs`)."""
        s, r, o = (np.asarray(col) for col in (s, r, o))
        times = np.asarray(times).astype(np.int64)
        offsets = np.asarray(offsets).astype(np.int64)
        n = len(s)
        if not (len(r) == len(o) == n) or len(offsets) != len(times) + 1:
            raise ValueError("fact columns must have equal lengths and "
                             "one more offset than times")
        if (offsets[0] != 0 or offsets[-1] != n
                or not bool(np.all(offsets[1:] >= offsets[:-1]))
                or not bool(np.all(times[1:] > times[:-1]))):
            raise ValueError("time runs must be strictly increasing times "
                             f"with offsets ascending from 0 to {n}")
        if n:
            self._check(s, r, o)
            self._sources.append(_Source(s, r, o, times, offsets))

    def _check(self, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> None:
        """Raise at ingestion, not at the first query, for ids past the
        pair key's range (the inverse's subject and relation included)."""
        if self._inverse is None:
            _check_ids((s, r))
            return
        _check_ids((s, r, o))
        if len(r) and (int(r.max()) + self._inverse > _ID_MAX
                       or int(r.min()) + self._inverse < _ID_MIN):
            raise ValueError("filter inverse relation ids must fit "
                             f"{np.dtype(FACT_DTYPE).name}")

    def add(self, rows: np.ndarray) -> None:
        """File ``(k, 4)`` ``(s, r, o, t)`` rows; repeats are dropped
        when a block is built."""
        rows = np.asarray(rows).reshape(-1, 4)
        if not len(rows):
            return
        self._check(rows[:, 0], rows[:, 1], rows[:, 2])
        times = rows[:, 3]
        if len(rows) > 1 and times.min() != times.max():
            order = np.argsort(times, kind="stable")
            rows, times = rows[order], times[order]
        starts = np.flatnonzero(times[1:] != times[:-1]) + 1
        bounds = np.concatenate(([0], starts, [len(rows)]))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            time = int(times[lo])
            self._added.setdefault(time, []).append(rows[lo:hi, :3].copy())
            self._blocks.pop(time, None)

    def block(self, time: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(pair keys, objects)`` of the distinct facts at ``time``, in
        ascending order; built on the first call and memoized."""
        block = self._blocks.get(time)
        if block is not None:
            return block
        s_parts, r_parts, o_parts = [], [], []
        for source in self._sources:
            rows = source.rows_at(time)
            if rows is not None:
                s_parts.append(source.s[rows])
                r_parts.append(source.r[rows])
                o_parts.append(source.o[rows])
        for rows in self._added.get(time, ()):
            s_parts.append(rows[:, 0])
            r_parts.append(rows[:, 1])
            o_parts.append(rows[:, 2])
        if not s_parts:
            return _EMPTY, _EMPTY
        s, r, o = (np.concatenate(parts).astype(np.int64, copy=False)
                   for parts in (s_parts, r_parts, o_parts))
        if self._inverse is not None:
            s, r, o = (np.concatenate((s, o)),
                       np.concatenate((r, r + self._inverse)),
                       np.concatenate((o, s)))
        s, r, o = _sorted_rows([s, r, o])
        block = self._blocks[time] = (_pair_keys(s, r), o)
        return block

    def true_objects(self, time: int, s: int, r: int) -> FrozenSet[int]:
        # :meth:`mask_indices`' run lookup for one pair on python
        # scalars: no temporary arrays for a lone lookup.
        if not (_ID_MIN <= s <= _ID_MAX and _ID_MIN <= r <= _ID_MAX):
            return frozenset()
        pairs, objects = self.block(time)
        key = s * _PAIR_STRIDE + (r + _PAIR_BIAS)
        lo = int(pairs.searchsorted(key))
        hi = int(pairs.searchsorted(key, side="right"))
        return frozenset(objects[lo:hi].tolist())

    def mask_indices(self, time: int, subjects: np.ndarray,
                     relations: np.ndarray, targets: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        pairs, objects = self.block(time)
        if not len(pairs):
            return _EMPTY, _EMPTY.copy()
        # Each (subject, relation) pair's run [lo, hi) in the block.
        keys = _pair_keys(subjects, relations)
        lo = np.searchsorted(pairs, keys)
        hi = np.searchsorted(pairs, keys, side="right")
        # Out-of-range ids would wrap the pair key onto a real pair.
        wide = ((subjects < _ID_MIN) | (subjects > _ID_MAX)
                | (relations < _ID_MIN) | (relations > _ID_MAX))
        hi[wide] = lo[wide]
        rows, at = _expand_runs(lo, hi)
        cols = objects[at]
        keep = cols != targets[rows]
        return rows[keep], cols[keep]


class _MaskMemo:
    """LRU of packed mask-index batches, keyed by the normalized batch."""

    def __init__(self):
        self._cache: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" \
            = OrderedDict()

    def get(self, blocks: _FactBlocks, time: int, subjects: Sequence[int],
            relations: Sequence[int], targets: Sequence[int]
            ) -> Tuple[np.ndarray, np.ndarray]:
        subjects = np.ascontiguousarray(subjects, dtype=np.int64)
        relations = np.ascontiguousarray(relations, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        # tobytes() keying is collision-safe here only because the three
        # arrays were just normalized to contiguous int64 (fixed width,
        # aligned lengths); see repro.history.array_key for the general
        # dtype/length-collision hazard.
        key = (time, subjects.tobytes(), relations.tobytes(),
               targets.tobytes())
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        packed = blocks.mask_indices(time, subjects, relations, targets)
        self._cache[key] = packed
        if len(self._cache) > _MASK_CACHE_SIZE:
            self._cache.popitem(last=False)
        return packed

    def clear(self) -> None:
        self._cache.clear()


class TimeAwareFilter:
    """Index of true objects keyed by (subject, relation, time).

    ``facts`` are :class:`QuadrupleSet` objects or ``(s, r, o, t)``
    column tuples; they are kept as views, not copied (see "Storage
    model" above), so the caller must not write to them afterwards.
    With ``inverse_relations`` set, every fact ``(s, r, o, t)`` also
    files its inverse ``(o, r + inverse_relations, s, t)``, for facts
    given without their inverses.
    """

    def __init__(self, facts: Iterable[FactSource],
                 inverse_relations: Optional[int] = None):
        self._blocks = _FactBlocks(facts, inverse_relations)
        self._mask_memo = _MaskMemo()

    @classmethod
    def from_time_runs(cls, s: np.ndarray, r: np.ndarray, o: np.ndarray,
                       times: np.ndarray, offsets: np.ndarray,
                       inverse_relations: Optional[int] = None
                       ) -> "TimeAwareFilter":
        """A filter over columns whose row range of each time is known:
        the facts at ``times[i]`` are rows ``[offsets[i], offsets[i +
        1])``, as a store file's ``snap_times`` and ``offsets`` sections
        give them.  No time column is read, so the mapped pages of a
        store's ``t`` column stay untouched; only the O(times) shape of
        the runs is checked, and the caller vouches that they match the
        rows.  The columns are kept as views, as for the constructor.
        """
        time_filter = cls([], inverse_relations)
        time_filter._blocks.adopt_runs(s, r, o, times, offsets)
        return time_filter

    def true_objects(self, s: int, r: int, t: int) -> FrozenSet[int]:
        """All objects o such that (s, r, o, t) is a known fact."""
        return self._blocks.true_objects(int(t), int(s), int(r))

    def mask_indices_for_batch(self, subjects: Sequence[int],
                               relations: Sequence[int], time: int,
                               targets: Sequence[int]
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Packed ``(rows, cols)`` indices of competing true objects.

        For query row ``i`` = ``(subjects[i], relations[i], ?, time)`` the
        column entries are ``true_objects(s_i, r_i, time) - {targets[i]}``,
        ascending; rows ascend.  One fancy-index assignment
        ``scores[rows, cols] = -inf`` then applies the time-aware filter
        to the whole ``(Q, |E|)`` score matrix without per-query copies.

        The first call at a timestamp builds that timestamp's block.  The
        packed arrays are built once per distinct batch and memoized
        (they depend on the queries and the indexed facts, never on
        scores); callers must treat them as read-only.
        """
        return self._mask_memo.get(self._blocks, int(time), subjects,
                                   relations, targets)

    def add_facts(self, facts) -> None:
        """Incrementally index newly revealed facts.

        Serving engines ingest snapshots one at a time; this files the
        new rows under their timestamps in O(k) and drops only those
        timestamps' blocks.  Accepts a :class:`QuadrupleSet` or a plain
        ``(k, 4)`` array.  Ids that do not fit int32 raise here.
        """
        self._blocks.add(facts.array if isinstance(facts, QuadrupleSet)
                         else facts)
        self._mask_memo.clear()


class StaticFilter:
    """Index of true objects keyed by (subject, relation) over all time.

    Provided for comparison with older evaluation protocols; the paper
    argues this setting is unsuitable for extrapolation (it filters out
    facts that legitimately recur at the query time).  Stored like the
    time-aware filter with every fact filed under one block, built on
    first use.  ``facts`` and ``inverse_relations`` are as for
    :class:`TimeAwareFilter`.
    """

    def __init__(self, facts: Iterable[FactSource],
                 inverse_relations: Optional[int] = None):
        self._blocks = _FactBlocks(facts, inverse_relations, by_time=False)
        self._mask_memo = _MaskMemo()

    def true_objects(self, s: int, r: int) -> FrozenSet[int]:
        return self._blocks.true_objects(0, int(s), int(r))

    def mask_indices_for_batch(self, subjects: Sequence[int],
                               relations: Sequence[int], time: int,
                               targets: Sequence[int]
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Packed ``(rows, cols)`` indices of competing true objects.

        Signature-compatible with
        :meth:`TimeAwareFilter.mask_indices_for_batch` so ranking code can
        treat both filters uniformly; ``time`` is ignored (this filter
        strikes true objects at *any* timestamp).  Built once per
        distinct batch and memoized; callers must treat the returned
        arrays as read-only.
        """
        return self._mask_memo.get(self._blocks, 0, subjects, relations,
                                   targets)
