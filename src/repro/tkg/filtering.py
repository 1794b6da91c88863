"""Answer-filtering indices for ranking evaluation.

TKG extrapolation papers (and this one, §IV-B1) report the *time-aware
filtered* setting: when ranking candidate objects for query ``(s, r, ?, t)``
only the other true objects *at the same timestamp t* are removed from the
candidate list.  The legacy *static filtered* setting removes true objects
at any timestamp, which leaks future information; the *raw* setting removes
nothing.  All three are provided.

Storage model
-------------
Both filters keep their facts as three int64 columns
(:class:`_ObjectRuns`) over the distinct ``(t, s, r, o)`` rows in
lexicographic order: the time, a *pair key* ``s * 2**32 + (r + 2**31)``
and the object (the static filter files every fact under time 0).  The
rows of one timestamp form a block with ascending pair keys, and a
pair's objects ascend within its run.  No python object exists per
fact:

* building sorts one packed int64 key per row (``np.lexsort`` over the
  columns when the key would overflow) and drops duplicates;
* ``add_facts`` sorts only the k new rows.  Rows past the last stored
  timestamp (every serving ``advance``) are appended in place into
  spare capacity; rows at stored timestamps are re-sorted together with
  the blocks of the timestamps they span;
* ``mask_indices_for_batch`` finds the query time's block and runs two
  ``searchsorted`` calls over it for the whole query batch, then a
  vectorized range expansion.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

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


class _ObjectRuns:
    """Sorted distinct ``(t, s, r, o)`` rows as columns (see "Storage
    model" above).

    The columns are views of the first ``size`` rows of one ``(3,
    capacity)`` buffer whose capacity at least doubles when it fills, so
    a run of appends past the last timestamp costs amortized O(k), not
    O(stored rows).
    """

    def __init__(self):
        self._buffer = np.empty((3, 0), dtype=np.int64)
        self._set_size(0)

    def _set_size(self, size: int) -> None:
        self.times, self.pairs, self.objects = self._buffer[:, :size]

    def add(self, rows: np.ndarray) -> None:
        """Index ``(k, 4)`` ``(s, r, o, t)`` rows; repeats are dropped."""
        rows = np.asarray(rows).reshape(-1, 4)
        if not len(rows):
            return
        s, r, o, t = (rows[:, col] for col in range(4))
        if (min(int(s.min()), int(r.min())) < _ID_MIN
                or max(int(s.max()), int(r.max())) > _ID_MAX):
            raise ValueError("filter subject and relation ids must fit "
                             f"{np.dtype(FACT_DTYPE).name}")
        size = len(self.times)
        t, s, r, o = _sorted_rows([t, s, r, o])
        lo = int(np.searchsorted(self.times, t[0]))
        hi = size
        if lo < size:
            # The new rows share timestamps with stored ones: re-sort
            # the stored rows of the timestamps they span together with
            # them (the rows around that window are kept as they are).
            hi = int(np.searchsorted(self.times, t[-1], side="right"))
            stored = self.pairs[lo:hi]
            t, s, r, o = _sorted_rows([
                np.concatenate(pair) for pair in zip(
                    (self.times[lo:hi], stored // _PAIR_STRIDE,
                     stored % _PAIR_STRIDE - _PAIR_BIAS,
                     self.objects[lo:hi]), (t, s, r, o))])
        pairs = _pair_keys(s, r)
        end = lo + len(t)
        needed = end + size - hi
        buffer = self._buffer
        if needed > buffer.shape[1]:
            buffer = np.empty((3, max(needed, 2 * buffer.shape[1], 1024)),
                              dtype=np.int64)
            buffer[:, :lo] = self._buffer[:, :lo]
        # Shifts the rows past the window right; numpy copies through a
        # temporary when the two ranges overlap.
        buffer[:, end:needed] = self._buffer[:, hi:size]
        self._buffer = buffer
        self._buffer[0, lo:end] = t
        self._buffer[1, lo:end] = pairs
        self._buffer[2, lo:end] = o
        self._set_size(needed)

    def runs(self, time: int, subjects: np.ndarray, relations: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Row range ``[lo, hi)`` of each ``(subject, relation)`` pair's
        objects at ``time`` (empty where none is known)."""
        first = int(np.searchsorted(self.times, time))
        end = int(np.searchsorted(self.times, time, side="right"))
        if first == end:
            return _EMPTY, _EMPTY
        keys = _pair_keys(subjects, relations)
        pairs = self.pairs[first:end]
        lo = np.searchsorted(pairs, keys) + first
        hi = np.searchsorted(pairs, keys, side="right") + first
        # Out-of-range ids would wrap the pair key onto a real pair.
        wide = ((subjects < _ID_MIN) | (subjects > _ID_MAX)
                | (relations < _ID_MIN) | (relations > _ID_MAX))
        hi[wide] = lo[wide]
        return lo, hi

    def true_objects(self, time: int, s: int, r: int) -> FrozenSet[int]:
        # :meth:`runs` for one pair on python scalars: no temporary
        # arrays for a lone lookup.
        if not (_ID_MIN <= s <= _ID_MAX and _ID_MIN <= r <= _ID_MAX):
            return frozenset()
        first = int(self.times.searchsorted(time))
        pairs = self.pairs[first:int(self.times.searchsorted(
            time, side="right"))]
        key = s * _PAIR_STRIDE + (r + _PAIR_BIAS)
        lo = first + int(pairs.searchsorted(key))
        hi = first + int(pairs.searchsorted(key, side="right"))
        return frozenset(self.objects[lo:hi].tolist())

    def mask_indices(self, time: int, subjects: np.ndarray,
                     relations: np.ndarray, targets: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.runs(time, subjects, relations)
        if not len(lo):
            return _EMPTY, _EMPTY.copy()
        rows, at = _expand_runs(lo, hi)
        cols = self.objects[at]
        keep = cols != targets[rows]
        return rows[keep], cols[keep]


class _MaskMemo:
    """LRU of packed mask-index batches, keyed by the normalized batch."""

    def __init__(self):
        self._cache: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" \
            = OrderedDict()

    def get(self, runs: _ObjectRuns, time: int, subjects: Sequence[int],
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
        packed = runs.mask_indices(time, subjects, relations, targets)
        self._cache[key] = packed
        if len(self._cache) > _MASK_CACHE_SIZE:
            self._cache.popitem(last=False)
        return packed

    def clear(self) -> None:
        self._cache.clear()


def _fact_rows(facts: Iterable[QuadrupleSet]) -> np.ndarray:
    arrays = [quad_set.array for quad_set in facts]
    return np.concatenate(arrays) if arrays else _EMPTY.reshape(0, 4)


class TimeAwareFilter:
    """Index of true objects keyed by (subject, relation, time)."""

    def __init__(self, facts: Iterable[QuadrupleSet]):
        self._runs = _ObjectRuns()
        self._runs.add(_fact_rows(facts))
        self._mask_memo = _MaskMemo()

    def true_objects(self, s: int, r: int, t: int) -> FrozenSet[int]:
        """All objects o such that (s, r, o, t) is a known fact."""
        return self._runs.true_objects(int(t), int(s), int(r))

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

        The packed arrays are built once per distinct batch and memoized
        (they depend on the queries and the indexed facts, never on
        scores); callers must treat them as read-only.
        """
        return self._mask_memo.get(self._runs, int(time), subjects,
                                   relations, targets)

    def add_facts(self, facts) -> None:
        """Incrementally index newly revealed facts.

        Serving engines ingest snapshots one at a time; this keeps the
        filter in sync without rebuilding the whole index.  Accepts a
        :class:`QuadrupleSet` or a plain ``(k, 4)`` array.
        """
        self._runs.add(facts.array if isinstance(facts, QuadrupleSet)
                       else facts)
        self._mask_memo.clear()


class StaticFilter:
    """Index of true objects keyed by (subject, relation) over all time.

    Provided for comparison with older evaluation protocols; the paper
    argues this setting is unsuitable for extrapolation (it filters out
    facts that legitimately recur at the query time).  Stored like the
    time-aware filter with every fact filed under time 0.
    """

    def __init__(self, facts: Iterable[QuadrupleSet]):
        rows = _fact_rows(facts)
        self._runs = _ObjectRuns()
        self._runs.add(np.concatenate(
            (rows[:, :3], np.zeros((len(rows), 1), dtype=rows.dtype)),
            axis=1))
        self._mask_memo = _MaskMemo()

    def true_objects(self, s: int, r: int) -> FrozenSet[int]:
        return self._runs.true_objects(0, int(s), int(r))

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
        return self._mask_memo.get(self._runs, 0, subjects, relations,
                                   targets)
