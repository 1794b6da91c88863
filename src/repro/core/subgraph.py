"""Global historical query subgraph construction (paper §III-D).

For a query ``(s, r, ?, t_q)`` the paper samples, from all facts before
``t_q``:

* ``G'_g1`` — the one-hop historical facts containing the query subject
  ``s``;
* ``G'_g2`` — the one-hop facts containing any *historical answer*
  ``o`` with ``(s, r, o)`` observed in the past (the "one-hop target
  object entities associated with the query entity-relation pair");
* the union ``G'_g = G'_g1 ∪ G'_g2`` is collapsed to a *static* graph:
  duplicate (s, r, o) triples across time are merged and timestamps
  dropped.

Because LogCL processes all queries of one timestamp as a batch, the
subgraphs of the individual queries are merged into one edge set per
timestamp, and the single global R-GCN pass encodes them all at once.

Storage model
-------------
Facts live in two time-sorted regions: an immutable columnar **base**
(four aligned ``(s, r, o, t)`` arrays, adopted as-is — for a
memory-mapped ``repro.data`` store file these are zero-copy views into
the file) and a growable row-major **tail** that absorbs streamed
:meth:`GlobalHistoryIndex.extend` appends.  Base rows always precede
tail rows in time, so a global row id is either a base row or
``base size + tail row``.

The index state is a cursor: rows ``[0, cursor)`` are "in the past",
and :meth:`GlobalHistoryIndex.advance_to` only binary-searches the time
column to move it.

The subgraph is a set of distinct triples, so the base region is
indexed at the triple level (:class:`TripleIndex`): its distinct
``(s, r, o)`` triples in lexicographic order, each with the first row
it occurs in, plus an entity → triple-id CSR in which every entity owns
two adjacent runs, the triples where it is the subject and those where
it is the object.  A triple is in the past when its first row is below
the cursor.  A query pair's answers are one range of the triple table
(found by bisecting the relation column inside the subject's range);
a seed's neighbourhood is its two runs.  The seeds' triple ids are
uniqued with a reusable one-byte-per-triple marker whose read-back is
already lexicographic, so :meth:`GlobalHistoryIndex.subgraph_for_queries`
sorts nothing over the base.  A ``repro.data`` store file carries this
index as extra sections (mapped zero-copy); an in-memory base derives
it with :meth:`TripleIndex.derive` on its first lookup.

The tail keeps a row-level entity → rows CSR (:class:`_EntityRows`):
one sorted array of int64 keys ``entity * 2**32 + side + row`` in which
every entity owns a subject run and an object run, each in ascending
row order, so one vectorized ``searchsorted`` cuts every requested run
at the cursor.  The tail's rows of a subgraph are unioned with the
base's triples in one dedupe over that (small) union.  The multiplicity
lookups — :meth:`GlobalHistoryIndex.answer_count_matrix` (dense counts,
for scorers), :meth:`GlobalHistoryIndex.fact_counts` (one count per
``(s, r, o)``, for provenance) and :meth:`GlobalHistoryIndex.answer_counts`
— count rows, so they read a row CSR of the base too, built on the
first such lookup.

Every index is a pure function of the stored facts, never of the
cursor, so all of them live as long as the index.  A key does not
depend on the region's size, so the tail CSR grows in place: ``extend``
only appends rows, and the next lookup that reaches the tail sorts the
keys of the rows appended since and merges them into the tail CSR's
keys.  Costs: ``advance_to`` O(log n) and
:meth:`GlobalHistoryIndex.rewind` O(1); the base triple index one
O(n log n) sort, at write time for a store file; a subgraph over the
base O(gathered triples + distinct triples); a streamed append of k
facts amortized O(k), plus O(k log k + tail) at the next lookup that
reaches the tail — a merge (one copy of the tail's keys), never a
re-sort of rows already indexed.  An engine without a store file keeps
its whole history in the tail, so there the copy grows with the
history.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..tkg.quadruples import FACT_DTYPE, QuadrupleSet

_EMPTY_COLUMN = np.empty(0, dtype=FACT_DTYPE)
_EMPTY_COLUMN.setflags(write=False)
_FACT_MIN = int(np.iinfo(FACT_DTYPE).min)
_FACT_MAX = int(np.iinfo(FACT_DTYPE).max)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values in ascending order: a sort plus an
    adjacent-difference mask.

    Equal to ``np.unique(values)``, which on numpy 2.4 is about 40x
    slower on the 10^5-key inputs of the subgraph path.
    """
    values = np.sort(values)
    if len(values) > 1:
        keep = np.empty(len(values), dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(starts, stops)])``."""
    lengths = stops - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    shift += np.arange(len(shift))
    return shift


def _marked_unique(marker: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Distinct ``values`` in ascending order: ``_sorted_unique`` without
    a sort.

    ``marker`` is an all-False bool array longer than every value (the
    values are non-negative).  Each value sets its mark, the marks are
    read back in order and cleared again: O(len(values) + len(marker))
    time, and nothing allocated beyond the result.
    """
    marker[values] = True
    unique = np.flatnonzero(marker)
    marker[unique] = False
    return unique


def _bisect_ranges(column: np.ndarray, low: np.ndarray, high: np.ndarray,
                   values: np.ndarray, side: str) -> np.ndarray:
    """``low + np.searchsorted(column[low:high], values, side)`` per
    element, for ranges that are each sorted ascending.

    A vectorized bisection: every step halves all open ranges at once,
    so a batch costs O(len(values) * log(longest range)).
    """
    low, high = low.copy(), high.copy()
    active = np.flatnonzero(low < high)
    while len(active):
        middle = (low[active] + high[active]) >> 1
        probe = column[middle]
        go_right = (probe < values[active] if side == "left"
                    else probe <= values[active])
        low[active[go_right]] = middle[go_right] + 1
        high[active[~go_right]] = middle[~go_right]
        active = active[low[active] < high[active]]
    return low


def _pair_keys(subjects: np.ndarray, relations: np.ndarray) -> np.ndarray:
    """One int64 per ``(subject, relation)`` pair of int32-range ids."""
    return ((subjects.astype(np.int64) << 32)
            | (relations.astype(np.int64) & 0xFFFFFFFF))


def _packed_triple_keys(src: np.ndarray, rel: np.ndarray, dst: np.ndarray
                        ) -> Optional[Tuple[np.ndarray, List[int], List[int]]]:
    """One int64 key per triple, monotone in the row-lexicographic order.

    Each column is shifted to start at 0 and packed into its own bit
    field, ``(s << (w_r + w_d)) | (r << w_d) | d`` (``w_*`` = the bit
    width of a column's span).  Returns ``(keys, lows, widths)``, or
    ``None`` when the fields need more than 63 bits (ids at icews or
    gdelt scale are nowhere near the bound).
    """
    columns = (src, rel, dst)
    lows = [int(col.min()) for col in columns]
    widths = [(int(col.max()) - low).bit_length()
              for col, low in zip(columns, lows)]
    if sum(widths) > 63:
        return None
    keys = src.astype(np.int64)
    keys -= lows[0]
    field = np.empty_like(keys)
    for col, low, width in zip(columns[1:], lows[1:], widths[1:]):
        field[:] = col
        field -= low
        keys <<= width
        keys |= field
    return keys, lows, widths


def _dedupe_triples(src: np.ndarray, rel: np.ndarray, dst: np.ndarray
                    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Unique triples via packed 1-D keys — the fast-path replacement
    for ``np.unique(np.stack([...], axis=1), axis=0)``.

    Row-wise ``np.unique(axis=0)`` views each row as a void scalar and
    sorts structured records, an order of magnitude slower.  The keys of
    :func:`_packed_triple_keys` are monotone in the row-lexicographic
    order, so a plain 1-D unique over them yields exactly the same rows
    in the same order, and masks and shifts unpack it.  Returns ``None``
    when the fields need more than 63 bits (caller falls back to the
    row-wise path).
    """
    packed = _packed_triple_keys(src, rel, dst)
    if packed is None:
        return None
    keys, lows, widths = packed
    keys = _sorted_unique(keys)
    unpacked = []
    for low, width in zip(lows[::-1], widths[::-1]):
        unpacked.append(((keys & ((1 << width) - 1)) + low).astype(FACT_DTYPE))
        keys >>= width
    return unpacked[2], unpacked[1], unpacked[0]


class TripleIndex(NamedTuple):
    """The §III-D index of a base region at the triple level.

    Six arrays, the extra sections of a ``repro.data`` store file:

    * ``triple_s``, ``triple_r``, ``triple_o`` — the region's distinct
      ``(s, r, o)`` triples in lexicographic order (int32);
    * ``triple_row`` — the first (lowest) row each triple occurs in
      (int32), so a triple is before a cursor iff its first row is;
    * ``run_offsets`` — ``2 * E + 1`` int64 offsets for the entity ids
      ``[0, E)`` (``E`` = the largest entity id + 1): entity ``e``'s
      subject run is ``run_triples[run_offsets[2e]:run_offsets[2e+1]]``
      and its object run follows it, up to ``run_offsets[2e+2]``;
    * ``run_triples`` — the triple ids of every run (int32), ascending
      within a run; ``2 * T`` of them.

    A pure function of the region's ``(s, r, o)`` columns
    (:meth:`derive`), so a store file's sections and an in-memory
    derivation over the same facts are identical.
    """

    triple_s: np.ndarray
    triple_r: np.ndarray
    triple_o: np.ndarray
    triple_row: np.ndarray
    run_offsets: np.ndarray
    run_triples: np.ndarray

    @classmethod
    def derive(cls, subjects: np.ndarray, relations: np.ndarray,
               objects: np.ndarray) -> "TripleIndex":
        """Index aligned ``(s, r, o)`` columns with one stable sort.

        Rows are sorted lexicographically (stably, so each triple's
        first row leads its group); the group leaders are the triple
        table, and the runs are the triple ids stably ordered by
        ``(entity, side)``.  Entity ids must be non-negative: the runs
        are addressed by id.
        """
        count = len(subjects)
        if count > 2 ** 31 - 1:
            raise ValueError(f"a storage region holds at most 2**31 - 1 "
                             f"facts, got {count}")
        if count:
            packed = _packed_triple_keys(subjects, relations, objects)
            order = (np.argsort(packed[0], kind="stable")
                     if packed is not None
                     else np.lexsort((objects, relations, subjects)))
            s, r, o = subjects[order], relations[order], objects[order]
            leads = np.empty(count, dtype=bool)
            leads[0] = True
            np.not_equal(s[1:], s[:-1], out=leads[1:])
            leads[1:] |= r[1:] != r[:-1]
            leads[1:] |= o[1:] != o[:-1]
            starts = np.flatnonzero(leads)
            triple_s, triple_r, triple_o = s[starts], r[starts], o[starts]
            triple_row = order[starts]
        else:
            triple_s = triple_r = triple_o = triple_row = _EMPTY_COLUMN
        triples = len(triple_s)
        if triples and min(int(triple_s[0]), int(triple_o.min())) < 0:
            raise ValueError("the triple index addresses entities by id; "
                             "got a negative entity id")
        entities = (max(int(triple_s[-1]), int(triple_o.max())) + 1
                    if triples else 0)
        sides = np.concatenate([triple_s.astype(np.int64) * 2,
                                triple_o.astype(np.int64) * 2 + 1])
        run_triples = np.argsort(sides, kind="stable")
        run_triples[run_triples >= triples] -= triples
        run_offsets = np.zeros(2 * entities + 1, dtype=np.int64)
        np.cumsum(np.bincount(sides, minlength=2 * entities),
                  out=run_offsets[1:])
        return cls(*(np.ascontiguousarray(column, dtype=FACT_DTYPE)
                     for column in (triple_s, triple_r, triple_o,
                                    triple_row)),
                   run_offsets, run_triples.astype(FACT_DTYPE))

    @property
    def num_entities(self) -> int:
        """``E``: the runs cover entity ids ``[0, E)``."""
        return (len(self.run_offsets) - 1) // 2

    def _known(self, entities: np.ndarray) -> np.ndarray:
        """Mask of the int64 ``entities`` that own runs."""
        return (entities >= 0) & (entities < self.num_entities)

    def answers(self, subjects: np.ndarray, relations: np.ndarray,
                rows: int) -> np.ndarray:
        """Objects of the triples first seen below row ``rows`` that
        answer one of the int64 ``(subjects[i], relations[i])`` pairs;
        an object may repeat.

        The triples of a subject are one range of the table, sorted by
        relation, so each pair's answers are one sub-range.
        """
        known = self._known(subjects)
        subjects = subjects[known].astype(FACT_DTYPE)
        relations = relations[known]
        low = self.triple_s.searchsorted(subjects, "left")
        high = self.triple_s.searchsorted(subjects, "right")
        low = _bisect_ranges(self.triple_r, low, high, relations, "left")
        high = _bisect_ranges(self.triple_r, low, high, relations, "right")
        ids = _ranges(low, high)
        return self.triple_o[ids[self.triple_row[ids] < rows]]

    def neighbourhood(self, seeds: np.ndarray, rows: int,
                      marker: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct triples first seen below row ``rows`` with one of
        the int64 ``seeds`` as subject or object, in lexicographic order.

        ``marker`` is an all-False bool array of one byte per triple;
        it is left all-False again.
        """
        seeds = 2 * seeds[self._known(seeds)]
        ids = self.run_triples[_ranges(self.run_offsets[seeds],
                                       self.run_offsets[seeds + 2])]
        ids = _marked_unique(marker, ids[self.triple_row[ids] < rows])
        return self.triple_s[ids], self.triple_r[ids], self.triple_o[ids]


# Key layout of :class:`_EntityRows`: ``entity * 2**32 + side + row``
# with ``side`` 0 for the subject run and ``_OBJECT_RUN`` for the object
# run.  Rows of one region stay below 2**31, so keys never depend on the
# region's size and a new chunk's keys merge into a sorted array as is.
_OBJECT_RUN = 1 << 31
_ROW_MASK = _OBJECT_RUN - 1
_ENTITY_SHIFT = 32
_ENTITY_STRIDE = 1 << _ENTITY_SHIFT   # multiplied, not shifted: ids may be < 0


class _EntityRows:
    """Entity → rows CSR over one storage region (see "Storage model").

    ``keys`` is the sorted array of one key per (fact, side) of the
    first ``size`` rows of the region; an entity's subject run starts at
    key ``entity * 2**32`` and its object run ``2**31`` later, each in
    ascending row order, so the rows below a cursor are a prefix of each
    run and ``key & (2**31 - 1)`` recovers the row.
    """

    def __init__(self):
        self.size = 0
        self.keys = np.empty(0, dtype=np.int64)
        # Ids outside [low, high] own no rows; checking that first also
        # keeps ``entity * 2**32`` from wrapping int64.
        self.low, self.high = 0, -1
        self.subjects = self.relations = self.objects = _EMPTY_COLUMN

    def add(self, subjects: np.ndarray, relations: np.ndarray,
            objects: np.ndarray) -> None:
        """Index the rows past ``size`` of the region's (grown) columns.

        The new keys are sorted and merged into ``keys``: O(k log k) for
        k new rows plus one O(size) copy, never a re-sort of old rows.
        """
        if len(subjects) > _OBJECT_RUN:
            raise ValueError(f"a storage region holds at most {_OBJECT_RUN} "
                             f"facts, got {len(subjects)}")
        count = len(subjects) - self.size
        new = np.empty(2 * count, dtype=np.int64)
        offsets = np.arange(self.size, len(subjects), dtype=np.int64)
        for keys, column in ((new[:count], subjects), (new[count:], objects)):
            keys[:] = column[self.size:]
            keys *= _ENTITY_STRIDE
            keys += offsets
            offsets += _OBJECT_RUN      # side + row of the object run
        new.sort()
        if self.size:
            new = np.insert(self.keys, np.searchsorted(self.keys, new), new)
        self.keys = new
        self.size = len(subjects)
        self.low = int(new[0]) >> _ENTITY_SHIFT
        self.high = int(new[-1]) >> _ENTITY_SHIFT
        self.subjects = subjects
        self.relations = relations
        self.objects = objects

    def _run_keys(self, entities: np.ndarray, rows: int,
                  side: int = 0) -> np.ndarray:
        """Keys of the rows below ``rows`` in the run at ``side`` (0:
        subject, ``_OBJECT_RUN``: object) of each of ``entities``."""
        known = entities[(entities >= self.low) & (entities <= self.high)]
        start = known * _ENTITY_STRIDE + side
        return self.keys[_ranges(np.searchsorted(self.keys, start),
                                 np.searchsorted(self.keys, start + rows))]

    def rows_of(self, entities: np.ndarray, rows: int) -> np.ndarray:
        """Rows below ``rows`` with one of ``entities`` (sorted, distinct,
        int64) as subject or object, each row once.

        An object-run row whose subject is also one of ``entities`` is
        already in that entity's subject run, so it is dropped there.
        """
        subject_rows = self._run_keys(entities, rows) & _ROW_MASK
        object_rows = self._run_keys(entities, rows, _OBJECT_RUN) & _ROW_MASK
        subjects = self.subjects[object_rows]
        found = np.minimum(np.searchsorted(entities, subjects),
                           len(entities) - 1)
        object_rows = object_rows[entities[found] != subjects]
        return np.concatenate([subject_rows, object_rows])

    def answers(self, subjects: np.ndarray, rows: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(subject, relation, object)`` of the rows below ``rows`` with
        one of ``subjects`` (int64) as subject, subject-major then in row
        order."""
        keys = self._run_keys(subjects, rows)
        row = keys & _ROW_MASK
        return keys >> _ENTITY_SHIFT, self.relations[row], self.objects[row]


class GlobalHistoryIndex:
    """Incremental index over past facts for fast subgraph extraction.

    Facts are appended in timestamp order with :meth:`advance_to`; queries
    may then extract the merged historical subgraph for a batch of
    (subject, relation) pairs.  The index only ever contains facts strictly
    before the most recent ``advance_to`` horizon, so there is no leakage
    of query-time facts.  Entity ids of the base region index its triple
    runs, so they must be non-negative (vocabulary indices).
    """

    def __init__(self, facts: QuadrupleSet):
        # The canonical QuadrupleSet order is time-major, so its column
        # views can be adopted directly as the immutable base region.
        arr = facts.array
        self._base = (arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
        self._base_size = len(arr)
        # Streamed appends land in an amortized-growth row-major tail.
        self._tail = np.empty((0, 4), dtype=FACT_DTYPE)
        self._tail_size = 0
        self._cursor = 0           # rows [0, cursor) are "in the past"
        self.horizon = -1          # latest fully-included timestamp + 1
        # The base's triple index, mapped or derived on first use, and
        # its marker (all False between lookups); see "Storage model".
        self._triples: Optional[TripleIndex] = None
        self._triple_marker = np.zeros(0, dtype=bool)
        # Entity -> rows CSRs, built on first use.
        self._base_csr: Optional[_EntityRows] = None
        self._tail_csr = _EntityRows()

    @classmethod
    def empty(cls) -> "GlobalHistoryIndex":
        """An index with no facts yet (serving engines fill it via extend)."""
        return cls(QuadrupleSet.empty())

    @classmethod
    def from_columns(cls, subjects: np.ndarray, relations: np.ndarray,
                     objects: np.ndarray, times: np.ndarray,
                     triples: Optional[TripleIndex] = None
                     ) -> "GlobalHistoryIndex":
        """Adopt four aligned, time-sorted fact columns without copying.

        This is how a memory-mapped ``repro.data`` store file becomes an
        index: the columns stay views into the backing file, so forked
        evaluation workers and serving replicas share one physical copy
        through the page cache.  Callers guarantee the time column is
        sorted ascending; the columns are treated as immutable.
        ``triples`` is the columns' :class:`TripleIndex` when the file
        carries it (otherwise it is derived on the first lookup).
        """
        columns = (subjects, relations, objects, times)
        if len({col.shape for col in columns}) != 1 or subjects.ndim != 1:
            raise ValueError("expected four aligned 1-D fact columns, got "
                             f"shapes {[col.shape for col in columns]}")
        index = cls(QuadrupleSet.empty())
        index._base = columns
        index._base_size = len(subjects)
        index._triples = triples
        return index

    @property
    def triples(self) -> TripleIndex:
        """The base region's :class:`TripleIndex` (derived on first use
        for an in-memory base, kept across :meth:`rewind`)."""
        if self._triples is None:
            self._triples = TripleIndex.derive(*self._base[:3])
        if len(self._triple_marker) != len(self._triples.triple_s):
            self._triple_marker = np.zeros(len(self._triples.triple_s),
                                           dtype=bool)
        return self._triples

    # -- region-spanning primitives ------------------------------------
    def _search_time(self, t: int, side: str) -> int:
        """``np.searchsorted`` over the (base + tail) time sequence.

        ``t`` is searched as a ``FACT_DTYPE`` scalar: a Python int would
        make numpy convert the whole column to int64 first, O(n) per
        search.  Times outside the dtype's range bound every row.
        """
        if t > _FACT_MAX:
            return self._base_size + self._tail_size
        if t < _FACT_MIN:
            return 0
        t = FACT_DTYPE(t)
        position = int(np.searchsorted(self._base[3][:self._base_size], t,
                                       side=side))
        if position < self._base_size:
            return position
        return self._base_size + int(np.searchsorted(
            self._tail[:self._tail_size, 3], t, side=side))

    def _rows_between(self, start: int, end: int) -> np.ndarray:
        """Rows ``[start, end)`` as a read-only ``(k, 4)`` array."""
        base_end = min(end, self._base_size)
        parts = []
        if start < base_end:
            parts.append(np.stack(
                [col[start:base_end] for col in self._base], axis=1))
        if end > self._base_size:
            tail_start = max(start - self._base_size, 0)
            parts.append(self._tail[tail_start:end - self._base_size].copy())
        if not parts:
            rows = np.empty((0, 4), dtype=FACT_DTYPE)
        elif len(parts) == 1:
            rows = parts[0]
        else:
            rows = np.concatenate(parts, axis=0)
        rows.setflags(write=False)
        return rows

    def _tail_region(self) -> Optional[Tuple[_EntityRows, int]]:
        """``(tail CSR, indexed tail rows)`` when the cursor is past the
        base, merging pending tail rows into the CSR on the way."""
        tail_rows = self._cursor - self._base_size
        if tail_rows <= 0:
            return None
        if self._tail_csr.size < self._tail_size:
            live = self._tail[:self._tail_size]
            self._tail_csr.add(live[:, 0], live[:, 1], live[:, 2])
        return self._tail_csr, tail_rows

    def _regions(self) -> List[Tuple[_EntityRows, int]]:
        """``(CSR, indexed row count)`` of each region with indexed rows,
        building the base row CSR on the way (multiplicity lookups)."""
        regions = []
        base_rows = min(self._cursor, self._base_size)
        if base_rows:
            if self._base_csr is None:
                self._base_csr = _EntityRows()
                self._base_csr.add(*self._base[:3])
            regions.append((self._base_csr, base_rows))
        tail = self._tail_region()
        if tail is not None:
            regions.append(tail)
        return regions

    def _answers(self, subjects: np.ndarray, relations: np.ndarray,
                 regions: Sequence[Tuple[_EntityRows, int]]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indexed historical answers in ``regions`` of a non-empty batch
        of int64 ``(subject, relation)`` pairs.

        Returns ``(wanted, pair, objects)``: the distinct packed pair keys
        in ascending order, and for each indexed fact answering one of
        them its position in ``wanted`` and its object — region by
        region, subject-major, then in row order (so one pair's objects
        come in row order).
        """
        wanted = _sorted_unique(_pair_keys(subjects, relations))
        subjects = _sorted_unique(subjects)
        pairs, objects = [], []
        for region, rows in regions:
            subj, rel, obj = region.answers(subjects, rows)
            keys = _pair_keys(subj, rel)
            found = np.minimum(np.searchsorted(wanted, keys), len(wanted) - 1)
            hit = wanted[found] == keys
            pairs.append(found[hit])
            objects.append(obj[hit])
        if not pairs:
            return wanted, np.empty(0, dtype=np.int64), _EMPTY_COLUMN
        return wanted, np.concatenate(pairs), np.concatenate(objects)

    def extend(self, facts: np.ndarray) -> None:
        """Append new facts ``(k, 4)`` in amortized O(k).

        Rows may arrive unsorted within the chunk but must not predate any
        already-stored fact, so the time column stays globally sorted and
        :meth:`advance_to` keeps working with binary search.  Facts become
        visible to queries once ``advance_to`` moves past their timestamp.
        Neither CSR is touched here: the next lookup that reaches the tail
        merges the new rows into the tail CSR.
        """
        arr = np.asarray(facts, dtype=FACT_DTYPE)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"expected (k, 4) fact array, got {arr.shape}")
        if len(arr) == 0:
            return
        arr = arr[np.argsort(arr[:, 3], kind="stable")]
        last = self._last_time()
        if last is not None and int(arr[0, 3]) < last:
            raise ValueError(
                f"cannot append facts at t={int(arr[0, 3])} before the "
                f"latest stored timestamp {last}")
        needed = self._tail_size + len(arr)
        if needed > len(self._tail):
            grown = np.empty((max(needed, 2 * len(self._tail), 1024), 4),
                             dtype=FACT_DTYPE)
            grown[:self._tail_size] = self._tail[:self._tail_size]
            self._tail = grown
        self._tail[self._tail_size:needed] = arr
        self._tail_size = needed

    def _last_time(self) -> Optional[int]:
        if self._tail_size:
            return int(self._tail[self._tail_size - 1, 3])
        if self._base_size:
            return int(self._base[3][self._base_size - 1])
        return None

    def rewind(self) -> None:
        """Forget the advance state; keep the stored facts.

        O(1): the cursor and horizon reset, so the next
        :meth:`advance_to` starts from the beginning of the buffer —
        behaviourally identical to constructing a fresh index over the
        same facts, but the fact columns, the triple index and the
        entity CSRs (pure functions of the stored facts) are kept.
        ``HistoryContext.reset`` calls this at every epoch start; the
        saving is measured in ``benchmarks/test_history_cache.py``.
        """
        self._cursor = 0
        self.horizon = -1

    def advance_to(self, query_time: int) -> None:
        """Include all facts with ``t < query_time`` into the index."""
        if query_time < self.horizon:
            raise ValueError("index can only advance forward in time "
                             f"(horizon={self.horizon}, asked {query_time})")
        self._cursor = self._search_time(query_time, "left")
        self.horizon = query_time

    def facts_since(self, t: int) -> np.ndarray:
        """Indexed facts with timestamp ``>= t``, as a read-only array.

        "Indexed" means facts already pulled in by :meth:`advance_to`
        (``time < horizon``) — the public way to walk recently revealed
        history incrementally (e.g. the recency heuristic) without
        touching the index's private buffers.  The returned ``(k, 4)``
        array is read-only and may be freshly assembled from the two
        storage regions; callers must not mutate it.
        """
        start = min(self._search_time(t, "left"), self._cursor)
        return self._rows_between(start, self._cursor)

    def historical_answers(self, subject: int, relation: int) -> Set[int]:
        """Objects o with (subject, relation, o) observed before horizon."""
        return set(self._answers(np.array([subject], dtype=np.int64),
                                 np.array([relation], dtype=np.int64),
                                 self._regions())[2].tolist())

    def answer_counts(self, subject: int, relation: int) -> Dict[int, int]:
        """Occurrence counts of each historical answer (CyGNet's copy
        vocabulary).

        Returns a fresh dict the caller owns, keyed in first-seen
        (earliest row) order, so sums over it are reproducible;
        mutating it never affects the index.  For a batch of queries,
        :meth:`answer_count_matrix` and :meth:`fact_counts` do the same
        in one vectorized pass.
        """
        objects = self._answers(np.array([subject], dtype=np.int64),
                                np.array([relation], dtype=np.int64),
                                self._regions())[2]
        # Counter counts in C and keeps first-insertion (row) order.
        return dict(Counter(objects.tolist()))

    def answer_count_matrix(self, subjects: np.ndarray, relations: np.ndarray,
                            num_entities: int, dtype=np.int64) -> np.ndarray:
        """Dense :meth:`answer_counts` for a batch of queries.

        Returns a ``(len(subjects), num_entities)`` array of ``dtype``
        whose row ``q`` holds, at column ``o``, how often ``(subjects[q],
        relations[q], o)`` was observed before the horizon.  Raises
        ``ValueError`` when an indexed answer is not an entity id below
        ``num_entities``.
        """
        subjects = np.asarray(subjects, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        counts = np.zeros((len(subjects), num_entities), dtype=dtype)
        if not len(subjects):
            return counts
        wanted, pair, objects = self._answers(subjects, relations,
                                              self._regions())
        if not len(objects):
            return counts
        if objects.min() < 0 or objects.max() >= num_entities:
            raise ValueError(f"historical answers span [{objects.min()}, "
                             f"{objects.max()}], not entity ids below "
                             f"num_entities={num_entities}")
        # Distinct (pair, object) entries with their multiplicities, in
        # pair-major order, then scattered to every query of each pair.
        keys = np.sort(pair * num_entities + objects)
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        multiplicity = np.diff(np.r_[first, len(keys)])
        entry_pair, entry_object = np.divmod(keys[first], num_entities)
        bounds = np.searchsorted(entry_pair, np.arange(len(wanted) + 1))
        query_pair = np.searchsorted(wanted, _pair_keys(subjects, relations))
        low, high = bounds[query_pair], bounds[query_pair + 1]
        entries = _ranges(low, high)
        counts[np.repeat(np.arange(len(subjects)), high - low),
               entry_object[entries]] = multiplicity[entries]
        return counts

    def fact_counts(self, subjects: np.ndarray, relations: np.ndarray,
                    objects: np.ndarray) -> np.ndarray:
        """How often each ``(subjects[q], relations[q], objects[q])`` was
        observed before the horizon, as an int64 array aligned with the
        queries: :meth:`answer_counts` looked up at one object per query,
        without materializing a row per query.
        """
        subjects, relations, objects = (
            np.asarray(col, dtype=np.int64).reshape(-1)
            for col in (subjects, relations, objects))
        if not len(subjects):
            return np.zeros(0, dtype=np.int64)
        wanted, pair, answers = self._answers(subjects, relations,
                                              self._regions())
        # One int64 key per (pair, object); the object axis is shifted to
        # start at 0 so any int32 ids pack without collisions.
        low = int(min(objects.min(), answers.min(initial=0)))
        width = int(max(objects.max(), answers.max(initial=0))) - low + 1
        keys = np.sort(pair * width + (answers - low))
        query = (np.searchsorted(wanted, _pair_keys(subjects, relations))
                 * width + (objects - low))
        return (np.searchsorted(keys, query, side="right")
                - np.searchsorted(keys, query, side="left"))

    def subgraph_for_queries(self, queries: Sequence[Tuple[int, int]]
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged static subgraph for a batch of (s, r) queries.

        Returns aligned ``(src, rel, dst)`` arrays: the distinct
        historical triples with a seed as subject or object, in
        lexicographic order.  Timestamps and repeats are dropped — the
        subgraph is a static KG (§III-D), and ``HistoryStore.subgraph``
        records why the model wants it deduplicated.
        """
        empty = np.empty(0, dtype=FACT_DTYPE)
        pairs = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
        if not self._cursor or not len(pairs):
            return empty, empty.copy(), empty.copy()
        subjects, relations = pairs[:, 0], pairs[:, 1]
        base_rows = min(self._cursor, self._base_size)
        tail = self._tail_region()
        # Seeds: the subjects (G'_g1) plus their historical answers (G'_g2).
        seeds = [subjects]
        if base_rows:
            seeds.append(self.triples.answers(subjects, relations,
                                              base_rows))
        if tail is not None:
            seeds.append(self._answers(subjects, relations, [tail])[2])
        seeds = _sorted_unique(np.concatenate(seeds))
        if base_rows:
            edges = self.triples.neighbourhood(seeds, base_rows,
                                               self._triple_marker)
            if tail is None:
                return edges
        else:
            edges = (empty, empty, empty)
        # Tail rows: unioned with the base's triples in one dedupe.
        rows = self._tail[tail[0].rows_of(seeds, tail[1])]
        src, rel, dst = (np.concatenate([base, rows[:, col]])
                         for col, base in enumerate(edges))
        if not len(src):
            return empty, empty.copy(), empty.copy()
        deduped = _dedupe_triples(src, rel, dst)
        if deduped is not None:
            return deduped
        rows = np.unique(np.stack([src, rel, dst], axis=1), axis=0)
        return rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2].copy()

    @property
    def num_indexed_facts(self) -> int:
        return self._cursor
