"""Numpy-backed storage for temporal facts (quadruples).

A fact is ``(subject, relation, object, time)``; a :class:`QuadrupleSet`
stores many facts as a single ``(n, 4)`` :data:`FACT_DTYPE` array so that
grouping by timestamp, inverse augmentation and filtering are all
vectorized.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

Quadruple = Tuple[int, int, int, int]

# Canonical storage dtype for fact arrays, end-to-end: entity/relation
# ids and snapshot indices all fit comfortably in int32 (GDELT, the
# largest published benchmark, has ~7.7k entities and ~2.3M facts), and
# halving the bytes per column halves both the resident fact buffers and
# the on-disk ``repro.data`` store files.
FACT_DTYPE = np.int32

_FACT_MIN = int(np.iinfo(FACT_DTYPE).min)
_FACT_MAX = int(np.iinfo(FACT_DTYPE).max)


class QuadrupleSet:
    """An immutable collection of (s, r, o, t) facts.

    Parameters
    ----------
    array:
        ``(n, 4)`` integer array with columns subject, relation, object,
        time.  A copy is taken, narrowed to :data:`FACT_DTYPE` (values
        must fit int32) and sorted by (time, subject, relation, object)
        so iteration order is canonical.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array)
        if arr.dtype != FACT_DTYPE:
            arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"expected (n, 4) array, got shape {arr.shape}")
        if arr.dtype != FACT_DTYPE and len(arr):
            low, high = int(arr.min()), int(arr.max())
            if low < _FACT_MIN or high > _FACT_MAX:
                raise ValueError(
                    f"fact values must fit {np.dtype(FACT_DTYPE).name} "
                    f"(got range [{low}, {high}])")
        order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0], arr[:, 3]))
        self.array = np.ascontiguousarray(arr[order], dtype=FACT_DTYPE)
        self.array.setflags(write=False)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_quads(cls, quads: Iterable[Sequence[int]]) -> "QuadrupleSet":
        quads = list(quads)
        if not quads:
            return cls(np.empty((0, 4), dtype=FACT_DTYPE))
        return cls(np.asarray(quads, dtype=np.int64))

    @classmethod
    def empty(cls) -> "QuadrupleSet":
        return cls(np.empty((0, 4), dtype=FACT_DTYPE))

    # -- basic protocol -------------------------------------------------------
    def __len__(self) -> int:
        return self.array.shape[0]

    def __iter__(self) -> Iterator[Quadruple]:
        for row in self.array:
            yield tuple(int(v) for v in row)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QuadrupleSet)
                and self.array.shape == other.array.shape
                and bool(np.array_equal(self.array, other.array)))

    def __repr__(self) -> str:
        return f"QuadrupleSet({len(self)} facts)"

    # -- columns ---------------------------------------------------------------
    @property
    def subjects(self) -> np.ndarray:
        return self.array[:, 0]

    @property
    def relations(self) -> np.ndarray:
        return self.array[:, 1]

    @property
    def objects(self) -> np.ndarray:
        return self.array[:, 2]

    @property
    def times(self) -> np.ndarray:
        return self.array[:, 3]

    # -- queries ---------------------------------------------------------------
    def timestamps(self) -> np.ndarray:
        """Distinct timestamps in ascending order."""
        return np.unique(self.times)

    def at_time(self, t: int) -> "QuadrupleSet":
        """Facts with timestamp exactly ``t``."""
        return QuadrupleSet(self.array[self.times == t])

    def before(self, t: int) -> "QuadrupleSet":
        """Facts strictly earlier than ``t``."""
        return QuadrupleSet(self.array[self.times < t])

    def between(self, start: int, stop: int) -> "QuadrupleSet":
        """Facts with ``start <= time < stop``."""
        mask = (self.times >= start) & (self.times < stop)
        return QuadrupleSet(self.array[mask])

    def group_by_time(self) -> Dict[int, np.ndarray]:
        """Map each timestamp to its ``(k, 4)`` sub-array (views, sorted)."""
        groups: Dict[int, np.ndarray] = {}
        if len(self) == 0:
            return groups
        times = self.times
        boundaries = np.flatnonzero(np.diff(times)) + 1
        chunks = np.split(self.array, boundaries)
        for chunk in chunks:
            groups[int(chunk[0, 3])] = chunk
        return groups

    def with_inverses(self, num_relations: int) -> "QuadrupleSet":
        """Append inverse facts ``(o, r + num_relations, s, t)``.

        ``num_relations`` is the count of *original* relations; inverse
        relation ids live in ``[num_relations, 2 * num_relations)``.
        """
        if len(self) == 0:
            return self
        inv = self.array[:, [2, 1, 0, 3]].copy()
        inv[:, 1] += num_relations
        return QuadrupleSet(np.concatenate([self.array, inv], axis=0))

    def unique(self) -> "QuadrupleSet":
        """Drop duplicate facts."""
        return QuadrupleSet(np.unique(self.array, axis=0))

    def concat(self, other: "QuadrupleSet") -> "QuadrupleSet":
        return QuadrupleSet(np.concatenate([self.array, other.array], axis=0))

    def max_ids(self) -> Tuple[int, int, int]:
        """Return (max entity id, max relation id, max time) or (-1,-1,-1)."""
        if len(self) == 0:
            return (-1, -1, -1)
        ent = int(max(self.subjects.max(), self.objects.max()))
        return ent, int(self.relations.max()), int(self.times.max())
