"""Reference oracle for :mod:`repro.tkg.filtering`.

The dict-of-frozensets filters the columnar ones replaced: every fact
becomes one python set entry under its ``(s, r, t)`` (or ``(s, r)``)
key, and ``mask_indices_for_batch`` walks the query rows one at a time.
Slow, but obviously correct, so the property tests hold the production
filters to it bitwise.  The memos of the production filters are left
out: the oracle recomputes every batch.
"""

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.tkg.quadruples import QuadrupleSet

_EMPTY = np.empty(0, dtype=np.int64)


def _mask_indices(objects_of, subjects: Sequence[int],
                  relations: Sequence[int], targets: Sequence[int]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Packed ``(rows, cols)``: row ``i`` holds the ascending
    ``objects_of(s_i, r_i) - {targets[i]}``."""
    per_row: List[np.ndarray] = []
    rows: List[int] = []
    lengths: List[int] = []
    for row, (s, r, o) in enumerate(zip(
            np.asarray(subjects, dtype=np.int64).tolist(),
            np.asarray(relations, dtype=np.int64).tolist(),
            np.asarray(targets, dtype=np.int64).tolist())):
        cols = np.array(sorted(objects_of(s, r) - {o}), dtype=np.int64)
        if len(cols):
            per_row.append(cols)
            rows.append(row)
            lengths.append(len(cols))
    if not per_row:
        return _EMPTY, _EMPTY.copy()
    return (np.repeat(np.asarray(rows, dtype=np.int64),
                      np.asarray(lengths, dtype=np.int64)),
            np.concatenate(per_row))


def _filtered_copy(scores: np.ndarray, others: FrozenSet[int]
                   ) -> np.ndarray:
    if not others:
        return scores
    filtered = scores.copy()
    filtered[list(others)] = -np.inf
    return filtered


class ReferenceTimeAwareFilter:
    """Index of true objects keyed by (subject, relation, time)."""

    def __init__(self, facts: Iterable[QuadrupleSet]):
        self._index: Dict[Tuple[int, int, int], FrozenSet[int]] = {}
        for quad_set in facts:
            self.add_facts(quad_set)

    def true_objects(self, s: int, r: int, t: int) -> FrozenSet[int]:
        """All objects o such that (s, r, o, t) is a known fact."""
        return self._index.get((s, r, t), frozenset())

    def mask_indices_for_batch(self, subjects: Sequence[int],
                               relations: Sequence[int], time: int,
                               targets: Sequence[int]
                               ) -> Tuple[np.ndarray, np.ndarray]:
        time = int(time)
        return _mask_indices(lambda s, r: self.true_objects(s, r, time),
                             subjects, relations, targets)

    def add_facts(self, facts) -> None:
        arr = facts.array if isinstance(facts, QuadrupleSet) else \
            np.asarray(facts, dtype=np.int64)
        fresh: Dict[Tuple[int, int, int], Set[int]] = defaultdict(set)
        for s, r, o, t in arr:
            fresh[(int(s), int(r), int(t))].add(int(o))
        for key, objs in fresh.items():
            self._index[key] = self._index.get(key, frozenset()) | objs

    def filter_scores(self, scores: np.ndarray, s: int, r: int, t: int,
                      target: int) -> np.ndarray:
        return _filtered_copy(scores, self.true_objects(s, r, t) - {target})


class ReferenceStaticFilter:
    """Index of true objects keyed by (subject, relation) over all time."""

    def __init__(self, facts: Iterable[QuadrupleSet]):
        index: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
        for quad_set in facts:
            for s, r, o, _ in quad_set.array:
                index[(int(s), int(r))].add(int(o))
        self._index: Dict[Tuple[int, int], FrozenSet[int]] = {
            key: frozenset(vals) for key, vals in index.items()}

    def true_objects(self, s: int, r: int) -> FrozenSet[int]:
        return self._index.get((s, r), frozenset())

    def mask_indices_for_batch(self, subjects: Sequence[int],
                               relations: Sequence[int], time: int,
                               targets: Sequence[int]
                               ) -> Tuple[np.ndarray, np.ndarray]:
        return _mask_indices(self.true_objects, subjects, relations,
                             targets)

    def filter_scores(self, scores: np.ndarray, s: int, r: int,
                      target: int) -> np.ndarray:
        return _filtered_copy(scores, self.true_objects(s, r) - {target})
