"""Reference oracle for :class:`repro.core.subgraph.GlobalHistoryIndex`.

The straightforward dict-of-lists index the columnar CSR index replaced:
``advance_to`` walks every newly revealed fact in Python, appending its
row id under both entities and counting ``(s, r) -> o`` answers in
first-seen order.  Slow, but obviously correct, so the property tests
hold the production index to it bitwise.
"""

from collections import defaultdict
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.tkg.quadruples import FACT_DTYPE


class ReferenceHistoryIndex:
    """Same public surface as ``GlobalHistoryIndex``, one fact at a time."""

    def __init__(self, rows: np.ndarray):
        self._rows = np.asarray(rows, dtype=FACT_DTYPE).reshape(-1, 4).copy()
        self.rewind()

    def extend(self, facts: np.ndarray) -> None:
        arr = np.asarray(facts, dtype=FACT_DTYPE).reshape(-1, 4)
        arr = arr[np.argsort(arr[:, 3], kind="stable")]
        if len(arr) and len(self._rows) and arr[0, 3] < self._rows[-1, 3]:
            raise ValueError("facts predate the stored history")
        self._rows = np.concatenate([self._rows, arr])

    def rewind(self) -> None:
        self._cursor = 0
        self.horizon = -1
        self._rows_of_entity: Dict[int, List[int]] = defaultdict(list)
        self._counts: Dict[Tuple[int, int], Dict[int, int]] = defaultdict(dict)

    def advance_to(self, query_time: int) -> None:
        if query_time < self.horizon:
            raise ValueError("index can only advance forward in time")
        end = int(np.searchsorted(self._rows[:, 3], query_time, side="left"))
        for row in range(self._cursor, end):
            s, r, o, _ = (int(v) for v in self._rows[row])
            self._rows_of_entity[s].append(row)
            self._rows_of_entity[o].append(row)
            counts = self._counts[(s, r)]
            counts[o] = counts.get(o, 0) + 1
        self._cursor = end
        self.horizon = query_time

    @property
    def num_indexed_facts(self) -> int:
        return self._cursor

    def facts_since(self, t: int) -> np.ndarray:
        start = int(np.searchsorted(self._rows[:, 3], t, side="left"))
        return self._rows[min(start, self._cursor):self._cursor]

    def historical_answers(self, subject: int, relation: int) -> Set[int]:
        return set(self._counts.get((subject, relation), ()))

    def answer_counts(self, subject: int, relation: int) -> Dict[int, int]:
        return dict(self._counts.get((subject, relation), {}))

    def subgraph_for_queries(self, queries, deduplicate: bool = False
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        seeds: Set[int] = set()
        for subject, relation in queries:
            seeds.add(int(subject))
            seeds.update(self.historical_answers(int(subject), int(relation)))
        row_ids: Set[int] = set()
        for entity in seeds:
            row_ids.update(self._rows_of_entity.get(entity, ()))
        triples = self._rows[sorted(row_ids)][:, :3]
        if deduplicate and len(triples):
            triples = np.unique(triples, axis=0)
        return (triples[:, 0].copy(), triples[:, 1].copy(),
                triples[:, 2].copy())
