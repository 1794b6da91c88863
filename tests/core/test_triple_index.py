"""The §III-D triple index against plain-Python references.

:class:`repro.core.subgraph.TripleIndex` is checked section by section
against a dict-built derivation, and the subgraphs it serves against
``tests/core/reference_index.py``, bitwise, over facts that repeat
across timestamps with gapped entity ids, random horizons (an empty
history and single queries included) and streamed appends whose
triples are new or already in the base.  The sections must also come
out identical from ``write_store`` and from an in-memory store.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subgraph import GlobalHistoryIndex, TripleIndex
from repro.data import map_columns, write_store, write_store_facts
from repro.datasets import tiny
from repro.history import HistoryStore
from repro.tkg import QuadrupleSet
from repro.tkg.quadruples import FACT_DTYPE

from .reference_index import ReferenceHistoryIndex

# Gapped entity ids: most ids below the largest own no facts.
ENTITY_IDS = (0, 2, 3, 7, 12)
RELATIONS = 3

triple = st.tuples(st.sampled_from(ENTITY_IDS), st.integers(0, RELATIONS - 1),
                   st.sampled_from(ENTITY_IDS))
# A small pool of triples, each placed at several timestamps, so the
# same fact recurs across time.
histories = st.lists(triple, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.tuples(st.sampled_from(pool),
                                    st.integers(0, 5)), max_size=25))
queries = st.lists(st.tuples(st.sampled_from(ENTITY_IDS + (1, 13)),
                             st.integers(0, RELATIONS - 1)),
                   min_size=1, max_size=4)


def _rows(facts) -> np.ndarray:
    rows = np.array([(s, r, o, t) for (s, r, o), t in facts],
                    dtype=FACT_DTYPE).reshape(-1, 4)
    return QuadrupleSet(rows).array          # canonical, time-major


def _reference_sections(rows: np.ndarray) -> dict:
    """The six sections, built one triple at a time."""
    first = {}
    for row, (s, r, o, _t) in enumerate(rows.tolist()):
        first.setdefault((s, r, o), row)
    table = sorted(first)
    entities = max([max(s, o) for s, _, o in table], default=-1) + 1
    runs = []
    for entity in range(entities):
        runs.append([i for i, (s, _, _) in enumerate(table) if s == entity])
        runs.append([i for i, (_, _, o) in enumerate(table) if o == entity])
    column = lambda values: np.array(values, dtype=FACT_DTYPE)
    return {
        "triple_s": column([s for s, _, _ in table]),
        "triple_r": column([r for _, r, _ in table]),
        "triple_o": column([o for _, _, o in table]),
        "triple_row": column([first[key] for key in table]),
        "run_offsets": np.cumsum([0] + [len(run) for run in runs],
                                 dtype=np.int64),
        "run_triples": column([i for run in runs for i in run]),
    }


def _assert_sections_equal(got: TripleIndex, want: dict) -> None:
    for name in TripleIndex._fields:
        assert getattr(got, name).dtype == want[name].dtype, name
        np.testing.assert_array_equal(getattr(got, name), want[name],
                                      err_msg=name)


def _assert_same_subgraph(index, oracle, batch) -> None:
    for got, want in zip(index.subgraph_for_queries(batch),
                         oracle.subgraph_for_queries(batch,
                                                     deduplicate=True)):
        assert got.dtype == want.dtype == FACT_DTYPE
        np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(facts=histories, batch=queries,
       horizons=st.lists(st.integers(-1, 7), min_size=1, max_size=4))
def test_sections_and_subgraphs_match_the_references(facts, batch, horizons):
    rows = _rows(facts)
    index = GlobalHistoryIndex(QuadrupleSet(rows))
    _assert_sections_equal(index.triples, _reference_sections(rows))
    oracle = ReferenceHistoryIndex(rows)
    for horizon in sorted(horizons):
        index.advance_to(horizon)
        oracle.advance_to(horizon)
        _assert_same_subgraph(index, oracle, batch)
        _assert_same_subgraph(index, oracle, batch[:1])


@settings(max_examples=100, deadline=None)
@given(facts=histories, batch=queries,
       streamed=st.lists(st.tuples(st.booleans(), triple), max_size=8),
       adopt_columns=st.booleans())
def test_streamed_appends_union_with_the_base(facts, batch, streamed,
                                              adopt_columns):
    """Appended triples that are new, or repeats of base triples, join
    the base's triples in one deduplicated, lexicographic edge set."""
    rows = _rows(facts)
    if adopt_columns:
        index = GlobalHistoryIndex.from_columns(
            *(np.ascontiguousarray(rows[:, c]) for c in range(4)),
            triples=TripleIndex.derive(rows[:, 0], rows[:, 1], rows[:, 2]))
    else:
        index = GlobalHistoryIndex(QuadrupleSet(rows))
    oracle = ReferenceHistoryIndex(rows)
    last = int(rows[-1, 3]) if len(rows) else 0
    for step, (repeat, fresh) in enumerate(streamed):
        s, r, o = (tuple(rows[step % len(rows), :3]) if repeat and len(rows)
                   else fresh)
        chunk = np.array([(s, r, o, last + 1 + step // 2)], dtype=FACT_DTYPE)
        index.extend(chunk)
        oracle.extend(chunk)
    for horizon in (last, last + 1, last + 3, last + 10):
        index.advance_to(horizon)
        oracle.advance_to(horizon)
        _assert_same_subgraph(index, oracle, batch)


@settings(max_examples=40, deadline=None)
@given(facts=histories, relations=st.integers(RELATIONS, RELATIONS + 2))
def test_written_sections_equal_the_in_memory_derivation(facts, relations):
    quads = QuadrupleSet(_rows(facts))
    derived = GlobalHistoryIndex(quads.with_inverses(relations)).triples
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "history.hst")
        info = write_store_facts(path, quads, max(ENTITY_IDS) + 1, relations)
        _info, arrays = map_columns(path)
        assert info.num_triples == len(derived.triple_s)
        _assert_sections_equal(derived, arrays)


def test_write_store_and_from_dataset_agree(tmp_path):
    dataset = tiny()
    path = str(tmp_path / "tiny.hst")
    write_store(path, dataset)
    _info, arrays = map_columns(path)
    store = HistoryStore.from_dataset(dataset)
    _assert_sections_equal(store.index.triples, arrays)
    augmented = dataset.all_facts().with_inverses(dataset.num_relations)
    _assert_sections_equal(store.index.triples,
                           _reference_sections(augmented.array))


def test_an_answer_first_seen_at_the_cursor_is_not_history():
    """At horizon 1 the cursor is the first row of ``(0, 0, 2)``: 2 is
    not yet an answer of ``(0, 0)``, so ``(2, 1, 3)`` is not seeded."""
    rows = _rows([((0, 0, 1), 0), ((2, 1, 3), 0), ((0, 0, 2), 1)])
    index = GlobalHistoryIndex(QuadrupleSet(rows))
    index.advance_to(1)
    assert index.triples.triple_row.tolist() == [0, 2, 1]
    src, rel, dst = index.subgraph_for_queries([(0, 0)])
    assert list(zip(src.tolist(), rel.tolist(), dst.tolist())) \
        == [(0, 0, 1)]


def test_negative_entity_ids_are_refused():
    rows = QuadrupleSet.from_quads([(0, 0, -1, 0)]).array
    with pytest.raises(ValueError, match="negative entity id"):
        TripleIndex.derive(rows[:, 0], rows[:, 1], rows[:, 2])
