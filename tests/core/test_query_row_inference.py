"""Query-row LogCL inference against the full-|E| reference composition.

At inference the model produces only the unique query subjects' rows of
the local and global encodings (the global one from their L-hop
receptive field) and takes every other candidate row from the
query-free local matrix cached in the context.  These tests hold that
path to :mod:`reference_inference`, today's all-rows composition.

Equality bound: the non-subject candidate rows are bitwise equal (they
are the same rows of the same full-matrix computation).  Subject rows
come from products over fewer rows, and BLAS picks its kernel by shape
(e.g. a 4-row block kernel versus a remainder kernel for the Eq. 10 and
Eq. 13 score products), so they may differ in the last bit.  Scores
therefore agree to ``ULP_BOUND`` units in the last place of the batch's
largest score magnitude (at least 1).  Measured: most batches are
bitwise equal, the worst is 1 ulp on ``tiny`` and ``icews14_like`` and
1.75 ulp at 7,200 entities, dim 32 (OpenBLAS 0.3.31, x86-64).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogCL, LogCLConfig
from repro.core.global_encoder import receptive_field
from repro.datasets import tiny
from repro.nn import no_grad
from repro.nn.dtypes import float_precision
from repro.nn.functional import multilabel_soft_loss
from repro.training import HistoryContext, iter_timestep_batches

from .reference_inference import reference_encode_queries, reference_predict

ULP_BOUND = 8

CONFIGS = {
    "default": {},
    "global_layers_2": {"global_layers": 2},
    "global_layers_3": {"global_layers": 3},
    "compgcn": {"aggregator": "compgcn-sub", "global_layers": 2},
    "kbgat": {"aggregator": "kbgat", "global_layers": 2},
    "fused_candidates": {"candidate_source": "fused"},
    "unnormalized": {"normalize_encodings": False},
    "no_entity_attention": {"use_entity_attention": False},
    "dot_attention": {"attention_score": "dot"},
    "local_only": {"use_global": False},
    "global_only": {"use_local": False},
}


@pytest.fixture(scope="module")
def dataset():
    return tiny()


def _model(dataset, **overrides):
    config = dict(dim=16, time_dim=4, window=2, local_layers=1,
                  global_layers=1, decoder_kernels=8, seed=0)
    config.update(overrides)
    return LogCL(LogCLConfig(**config), dataset.num_entities,
                 dataset.num_relations).eval()


def _batches(dataset, split="valid"):
    return list(iter_timestep_batches(dataset, split,
                                      HistoryContext(dataset, window=2)))


def _assert_close(got, want):
    scale = float(np.abs(want).max()) if want.size else 0.0
    bound = ULP_BOUND * np.finfo(want.dtype).eps * max(scale, 1.0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= bound


def _predict(model, batch, subjects=None, relations=None, edges=None):
    subjects = batch.subjects if subjects is None else subjects
    relations = batch.relations if relations is None else relations
    edges = batch.global_edges if edges is None else edges
    got = model.predict(batch.snapshots, batch.time, subjects, relations,
                        edges)
    want = reference_predict(model, batch.snapshots, batch.time, subjects,
                             relations, edges)
    return got, want


class TestMatchesReference:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_predict(self, dataset, name):
        model = _model(dataset, **CONFIGS[name])
        for batch in _batches(dataset):
            _assert_close(*_predict(model, batch))

    def test_float64(self, dataset):
        with float_precision("float64"):
            model = _model(dataset, global_layers=2)
            for batch in _batches(dataset)[:4]:
                got, want = _predict(model, batch)
                assert got.dtype == np.float64
                _assert_close(got, want)

    @pytest.mark.parametrize("name", ["default", "global_layers_3"])
    def test_duplicate_subjects(self, dataset, name):
        model = _model(dataset, **CONFIGS[name])
        batch = _batches(dataset)[0]
        s, r = batch.subjects, batch.relations
        # The same subject with several relations, and one (s, r) twice.
        subjects = np.concatenate([s[:3], s[:1], s[:1], s[:3]])
        relations = np.concatenate([r[:3], r[:1], (r[:1] + 1) % 10, r[:3]])
        _assert_close(*_predict(model, batch, subjects, relations))

    @pytest.mark.parametrize("name", ["default", "global_layers_2",
                                      "compgcn", "no_entity_attention"])
    def test_subjects_without_in_edges(self, dataset, name):
        model = _model(dataset, **CONFIGS[name])
        batch = _batches(dataset)[0]
        src, rel, dst = batch.global_edges
        subjects = batch.subjects
        keep = ~np.isin(dst, subjects)
        edges = (src[keep], rel[keep], dst[keep])
        assert len(edges[0]) > 0
        assert not np.isin(edges[2], subjects).any()
        _assert_close(*_predict(model, batch, edges=edges))

    @pytest.mark.parametrize("name", ["default", "global_layers_3",
                                      "kbgat"])
    def test_empty_subgraph(self, dataset, name):
        model = _model(dataset, **CONFIGS[name])
        batch = _batches(dataset)[0]
        none = np.zeros(0, dtype=batch.global_edges[0].dtype)
        _assert_close(*_predict(model, batch, edges=(none, none, none)))


class TestQueryRows:
    def test_candidates_reuse_query_free_rows(self, dataset):
        model = _model(dataset, global_layers=2)
        batch = _batches(dataset)[1]
        with no_grad():
            context = model.precompute_context(batch.snapshots, batch.time)
            free = context["local_free"].data.copy()
            encoded = model.encode_queries(context, batch.subjects,
                                           batch.relations,
                                           batch.global_edges)
            reference = reference_encode_queries(
                model, context, batch.subjects, batch.relations,
                batch.global_edges)
        rows = np.unique(batch.subjects)
        assert encoded["local"].entities.shape[0] == len(rows)
        assert encoded["global"].entities.shape[0] == len(rows)
        assert encoded["fused"].shape[0] == len(rows)
        others = np.setdiff1d(np.arange(dataset.num_entities), rows)
        np.testing.assert_array_equal(
            encoded["candidates"].data[others],
            reference["candidates"].data[others])
        np.testing.assert_array_equal(free[others],
                                      encoded["candidates"].data[others])
        # Copy-on-write: the cached matrix is shared by later batches.
        np.testing.assert_array_equal(context["local_free"].data, free)

    def test_fused_candidates_keep_all_rows(self, dataset):
        model = _model(dataset, candidate_source="fused")
        batch = _batches(dataset)[0]
        with no_grad():
            context = model.precompute_context(batch.snapshots, batch.time)
            encoded = model.encode_queries(context, batch.subjects,
                                           batch.relations,
                                           batch.global_edges)
        assert context["local_free"] is None
        assert encoded["global"].entities.shape[0] == dataset.num_entities
        assert encoded["fused"].shape[0] == dataset.num_entities

    def test_training_forward_is_the_reference(self, dataset):
        model = _model(dataset, global_layers=2).train()
        twin = copy.deepcopy(model)  # same weights and RNG streams
        batch = _batches(dataset, "train")[3]
        context = model.precompute_context(batch.snapshots, batch.time)
        assert context["local_free"] is None
        encoded = model.encode_queries(context, batch.subjects,
                                       batch.relations, batch.global_edges)
        assert encoded["local"].entities.shape[0] == dataset.num_entities
        assert encoded["global"].entities.shape[0] == dataset.num_entities
        labels = np.eye(dataset.num_entities,
                        dtype=np.float32)[batch.objects]
        loss = multilabel_soft_loss(
            model.score_queries(encoded, batch.subjects, batch.relations),
            labels)
        twin_context = twin.precompute_context(batch.snapshots, batch.time)
        reference = reference_encode_queries(
            twin, twin_context, batch.subjects, batch.relations,
            batch.global_edges)
        twin_loss = multilabel_soft_loss(
            twin.score_queries(reference, batch.subjects, batch.relations),
            labels)
        assert float(loss.data) == float(twin_loss.data)


graphs = st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=25),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
    st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_receptive_field_matches_breadth_first_search(case):
    num_nodes, edge_list, seeds, hops = case
    src = np.array([e[0] for e in edge_list], dtype=np.int32)
    dst = np.array([e[1] for e in edge_list], dtype=np.int32)
    rel = np.arange(len(edge_list), dtype=np.int32)
    rows = np.unique(seeds)
    levels = [set(rows.tolist())]
    for _ in range(hops):
        levels.append(levels[-1] | {s for s, d in edge_list
                                    if d in levels[-1]})
    nodes, (bsrc, brel, bdst) = receptive_field(rows, src, rel, dst, hops,
                                                num_nodes)
    assert nodes.tolist() == sorted(levels[hops])
    kept = [i for i, (_, d) in enumerate(edge_list) if d in levels[hops - 1]]
    assert brel.tolist() == kept
    assert nodes[bsrc].tolist() == src[kept].tolist()
    assert nodes[bdst].tolist() == dst[kept].tolist()
