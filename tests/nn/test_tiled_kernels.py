"""Tiled no-grad kernels: the same bits as one whole pass, bounded memory.

The no-grad LogCL pass runs its Eq. 12 message pass over edge tiles and
its Eq. 18 score product over row blocks, both cut by
``repro.nn.ops.tile_bounds``.  These tests pin the two facts that make
that safe — a tile's matmul rows equal the same rows of the whole
product, and a scatter split into consecutive slices equals one scatter
— and that no per-edge array outlives its tile.  They also pin that the
scatter and count kernels memoize nothing, so many distinct edge sets
leave no memory behind.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.interface import ScoreFactors
from repro.nn import no_grad, ops
from repro.nn.ops import (MIN_TILE_ROWS, TILE_BYTES, _convtranse_features,
                          _scatter_add_rows, convtranse_features,
                          degree_norm, fused_relational_pass, segment_counts,
                          tile_bounds)
from repro.nn.tensor import Tensor


def _float32(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def _sequential_scatter(idx, values, num_segments):
    """Order-defined oracle: bucket ``idx[e]`` gains ``values[e]`` for
    ``e = 0, 1, ...``, one addition at a time, onto zeros."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    for e, i in enumerate(idx):
        out[i] += values[e]
    return out


class TestTileBounds:
    @pytest.mark.parametrize("num_rows", [0, 1, 63, 64, 65, 129, 432, 5000])
    @pytest.mark.parametrize("row_bytes", [1, 128, 28_800, TILE_BYTES * 2])
    def test_even_tiles_within_budget(self, num_rows, row_bytes):
        bounds = tile_bounds(num_rows, row_bytes)
        sizes = np.diff(bounds)
        cap = max(MIN_TILE_ROWS, TILE_BYTES // row_bytes)
        assert bounds[0] == 0 and bounds[-1] == num_rows
        assert (sizes >= 0).all() and (sizes <= cap).all()
        assert sizes.max() - sizes.min() <= 1
        if len(sizes) > 1:
            # Never a short tail: a one-row block would go to gemv.
            assert sizes.min() >= cap // 2 >= MIN_TILE_ROWS // 2

    def test_one_tile_when_it_fits(self):
        assert tile_bounds(432, 100).tolist() == [0, 432]
        assert tile_bounds(0, 128).tolist() == [0, 0]


class TestRowBlockedProducts:
    """Row blocks of a matmul are bitwise the rows of the whole product."""

    @pytest.mark.parametrize("num_q", [1, 2, 65, 129, 300, 432])
    @pytest.mark.parametrize("num_e,dim", [(7200, 32), (3000, 64)])
    def test_score_blocks_equal_whole_product(self, num_q, num_e, dim):
        rng = np.random.default_rng(num_q + dim)
        factors = ScoreFactors(_float32(rng, (num_q, dim)),
                               _float32(rng, (num_e, dim)))
        whole = factors.features @ factors.candidates.T
        bounds = tile_bounds(num_q, num_e * 4)
        cap = max(MIN_TILE_ROWS, TILE_BYTES // (num_e * 4))
        assert (len(bounds) > 2) == (num_q > cap)   # binds past one tile
        # A fixed 64-row cut would leave a ragged one-row block at 65 or
        # 129 queries; the even split never does.
        assert num_q == 1 or np.diff(bounds).min() > 1
        for start, stop in zip(bounds[:-1], bounds[1:]):
            block = factors.rows(start, stop)
            assert _bits(block).tobytes() == _bits(whole[start:stop]).tobytes()
        # A one-row batch is its own one-row block.
        if num_q == 1:
            assert np.array_equal(_bits(factors.rows(0, 1)), _bits(whole))

    def test_ragged_last_block(self):
        rng = np.random.default_rng(3)
        factors = ScoreFactors(_float32(rng, (201, 32)),
                               _float32(rng, (7200, 32)))
        whole = factors.features @ factors.candidates.T
        bounds = tile_bounds(201, 7200 * 4)
        assert sorted(set(np.diff(bounds))) == [50, 51]
        got = np.concatenate([factors.rows(a, b)
                              for a, b in zip(bounds[:-1], bounds[1:])])
        assert np.array_equal(_bits(got), _bits(whole))

    @pytest.mark.parametrize("num_edges,dim", [(20_000, 32), (9_000, 64)])
    def test_edge_tile_messages_equal_whole_product(self, num_edges, dim):
        rng = np.random.default_rng(dim)
        composed = _float32(rng, (num_edges, dim))
        weight = _float32(rng, (dim, dim))
        whole = composed @ weight
        bounds = tile_bounds(num_edges, dim * 4)
        assert len(bounds) > 2
        for start, stop in zip(bounds[:-1], bounds[1:]):
            tile = composed[start:stop] @ weight
            assert np.array_equal(_bits(tile), _bits(whole[start:stop]))


class TestRowBlockedConvTransE:
    """Eq. 18's inference features run in row blocks, each query row
    once, and equal the whole batch's bitwise."""

    CHANNELS, WIDTH = 50, 3

    def _params(self, rng, dim):
        k, kw = self.CHANNELS, self.WIDTH
        return (Tensor(_float32(rng, (k, 2, kw))), Tensor(_float32(rng, (k,))),
                Tensor(_float32(rng, (k * dim, dim))),
                Tensor(_float32(rng, (dim,))))

    @pytest.mark.parametrize("num_q", [1, 65, 163, 164, 401, 432])
    @pytest.mark.parametrize("indexed", [True, False])
    def test_blocks_equal_the_whole_batch(self, num_q, indexed):
        dim = 32
        rng = np.random.default_rng(num_q)
        params = self._params(rng, dim)
        if indexed:
            entities = Tensor(_float32(rng, (700, dim)))
            relations = Tensor(_float32(rng, (20, dim)))
            s_idx = rng.integers(0, 700, size=num_q)
            r_idx = rng.integers(0, 20, size=num_q)
        else:
            entities = Tensor(_float32(rng, (num_q, dim)))
            relations = Tensor(_float32(rng, (num_q, dim)))
            s_idx = r_idx = None
        bounds = tile_bounds(num_q, self.CHANNELS * dim * 4)
        if num_q == 401:                 # ragged: 133, 134 and 134 rows
            assert sorted(set(np.diff(bounds))) == [133, 134]
        assert (len(bounds) > 2) == (num_q > 163)
        whole = _convtranse_features(
            entities.data, relations.data, s_idx, r_idx,
            *(p.data for p in params), 0.0, None)[0]
        got = convtranse_features(entities, relations, *params,
                                  subject_index=s_idx, relation_index=r_idx)
        assert got.shape == whole.shape and got.dtype == whole.dtype
        assert np.array_equal(_bits(got), _bits(whole))

    def test_peak_stays_within_the_tile_budget(self):
        dim, num_q = 32, 4096
        rng = np.random.default_rng(7)
        params = self._params(rng, dim)
        entities = Tensor(_float32(rng, (700, dim)))
        relations = Tensor(_float32(rng, (20, dim)))
        s_idx = rng.integers(0, 700, size=num_q)
        r_idx = rng.integers(0, 20, size=num_q)
        convtranse_features(entities, relations, *params,
                            subject_index=s_idx, relation_index=r_idx)
        gc.collect()
        tracemalloc.start()
        try:
            convtranse_features(entities, relations, *params,
                                subject_index=s_idx, relation_index=r_idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        feature_map = num_q * self.CHANNELS * dim * 4      # 26 MB whole
        # A block's conv output and feature map, plus the (Q, d) output.
        assert peak < 3 * TILE_BYTES + 2 * num_q * dim * 4
        assert peak < feature_map / 4


class TestTiledScatter:
    def _edges(self, rng, num_edges, num_nodes, tile):
        dst = rng.integers(0, num_nodes, size=num_edges)
        # A destination whose in-edges straddle the first tile boundary.
        dst[tile - 3:tile + 3] = 5
        # A hub with more in-edges than one tile holds.
        dst[rng.choice(num_edges, size=tile + 100, replace=False)] = 11
        return dst

    def test_slices_equal_one_scatter_and_the_sequential_oracle(self):
        rng = np.random.default_rng(0)
        num_edges, num_nodes, tile = 2_000, 40, 256
        dst = self._edges(rng, num_edges, num_nodes, tile)
        values = _float32(rng, (num_edges, 8))
        whole = _scatter_add_rows(dst, values, num_nodes)
        tiled = None
        for start in range(0, num_edges, tile):
            tiled = _scatter_add_rows(dst[start:start + tile],
                                      values[start:start + tile],
                                      num_nodes, out=tiled)
        oracle = _sequential_scatter(dst, values, num_nodes)
        assert np.array_equal(_bits(whole), _bits(oracle))
        assert np.array_equal(_bits(tiled), _bits(oracle))

    def test_one_dimensional_values_and_index_dtypes(self):
        rng = np.random.default_rng(1)
        dst = rng.integers(0, 9, size=500)
        values = _float32(rng, 500)
        oracle = _sequential_scatter(dst, values, 9)
        for idx in (dst, dst.astype(np.int32), dst.astype(np.uint16)):
            assert np.array_equal(_scatter_add_rows(idx, values, 9), oracle)

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_out_of_range_index_raises(self, bad):
        with pytest.raises(IndexError):
            _scatter_add_rows(np.array([0, bad]), np.ones((2, 3)), 9)


class TestTiledMessagePass:
    @staticmethod
    def _graph(rng, num_nodes=500, num_edges=40_000, num_rel=7, dim=32):
        h = Tensor(_float32(rng, (num_nodes, dim)), requires_grad=True)
        r = Tensor(_float32(rng, (num_rel, dim)), requires_grad=True)
        w_msg = Tensor(_float32(rng, (dim, dim)), requires_grad=True)
        w_self = Tensor(_float32(rng, (dim, dim)), requires_grad=True)
        src = rng.integers(0, num_nodes, size=num_edges)
        rel = rng.integers(0, num_rel, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        dst[:12_000] = 3                  # a hub spanning two tiles
        return (h, r, w_msg, w_self, src, rel, dst, num_nodes)

    @pytest.mark.parametrize("composition", ["add", "sub", "mult"])
    def test_no_grad_tiles_equal_the_recorded_single_tile(self, composition):
        rng = np.random.default_rng(2)
        args = self._graph(rng)
        assert len(tile_bounds(len(args[4]), 32 * 4)) > 3
        recorded = fused_relational_pass(*args, composition=composition)
        assert recorded.requires_grad      # one tile: backward needs all
        with no_grad():
            tiled = fused_relational_pass(*args, composition=composition)
        assert np.array_equal(_bits(tiled.data), _bits(recorded.data))

    def test_no_edges(self):
        rng = np.random.default_rng(4)
        h, r, w_msg, w_self, *_ = self._graph(rng, num_edges=0)
        empty = np.zeros(0, dtype=np.int64)
        with no_grad():
            out = fused_relational_pass(h, r, w_msg, w_self, empty, empty,
                                        empty, h.shape[0], activation=False)
        np.testing.assert_array_equal(out.data, h.data @ w_self.data)

    def test_no_per_edge_array_outlives_its_tile(self):
        rng = np.random.default_rng(5)
        args = self._graph(rng, num_edges=120_000)
        num_nodes, dim = args[0].shape
        edge_array = 120_000 * dim * 4
        with no_grad():
            fused_relational_pass(*args)        # warm the code paths
            gc.collect()
            tracemalloc.start()
            try:
                fused_relational_pass(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Three tile-sized arrays (gather, message, scatter operand), a
        # few (N, d) outputs and the E-sized index slices — far below
        # one (E, d) array.
        assert peak < 3 * TILE_BYTES + 6 * num_nodes * dim * 4 + 120_000 * 8
        assert peak < edge_array


class TestNoKernelMemo:
    """The scatter and count kernels keep nothing between calls."""

    def test_distinct_large_edge_sets_retain_nothing(self):
        rng = np.random.default_rng(6)
        num_nodes = 7_200
        values = _float32(rng, (50_000, 32))
        for _ in range(2):             # warm numpy/scipy internals
            idx = rng.integers(0, num_nodes, size=50_000)
            _scatter_add_rows(idx, values, num_nodes)
            degree_norm(idx, num_nodes, np.float32)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(40):        # 40 distinct 50k-edge sets
                idx = rng.integers(0, num_nodes, size=50_000)
                _scatter_add_rows(idx, values, num_nodes)
                segment_counts(idx, num_nodes)
                degree_norm(idx, num_nodes, np.float32)
            del idx
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # One edge set's key alone would be 400 kB.
        assert retained < 64 * 1024
        assert not any(name.endswith("_CACHE") for name in vars(ops))
