"""Unit tests for LogCL components: time encoding, attention, contrast,
decoder, local/global encoders."""

import numpy as np
import pytest

from repro.core.attention import (GlobalEntityAwareAttention,
                                  LocalEntityAwareAttention, QueryKeyBuilder)
from repro.core.contrast import QueryContrastModule
from repro.core.decoder import ConvTransE
from repro.core.global_encoder import GlobalHistoryEncoder
from repro.core.local_encoder import LocalRecurrentEncoder
from repro.core.time_encoding import TimeEncoding
from repro.graph import build_aggregator
from repro.nn import Tensor
from repro.tkg.dataset import Snapshot
from repro.utils.seeding import seeded_rng


def rnd(shape, seed=0, grad=False):
    return Tensor(seeded_rng(seed).standard_normal(shape).astype(np.float32),
                  requires_grad=grad)


class TestTimeEncoding:
    def test_shapes(self):
        enc = TimeEncoding(16, 8, seeded_rng(0))
        h = rnd((5, 16))
        out = enc(h, interval=3)
        assert out.shape == (5, 16)

    def test_different_intervals_differ(self):
        enc = TimeEncoding(16, 8, seeded_rng(0))
        h = rnd((5, 16))
        a = enc(h, 1).data
        b = enc(h, 5).data
        assert not np.allclose(a, b)

    def test_interval_feature_bounded(self):
        enc = TimeEncoding(16, 8, seeded_rng(0))
        # zero entities and W_0 = [0; I] expose phi(d) as the output
        enc.w_fuse.data[:] = 0.0
        enc.w_fuse.data[16:, :8] = np.eye(8, dtype=np.float32)
        out = enc(Tensor(np.zeros((5, 16), dtype=np.float32)), 123).data
        phi = out[:, :8]
        np.testing.assert_array_equal(phi, np.broadcast_to(phi[0], (5, 8)))
        assert np.all(np.abs(phi) <= 1.0 + 1e-6)
        assert np.any(np.abs(phi) > 0.1)

    def test_gradient_reaches_frequencies(self):
        enc = TimeEncoding(8, 4, seeded_rng(0))
        h = rnd((3, 8))
        enc(h, 2).sum().backward()
        assert enc.w_t.grad is not None


class TestQueryKeyBuilder:
    def test_entities_without_queries_get_zero_context(self):
        builder = QueryKeyBuilder(8, seeded_rng(0))
        base = rnd((4, 8))
        rels = rnd((3, 8), seed=1)
        # only entity 2 has a query
        key = builder(base, rels, np.array([2]), np.array([1]))
        assert key.shape == (4, 8)
        # entity 0's key depends only on its base row (zero rel context):
        # recompute with different query relation — rows 0 unchanged
        key2 = builder(base, rels, np.array([2]), np.array([0]))
        np.testing.assert_allclose(key.data[0], key2.data[0], atol=1e-6)
        assert not np.allclose(key.data[2], key2.data[2])

    def test_multiple_queries_same_subject_are_averaged(self):
        builder = QueryKeyBuilder(8, seeded_rng(0))
        base = rnd((3, 8))
        rels = rnd((4, 8), seed=1)
        key_mean = builder(base, rels, np.array([1, 1]), np.array([0, 2]))
        # average of the two single-relation contexts
        key_a = builder(base, rels, np.array([1]), np.array([0]))
        key_b = builder(base, rels, np.array([1]), np.array([2]))
        np.testing.assert_allclose(key_mean.data[1],
                                   (key_a.data[1] + key_b.data[1]) / 2,
                                   atol=1e-5)

    def test_empty_query_batch(self):
        builder = QueryKeyBuilder(8, seeded_rng(0))
        key = builder(rnd((3, 8)), rnd((2, 8), 1),
                      np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert key.shape == (3, 8)


class TestLocalAttention:
    def test_no_snapshots_returns_evolved(self):
        attn = LocalEntityAwareAttention(8, seeded_rng(0))
        evolved = rnd((4, 8))
        out = attn(evolved, [], rnd((4, 8), 1))
        assert out is evolved

    def test_output_shape(self):
        attn = LocalEntityAwareAttention(8, seeded_rng(0))
        out = attn(rnd((4, 8)), [rnd((4, 8), i) for i in range(3)],
                   rnd((4, 8), 9))
        assert out.shape == (4, 8)

    def test_attention_prefers_relevant_snapshot(self):
        """A snapshot aggregate aligned with the query key should receive
        more weight than an anti-aligned one."""
        rng = seeded_rng(0)
        attn = LocalEntityAwareAttention(4, rng)
        attn.w5.data = np.ones((4, 1), dtype=np.float32)
        key = Tensor(np.ones((2, 4), dtype=np.float32))
        relevant = Tensor(np.ones((2, 4), dtype=np.float32) * 2)
        irrelevant = Tensor(np.ones((2, 4), dtype=np.float32) * -2)
        evolved = Tensor(np.zeros((2, 4), dtype=np.float32))
        out = attn(evolved, [relevant, irrelevant], key).data
        # output dominated by `relevant` (positive values)
        assert np.all(out > 0)


class TestGlobalAttention:
    def test_gate_bounded(self):
        attn = GlobalEntityAwareAttention(8, seeded_rng(0))
        agg = rnd((5, 8))
        out = attn(agg, rnd((5, 8), 1))
        ratio = out.data / np.where(agg.data == 0, 1, agg.data)
        assert out.shape == (5, 8)
        # each row scaled by a factor in (0, 1)
        row_ratio = np.abs(out.data).sum(1) / np.abs(agg.data).sum(1)
        assert np.all(row_ratio < 1.0) and np.all(row_ratio > 0.0)


class TestContrastModule:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            QueryContrastModule(8, seeded_rng(0), strategies=("xx",))

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            QueryContrastModule(8, seeded_rng(0), temperature=0.0)

    @staticmethod
    def _views(seed=0, queries=6):
        """(local_agg, relations, global_agg, relations0, subjects, rels)."""
        return (rnd((queries, 8), seed), rnd((4, 8), seed + 1),
                rnd((queries, 8), seed + 2), rnd((4, 8), seed + 3),
                np.arange(queries), np.arange(queries) % 4)

    def test_projections_on_unit_sphere(self):
        """Scaling both heads' outputs leaves L_cl unchanged: the views
        are normalized onto the unit sphere before the InfoNCE terms."""
        module = QueryContrastModule(8, seeded_rng(0))
        views = self._views()
        before = float(module(*views).data)
        for head in (module.local_head, module.global_head):
            out_layer = head.net.layers[-1]
            out_layer.weight.data *= 10.0
            out_layer.bias.data *= 10.0
        assert float(module(*views).data) == pytest.approx(before, rel=1e-5)

    def test_single_query_loss_is_zero(self):
        module = QueryContrastModule(8, seeded_rng(0))
        loss = module(rnd((1, 8)), rnd((4, 8), 1), rnd((1, 8), 2),
                      rnd((4, 8), 3), np.array([0]), np.array([1]))
        assert float(loss.data) == 0.0

    def test_aligned_views_give_lower_loss(self):
        module = QueryContrastModule(8, seeded_rng(0), temperature=0.1)
        for local_p, global_p in zip(module.local_head.parameters(),
                                     module.global_head.parameters()):
            global_p.data = local_p.data.copy()      # one shared head
        local, rels, _, _, subjects, relations = self._views()
        rng = seeded_rng(3)
        near = Tensor(local.data + 0.01 * rng.standard_normal(
            local.shape).astype(np.float32))
        aligned = module(local, rels, near, rels, subjects, relations)
        random = module(local, rels, rnd(local.shape, 9), rels, subjects,
                        relations)
        assert float(aligned.data) < float(random.data)

    def test_strategy_subsets(self):
        views = self._views(seed=3, queries=4)
        for strat in ("lg", "gl", "ll", "gg"):
            module = QueryContrastModule(8, seeded_rng(0), strategies=(strat,))
            loss = module(*views)
            assert np.isfinite(float(loss.data))


class TestConvTransE:
    def test_score_shape(self):
        dec = ConvTransE(16, seeded_rng(0), num_kernels=8)
        scores = dec(rnd((5, 16)), rnd((5, 16), 1), rnd((30, 16), 2))
        assert scores.shape == (5, 30)

    def test_gradients_flow(self):
        dec = ConvTransE(8, seeded_rng(0), num_kernels=4)
        dec.eval()
        subj = rnd((3, 8), grad=True)
        rel = rnd((3, 8), 1, grad=True)
        cand = rnd((10, 8), 2, grad=True)
        dec(subj, rel, cand).sum().backward()
        for t in (subj, rel, cand):
            assert t.grad is not None
        for p in dec.parameters():
            assert p.grad is not None

    def test_eval_deterministic(self):
        dec = ConvTransE(8, seeded_rng(0), num_kernels=4)
        dec.eval()
        args = (rnd((3, 8)), rnd((3, 8), 1), rnd((10, 8), 2))
        np.testing.assert_array_equal(dec(*args).data, dec(*args).data)


def make_snapshots():
    s0 = Snapshot(time=0, src=np.array([0, 1]), rel=np.array([0, 1]),
                  dst=np.array([1, 2]))
    s1 = Snapshot(time=1, src=np.array([2, 0]), rel=np.array([1, 0]),
                  dst=np.array([0, 3]))
    return [s0, s1]


class TestLocalEncoder:
    def _encoder(self, use_attention=True):
        rng = seeded_rng(0)
        agg = build_aggregator("rgcn", 8, 1, rng, dropout_rate=0.0)
        return LocalRecurrentEncoder(4, 2, 8, 4, agg, seeded_rng(1),
                                     use_entity_attention=use_attention)

    def test_output_shapes(self):
        enc = self._encoder()
        enc.eval()
        out = enc(make_snapshots(), 2, rnd((4, 8)), rnd((2, 8), 1),
                  np.array([0]), np.array([0]))
        assert out.entities.shape == (4, 8)
        assert out.relations.shape == (2, 8)
        assert len(out.snapshot_aggs) == 2
        assert out.last_agg is out.snapshot_aggs[-1]

    def test_empty_window(self):
        enc = self._encoder()
        enc.eval()
        base = rnd((4, 8))
        out = enc([], 2, base, rnd((2, 8), 1), np.array([0]), np.array([0]))
        assert out.entities is base  # no evolution happened
        assert out.last_agg is None

    def test_attention_toggle_changes_output(self):
        with_attn = self._encoder(use_attention=True)
        without = self._encoder(use_attention=False)
        # share weights for everything except attention
        state = {k: v for k, v in with_attn.state_dict().items()
                 if not k.startswith("attention")}
        without.load_state_dict({k: v for k, v in state.items()
                                 if k in dict(without.named_parameters())})
        with_attn.eval(); without.eval()
        args = (make_snapshots(), 2, rnd((4, 8)), rnd((2, 8), 1),
                np.array([0]), np.array([0]))
        a = with_attn(*args).entities.data
        b = without(*args).entities.data
        assert not np.allclose(a, b)

    def test_relations_evolve(self):
        enc = self._encoder()
        enc.eval()
        rel0 = rnd((2, 8), 1)
        out = enc(make_snapshots(), 2, rnd((4, 8)), rel0,
                  np.array([0]), np.array([0]))
        assert not np.allclose(out.relations.data, rel0.data)


class TestGlobalEncoder:
    def _encoder(self):
        rng = seeded_rng(0)
        agg = build_aggregator("rgcn", 8, 2, rng, dropout_rate=0.0)
        return GlobalHistoryEncoder(8, agg, seeded_rng(1))

    def test_output_shape(self):
        enc = self._encoder()
        enc.eval()
        out = enc(rnd((4, 8)), rnd((2, 8), 1),
                  np.array([0, 1]), np.array([0, 1]), np.array([1, 2]),
                  np.array([0]), np.array([0]))
        assert out.entities.shape == (4, 8)
        assert out.raw_aggregate.shape == (4, 8)

    def test_empty_subgraph_falls_back_to_base(self):
        enc = self._encoder()
        enc.eval()
        base = rnd((4, 8))
        empty = np.array([], dtype=np.int64)
        out = enc(base, rnd((2, 8), 1), empty, empty, empty,
                  np.array([0]), np.array([0]))
        assert out.raw_aggregate is base


class TestDotAttention:
    def test_dot_score_differs_from_additive(self):
        from repro.core.attention import LocalEntityAwareAttention
        evolved = rnd((4, 8))
        aggs = [rnd((4, 8), i) for i in range(2)]
        key = rnd((4, 8), 9)
        additive = LocalEntityAwareAttention(8, seeded_rng(0), score="additive")
        dot = LocalEntityAwareAttention(8, seeded_rng(0), score="dot")
        assert not np.allclose(additive(evolved, aggs, key).data,
                               dot(evolved, aggs, key).data)

    def test_invalid_score_rejected(self):
        from repro.core.attention import LocalEntityAwareAttention
        with pytest.raises(ValueError):
            LocalEntityAwareAttention(8, seeded_rng(0), score="bilinear")

    def test_dot_attention_gradients(self):
        from repro.core.attention import LocalEntityAwareAttention
        attn = LocalEntityAwareAttention(8, seeded_rng(0), score="dot")
        evolved = rnd((3, 8), grad=True)
        aggs = [rnd((3, 8), 1, grad=True)]
        key = rnd((3, 8), 2, grad=True)
        attn(evolved, aggs, key).sum().backward()
        assert evolved.grad is not None and key.grad is not None
