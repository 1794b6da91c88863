"""Fused encoder kernels vs their generic-op oracle.

Every fused op replays the generic op path's numpy expressions in the
same order, so **forward outputs are bitwise identical** — including in
training mode, where both paths must draw RReLU slopes and dropout masks
from the RNG with identical call order and shapes.  The handwritten
backwards are analytically equal but may sum in a different float order,
so **gradients agree to tight tolerances** rather than bitwise.

Each test builds two identically-seeded module instances and runs one
on the production kernels and one with the generic compositions of
``tests/nn/reference_ops.py`` patched in at every call site.  The
model-level tests at the bottom exercise every fused op at once through
real LogCL training batches.
"""

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.core import model as model_module
from repro.core.attention import (GlobalEntityAwareAttention,
                                  LocalEntityAwareAttention, QueryKeyBuilder)
from repro.core.contrast import QueryContrastModule
from repro.core.decoder import ConvTransE
from repro.core.time_encoding import TimeEncoding
from repro.datasets import icews14_like
from repro.graph import rgcn as rgcn_module
from repro.graph.compgcn import CompGCN
from repro.graph.rgcn import RGCN, RGCNLayer
from repro.nn import ops
from repro.nn.ops import fused_blend, fused_multilabel_loss, index_select
from repro.nn.recurrent import GRUCell
from repro.nn.tensor import Tensor
from repro.perf import clear_perf_caches
from repro.training.context import (HistoryContext,
                                    iter_joint_timestep_batches,
                                    iter_timestep_batches)

from . import reference_ops
from .reference_ops import FUSED_OPS, import_sites, use_reference_ops

DIM = 8
NODES = 12
EDGES = 30
SEED = 7


def _tensor(rng, shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=True)


def _edges(rng, num_rel=5):
    src = rng.integers(0, NODES, size=EDGES)
    rel = rng.integers(0, num_rel, size=EDGES)
    dst = rng.integers(0, NODES, size=EDGES)
    return src, rel, dst


def _run(build_and_apply, fast):
    """Build modules/inputs from a fixed seed, run, backprop sum^2.

    ``fast=False`` runs the same code with the reference ops patched in.
    """
    clear_perf_caches()
    if fast:
        return build_and_apply()
    with pytest.MonkeyPatch.context() as mp:
        use_reference_ops(mp)
        return build_and_apply()


def _assert_parity(build_and_apply, grad_atol=1e-5):
    out_fast, grads_fast = _run(build_and_apply, fast=True)
    out_ref, grads_ref = _run(build_and_apply, fast=False)
    np.testing.assert_array_equal(out_fast, out_ref)
    assert set(grads_fast) == set(grads_ref)
    for name in grads_fast:
        np.testing.assert_allclose(grads_fast[name], grads_ref[name],
                                   rtol=1e-5, atol=grad_atol,
                                   err_msg=f"grad mismatch for {name}")


def _backward_sq(out):
    (out * out).sum().backward()


def _module_grads(module, inputs):
    grads = {name: p.grad.copy()
             for name, p in module.named_parameters() if p.grad is not None}
    for i, t in enumerate(inputs):
        if t.grad is not None:
            grads[f"input{i}"] = t.grad.copy()
    return grads


class TestReferencePatch:
    def test_every_fused_op_has_a_reference(self):
        fused = {name for name in dir(ops) if name.startswith("fused_")}
        assert fused == set(FUSED_OPS)

    def test_every_call_site_is_patched(self):
        import repro  # noqa: F401 - loads every call site
        sites = {name: [m.__name__ for m, _ in import_sites(
            name, getattr(ops, name)) if m is not ops]
            for name in FUSED_OPS}
        assert all(sites.values()), sites
        with pytest.MonkeyPatch.context() as mp:
            assert use_reference_ops(mp) == sum(map(len, sites.values())) + 1
            for name in FUSED_OPS:
                left = [m.__name__ for m, _ in import_sites(
                    name, getattr(ops, name))]
                assert left == ["repro.nn.ops"], (name, left)
                assert getattr(ops, name) is not getattr(reference_ops, name)


class TestGraphLayers:
    @staticmethod
    def _assert_rgcn_parity(build, fused_calls):
        """The layer calls the fused kernel with the expected composition
        and activation; the kernel and the reference composition give
        the same output and leave the generator in the same state."""
        calls = []

        def spy(*args, **kwargs):
            calls.append((kwargs["composition"], kwargs["activation"]))
            return ops.fused_relational_pass(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rgcn_module, "fused_relational_pass", spy)
            out_fast, grads_fast, state_fast = _run(build, fast=True)
        assert calls == fused_calls
        out_ref, grads_ref, state_ref = _run(build, fast=False)
        np.testing.assert_array_equal(out_fast, out_ref)
        assert state_fast == state_ref
        assert set(grads_fast) == set(grads_ref)
        for name in grads_fast:
            np.testing.assert_allclose(grads_fast[name], grads_ref[name],
                                       rtol=1e-5, atol=1e-5,
                                       err_msg=f"grad mismatch for {name}")

    @pytest.mark.parametrize("training", [False, True])
    def test_rgcn_stack(self, training):
        def build():
            rng = np.random.default_rng(SEED)
            net = RGCN(DIM, 2, rng)
            net.train() if training else net.eval()
            h = _tensor(rng, (NODES, DIM))
            r = _tensor(rng, (5, DIM))
            out = net(h, r, *_edges(rng))
            _backward_sq(out)
            return (out.data.copy(), _module_grads(net, [h, r]),
                    rng.bit_generator.state)
        self._assert_rgcn_parity(build, [("add", True)] * 2)

    @pytest.mark.parametrize("training", [False, True])
    def test_rgcn_layer_without_activation(self, training):
        def build():
            rng = np.random.default_rng(SEED)
            layer = RGCNLayer(DIM, rng, activation=False)
            layer.train() if training else layer.eval()
            h = _tensor(rng, (NODES, DIM))
            r = _tensor(rng, (5, DIM))
            out = layer(h, r, *_edges(rng))
            _backward_sq(out)
            return (out.data.copy(), _module_grads(layer, [h, r]),
                    rng.bit_generator.state)
        self._assert_rgcn_parity(build, [("add", False)])

    @pytest.mark.parametrize("composition", ["sub", "mult"])
    def test_compgcn_stack(self, composition):
        def build():
            rng = np.random.default_rng(SEED)
            net = CompGCN(DIM, 2, rng, composition=composition)
            net.train()
            h = _tensor(rng, (NODES, DIM))
            r = _tensor(rng, (5, DIM))
            out = net(h, r, *_edges(rng))
            _backward_sq(out)
            return out.data.copy(), _module_grads(net, [h, r])
        _assert_parity(build)


class TestRecurrentAndTime:
    def test_gru_step(self):
        def build():
            rng = np.random.default_rng(SEED)
            cell = GRUCell(DIM, DIM, rng)
            x = _tensor(rng, (NODES, DIM))
            h = _tensor(rng, (NODES, DIM))
            out = cell(x, h)
            _backward_sq(out)
            return out.data.copy(), _module_grads(cell, [x, h])
        _assert_parity(build)

    def test_time_fuse(self):
        def build():
            rng = np.random.default_rng(SEED)
            enc = TimeEncoding(DIM, 4, rng)
            h = _tensor(rng, (NODES, DIM))
            out = enc(h, interval=3)
            _backward_sq(out)
            return out.data.copy(), _module_grads(enc, [h])
        _assert_parity(build)


class TestAttention:
    def test_query_key(self):
        def build():
            rng = np.random.default_rng(SEED)
            builder = QueryKeyBuilder(DIM, rng)
            base = _tensor(rng, (NODES, DIM))
            rels = _tensor(rng, (5, DIM))
            qs = rng.integers(0, NODES, size=9)
            qr = rng.integers(0, 5, size=9)
            out = builder(base, rels, qs, qr)
            _backward_sq(out)
            return out.data.copy(), _module_grads(builder, [base, rels])
        _assert_parity(build)

    def test_query_key_empty_queries(self):
        def build():
            rng = np.random.default_rng(SEED)
            builder = QueryKeyBuilder(DIM, rng)
            base = _tensor(rng, (NODES, DIM))
            rels = _tensor(rng, (5, DIM))
            empty = np.zeros(0, dtype=np.int64)
            out = builder(base, rels, empty, empty)
            _backward_sq(out)
            return out.data.copy(), _module_grads(builder, [base, rels])
        _assert_parity(build)

    def test_local_attention_additive(self):
        def build():
            rng = np.random.default_rng(SEED)
            attn = LocalEntityAwareAttention(DIM, rng)
            evolved = _tensor(rng, (NODES, DIM))
            aggs = [_tensor(rng, (NODES, DIM)) for _ in range(3)]
            key = _tensor(rng, (NODES, DIM))
            out = attn(evolved, aggs, key)
            _backward_sq(out)
            return out.data.copy(), _module_grads(attn, [evolved, key] + aggs)
        _assert_parity(build)

    def test_global_gate(self):
        def build():
            rng = np.random.default_rng(SEED)
            gate = GlobalEntityAwareAttention(DIM, rng)
            agg = _tensor(rng, (NODES, DIM))
            key = _tensor(rng, (NODES, DIM))
            out = gate(agg, key)
            _backward_sq(out)
            return out.data.copy(), _module_grads(gate, [agg, key])
        _assert_parity(build)


class TestDecoder:
    @pytest.mark.parametrize("training", [False, True])
    def test_convtranse(self, training):
        def build():
            rng = np.random.default_rng(SEED)
            dec = ConvTransE(DIM, rng, num_kernels=4)
            dec.train() if training else dec.eval()
            subj = _tensor(rng, (9, DIM))
            rel = _tensor(rng, (9, DIM))
            cand = _tensor(rng, (NODES, DIM))
            out = dec(subj, rel, cand)
            _backward_sq(out)
            return out.data.copy(), _module_grads(dec, [subj, rel, cand])
        _assert_parity(build)

    def test_forward_indexed_matches_gather_then_forward(self):
        """The folded-gather path == index_select + forward, bitwise."""
        def build(indexed):
            clear_perf_caches()
            rng = np.random.default_rng(SEED)
            dec = ConvTransE(DIM, rng, num_kernels=4)
            dec.train()
            ent = _tensor(rng, (NODES, DIM))
            rels = _tensor(rng, (5, DIM))
            cand = _tensor(rng, (NODES, DIM))
            si = rng.integers(0, NODES, size=9)
            ri = rng.integers(0, 5, size=9)
            if indexed:
                out = dec.forward_indexed(ent, rels, cand, si, ri)
            else:
                out = dec(index_select(ent, si), index_select(rels, ri), cand)
            _backward_sq(out)
            return out.data.copy(), _module_grads(dec, [ent, rels, cand])
        out_idx, grads_idx = build(True)
        out_ref, grads_ref = build(False)
        np.testing.assert_array_equal(out_idx, out_ref)
        for name in grads_ref:
            np.testing.assert_allclose(grads_idx[name], grads_ref[name],
                                       rtol=1e-5, atol=1e-6, err_msg=name)

    @pytest.mark.parametrize("training", [False, True])
    def test_convtranse_production_shape(self, training):
        """Paper-sized decoder (dim 32, 50 kernels, ~160 queries) through
        the folded gather: forward bitwise equal to the generic
        ``transform(...) @ cand.T``, same RNG draws, gradients within
        tolerance, and a backward that can be replayed bitwise (the
        kernel's in-place ops never touch what the forward saved)."""
        dim, kernels, entities, num_rel, queries = 32, 50, 400, 20, 163

        def build(fast):
            rng = np.random.default_rng(SEED)
            dec = ConvTransE(dim, rng, num_kernels=kernels)
            dec.train() if training else dec.eval()
            ent = _tensor(rng, (entities, dim))
            rels = _tensor(rng, (num_rel, dim))
            cand = _tensor(rng, (entities, dim))
            si = rng.integers(0, entities, size=queries)
            ri = rng.integers(0, num_rel, size=queries)
            upstream = (rng.standard_normal((queries, entities))
                        / queries).astype(np.float32)
            if fast:
                out = dec.forward_indexed(ent, rels, cand, si, ri)
            else:
                out = dec.transform(index_select(ent, si),
                                    index_select(rels, ri)) @ cand.T
            state = dec._rng.bit_generator.state
            out.backward(upstream)
            tensors = [ent, rels, cand] + [p for _, p in
                                           dec.named_parameters()]
            return out, upstream, state, tensors

        out_fast, upstream, state_fast, fast_tensors = build(True)
        out_ref, _, state_ref, ref_tensors = build(False)
        np.testing.assert_array_equal(out_fast.data, out_ref.data)
        assert state_fast == state_ref
        first = [t.grad.copy() for t in fast_tensors]
        for got, ref in zip(first, (t.grad for t in ref_tensors)):
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        for t in fast_tensors:
            t.grad = None
        out_fast._backward(upstream)
        for again, once in zip((t.grad for t in fast_tensors), first):
            np.testing.assert_array_equal(again, once)


class TestLossKernels:
    def test_query_contrast(self):
        def build():
            rng = np.random.default_rng(SEED)
            contrast = QueryContrastModule(DIM, rng, temperature=0.1)
            local = _tensor(rng, (NODES, DIM))
            rels = _tensor(rng, (5, DIM))
            glob = _tensor(rng, (NODES, DIM))
            rels0 = _tensor(rng, (5, DIM))
            qs = rng.integers(0, NODES, size=9)
            qr = rng.integers(0, 5, size=9)
            loss = contrast(local, rels, glob, rels0, qs, qr)
            loss.backward()
            return loss.data.copy(), _module_grads(
                contrast, [local, rels, glob, rels0])
        _assert_parity(build)

    def test_query_contrast_single_query_is_zero(self):
        rng = np.random.default_rng(SEED)
        contrast = QueryContrastModule(DIM, rng, temperature=0.1)
        loss = contrast(
            _tensor(rng, (NODES, DIM)), _tensor(rng, (5, DIM)),
            _tensor(rng, (NODES, DIM)), _tensor(rng, (5, DIM)),
            np.array([3]), np.array([1]))
        assert float(loss.data) == 0.0

    def test_multilabel_loss(self):
        rng = np.random.default_rng(SEED)
        logits_data = rng.standard_normal((9, NODES)).astype(np.float32)
        labels = (rng.random((9, NODES)) < 0.2).astype(np.float32)
        labels[:, 0] = 1.0  # every row has at least one positive
        a = Tensor(logits_data.copy(), requires_grad=True)
        fused = fused_multilabel_loss(a, labels)
        fused.backward()
        b = Tensor(logits_data.copy(), requires_grad=True)
        ref = reference_ops.fused_multilabel_loss(b, labels)
        ref.backward()
        np.testing.assert_array_equal(fused.data, ref.data)
        np.testing.assert_allclose(a.grad, b.grad, rtol=1e-6, atol=1e-7)

    def test_multihot_labels(self):
        rng = np.random.default_rng(SEED)
        subjects = rng.integers(0, 4, size=20)
        relations = rng.integers(0, 3, size=20)
        objects = rng.integers(0, NODES, size=20)
        np.testing.assert_array_equal(
            model_module._multihot_labels(subjects, relations, objects,
                                          NODES),
            reference_ops._multihot_labels(subjects, relations, objects,
                                           NODES))

    def test_blend(self):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((NODES, DIM)).astype(np.float32)
        y = rng.standard_normal((NODES, DIM)).astype(np.float32)
        a1, b1 = Tensor(x.copy(), True), Tensor(y.copy(), True)
        out = fused_blend(a1, b1, 0.9)
        _backward_sq(out)
        a2, b2 = Tensor(x.copy(), True), Tensor(y.copy(), True)
        ref = reference_ops.fused_blend(a2, b2, 0.9)
        _backward_sq(ref)
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_allclose(a1.grad, a2.grad, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(b1.grad, b2.grad, rtol=1e-6, atol=1e-7)


class TestModelLevel:
    """Whole-model parity on real batches: every fused op at once."""

    @staticmethod
    def _config():
        return LogCLConfig(dim=16, time_dim=8, window=3, seed=0,
                           temperature=0.1, decoder_kernels=4)

    def _losses_and_grads(self, fast, joint, num_batches=3):
        clear_perf_caches()
        ds = icews14_like()
        model = LogCL(self._config(), ds.num_entities, ds.num_relations)
        model.train()
        ctx = HistoryContext(ds, 3)
        iterator = (iter_joint_timestep_batches if joint
                    else iter_timestep_batches)

        def run():
            losses = []
            for i, batch in enumerate(iterator(ds, "train", ctx)):
                if i >= num_batches:
                    break
                model.zero_grad()
                loss = model.loss_on(batch)
                loss.backward()
                losses.append(float(loss.data))
            grads = {n: p.grad.copy() for n, p in model.named_parameters()
                     if p.grad is not None}
            return losses, grads

        if fast:
            return run()
        with pytest.MonkeyPatch.context() as mp:
            use_reference_ops(mp)
            return run()

    @pytest.mark.parametrize("joint", [False, True])
    def test_training_losses_bitwise(self, joint):
        losses_fast, grads_fast = self._losses_and_grads(True, joint)
        losses_ref, grads_ref = self._losses_and_grads(False, joint)
        assert losses_fast == losses_ref
        for name in grads_ref:
            ref = grads_ref[name]
            scale = max(float(np.max(np.abs(ref))), 1e-8)
            np.testing.assert_allclose(grads_fast[name] / scale, ref / scale,
                                       rtol=0, atol=1e-5, err_msg=name)

    def test_eval_scores_bitwise(self):
        ds = icews14_like()
        model = LogCL(self._config(), ds.num_entities, ds.num_relations)
        model.eval()

        def scores(fast):
            clear_perf_caches()
            ctx = HistoryContext(ds, 3)
            out = []
            for i, batch in enumerate(iter_timestep_batches(ds, "valid", ctx)):
                if i >= 4:
                    break
                if fast:
                    out.append(model.predict_on(batch))
                else:
                    with pytest.MonkeyPatch.context() as mp:
                        use_reference_ops(mp)
                        out.append(model.predict_on(batch))
            return out

        for fast_scores, ref_scores in zip(scores(True), scores(False)):
            np.testing.assert_array_equal(fast_scores, ref_scores)


class TestJointBatches:
    def test_joint_batch_is_concatenated_phases(self):
        ds = icews14_like()
        ctx = HistoryContext(ds, 3)
        split_batches = {}
        for batch in iter_timestep_batches(ds, "train", ctx):
            split_batches.setdefault(batch.time, {})[batch.phase] = batch
        ctx.reset()
        joint_seen = 0
        for joint in iter_joint_timestep_batches(ds, "train", ctx):
            assert joint.phase == "joint"
            pair = split_batches[joint.time]
            fwd, inv = pair["forward"], pair["inverse"]
            np.testing.assert_array_equal(
                joint.subjects, np.concatenate([fwd.subjects, inv.subjects]))
            np.testing.assert_array_equal(
                joint.relations,
                np.concatenate([fwd.relations, inv.relations]))
            np.testing.assert_array_equal(
                joint.objects, np.concatenate([fwd.objects, inv.objects]))
            joint_seen += 1
        assert joint_seen == len(split_batches)
