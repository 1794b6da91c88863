"""Gradient checks for repro.nn.ops and repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import ops
from repro.nn.tensor import Tensor
from repro.utils.gradcheck import check_gradients

RNG = np.random.default_rng(1)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestStructural:
    def test_concat_grad(self):
        a = t64(RNG.standard_normal((2, 3)))
        b = t64(RNG.standard_normal((2, 2)))
        check_gradients(lambda x, y: (ops.concat([x, y], axis=1) ** 2).sum(), [a, b])

    def test_concat_axis0_grad(self):
        a = t64(RNG.standard_normal((2, 3)))
        b = t64(RNG.standard_normal((1, 3)))
        check_gradients(lambda x, y: ops.concat([x, y], axis=0).sum(), [a, b])

    def test_stack_grad(self):
        a = t64(RNG.standard_normal((3,)))
        b = t64(RNG.standard_normal((3,)))
        check_gradients(lambda x, y: (ops.stack([x, y]) ** 2).sum(), [a, b])

    def test_where_grad(self):
        cond = np.array([True, False, True])
        a = t64(RNG.standard_normal(3))
        b = t64(RNG.standard_normal(3))
        check_gradients(lambda x, y: ops.where(cond, x, y).sum(), [a, b])

    def test_pad2d_grad(self):
        a = t64(RNG.standard_normal((2, 3, 3)))
        check_gradients(lambda x: (ops.pad2d(x, (1, 0, 1, 2)) ** 2).sum(), [a])


class TestGatherScatter:
    def test_index_select_grad(self):
        a = t64(RNG.standard_normal((5, 3)))
        idx = np.array([1, 1, 4])
        check_gradients(lambda x: (ops.index_select(x, idx) ** 2).sum(), [a])

    def test_index_add_grad(self):
        base = t64(RNG.standard_normal((4, 2)))
        vals = t64(RNG.standard_normal((3, 2)))
        idx = np.array([0, 0, 3])
        check_gradients(lambda b, v: (ops.index_add(b, idx, v) ** 2).sum(),
                        [base, vals])

    def test_segment_sum_duplicates(self):
        vals = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.segment_sum(vals, np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [3.0]])

    def test_segment_sum_grad(self):
        vals = t64(RNG.standard_normal((4, 2)))
        idx = np.array([0, 1, 1, 2])
        check_gradients(lambda v: (ops.segment_sum(v, idx, 3) ** 2).sum(), [vals])

    def test_segment_mean_empty_bucket(self):
        vals = Tensor(np.array([[2.0], [4.0]]))
        out = ops.segment_mean(vals, np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [0.0]])

    def test_segment_softmax_normalizes(self):
        scores = Tensor(np.array([1.0, 2.0, 3.0, 0.5]))
        idx = np.array([0, 0, 1, 1])
        out = ops.segment_softmax(scores, idx, 2)
        np.testing.assert_allclose(out.data[:2].sum(), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.data[2:].sum(), 1.0, atol=1e-6)

    def test_segment_softmax_grad(self):
        scores = t64(RNG.standard_normal(5))
        idx = np.array([0, 0, 1, 1, 1])
        weights = RNG.standard_normal(5)
        check_gradients(
            lambda s: (ops.segment_softmax(s, idx, 2) * Tensor(weights)).sum(),
            [scores])

    def test_index_select_rejects_float_index(self):
        a = t64(RNG.standard_normal((3, 2)))
        with pytest.raises(TypeError):
            ops.index_select(a, np.array([0.5]))


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        a = Tensor(RNG.standard_normal((4, 6)))
        out = ops.softmax(a)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_softmax_grad(self):
        a = t64(RNG.standard_normal((3, 4)))
        w = RNG.standard_normal((3, 4))
        check_gradients(lambda x: (ops.softmax(x) * Tensor(w)).sum(), [a])

    def test_log_softmax_grad(self):
        a = t64(RNG.standard_normal((3, 4)))
        w = RNG.standard_normal((3, 4))
        check_gradients(lambda x: (ops.log_softmax(x) * Tensor(w)).sum(), [a])

    def test_log_softmax_stability(self):
        a = Tensor(np.array([[1000.0, 1000.0]]))
        out = ops.log_softmax(a)
        np.testing.assert_allclose(out.data, [[np.log(0.5)] * 2], atol=1e-6)

    def test_logsumexp_grad(self):
        a = t64(RNG.standard_normal((3, 4)))
        check_gradients(lambda x: ops.logsumexp(x, axis=1).sum(), [a])

    def test_l2_normalize_unit_norm(self):
        a = Tensor(RNG.standard_normal((5, 8)))
        out = ops.l2_normalize(a)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1),
                                   np.ones(5), atol=1e-5)

    def test_l2_normalize_grad(self):
        a = t64(RNG.standard_normal((2, 4)))
        w = RNG.standard_normal((2, 4))
        check_gradients(lambda x: (ops.l2_normalize(x) * Tensor(w)).sum(), [a])


class TestDropoutRrelu:
    def test_dropout_eval_identity(self):
        a = Tensor(RNG.standard_normal((10, 10)))
        out = ops.dropout(a, 0.5, training=False)
        assert out is a

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(7)
        a = Tensor(np.ones((200, 200)), requires_grad=True)
        out = ops.dropout(a, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_grad_matches_mask(self):
        rng = np.random.default_rng(7)
        a = Tensor(np.ones((5, 5), dtype=np.float64), requires_grad=True)
        out = ops.dropout(a, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, out.data)  # mask * 1 input

    def test_rrelu_eval_deterministic(self):
        a = Tensor(np.array([-1.0, 1.0]))
        out1 = ops.rrelu(a, training=False)
        out2 = ops.rrelu(a, training=False)
        np.testing.assert_allclose(out1.data, out2.data)
        assert out1.data[1] == 1.0 and out1.data[0] < 0

    def test_rrelu_grad(self):
        a = t64(np.array([-2.0, -0.5, 0.5, 2.0]))
        check_gradients(lambda x: ops.rrelu(x, training=False).sum(), [a])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rrelu_eval_matches_full_slope_array(self, dtype):
        """The scalar eval slope gives the per-element slope's exact bits."""
        x = RNG.standard_normal((64, 16)).astype(dtype)
        grad = RNG.standard_normal((64, 16)).astype(dtype)
        a = Tensor(x.copy(), requires_grad=True)
        out = ops.rrelu(a, training=False)
        out.backward(grad)
        slope = np.full(x.shape, (1.0 / 8.0 + 1.0 / 3.0) / 2.0, dtype=dtype)
        assert out.data.dtype == a.grad.dtype == dtype
        np.testing.assert_array_equal(out.data,
                                      np.where(x >= 0, x, slope * x))
        np.testing.assert_array_equal(a.grad,
                                      grad * np.where(x >= 0, 1.0, slope))


def _special_values(dtype):
    """±0, subnormals, ±inf, ±NaN, the extremes and ordinary values."""
    info = np.finfo(dtype)
    sub = info.smallest_subnormal
    values = [0.0, -0.0, sub, -sub, 3 * sub, -3 * sub, info.tiny / 2,
              -info.tiny / 2, info.tiny, -info.tiny, np.inf, -np.inf,
              np.nan, -np.nan, info.max, -info.max, 1.0, -1.0, 0.3, -0.3,
              1e-30, -1e-30]
    return np.array(values + list(RNG.standard_normal(42)), dtype=dtype)


class TestBranchFreeRrelu:
    """``maximum(x, slope * x)`` and ``maximum(slope, x >= 0)`` are the
    bits of the ``np.where`` forms for every slope in (0, 1]."""

    @staticmethod
    def _bits(arr):
        return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", ["subnormal", 1e-3, 0.125,
                                       (1 / 8 + 1 / 3) / 2, 1 / 3, 0.5,
                                       "below_one", 1.0])
    def test_eval_forward_and_backward_bitwise(self, dtype, slope):
        if slope == "subnormal":
            slope = float(np.finfo(dtype).smallest_subnormal)
        elif slope == "below_one":
            slope = float(np.nextafter(dtype(1.0), dtype(0.0)))
        x = _special_values(dtype)
        grad = RNG.standard_normal(x.shape).astype(dtype)
        a = Tensor(x.copy(), requires_grad=True)
        with np.errstate(all="ignore"):
            out = ops.rrelu(a, lower=slope, upper=slope, training=False)
            out.backward(grad)
            s = dtype(slope)
            expected = np.where(x >= 0, x, s * x)
            expected_grad = grad * np.where(x >= 0, 1.0, s)
        assert out.data.dtype == a.grad.dtype == dtype
        np.testing.assert_array_equal(self._bits(out.data),
                                      self._bits(expected))
        np.testing.assert_array_equal(self._bits(a.grad),
                                      self._bits(expected_grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_per_element_slopes_bitwise(self, dtype):
        x = np.tile(_special_values(dtype), 8)
        grad = RNG.standard_normal(x.shape).astype(dtype)
        a = Tensor(x.copy(), requires_grad=True)
        with np.errstate(all="ignore"):
            out = ops.rrelu(a, lower=1e-6, upper=1.0, training=True,
                            rng=np.random.default_rng(5))
            out.backward(grad)
            slope = np.random.default_rng(5).uniform(
                1e-6, 1.0, size=x.shape).astype(dtype)
            expected = np.where(x >= 0, x, slope * x)
            expected_grad = grad * np.where(x >= 0, 1.0, slope)
        np.testing.assert_array_equal(self._bits(out.data),
                                      self._bits(expected))
        np.testing.assert_array_equal(self._bits(a.grad),
                                      self._bits(expected_grad))

    @pytest.mark.parametrize("lower,upper", [(0.0, 0.5), (-0.1, 0.5),
                                             (0.5, 1.5), (0.4, 0.2),
                                             (np.nan, 0.5), (0.1, np.nan)])
    def test_bounds_outside_unit_interval_rejected(self, lower, upper):
        x = Tensor(RNG.standard_normal((4, 3)))
        with pytest.raises(ValueError, match="0 < lower <= upper <= 1"):
            ops.rrelu(x, lower=lower, upper=upper)
        edges = np.array([0, 1, 2])
        with pytest.raises(ValueError, match="0 < lower <= upper <= 1"):
            ops.fused_relational_pass(
                x, Tensor(RNG.standard_normal((2, 3))),
                Tensor(RNG.standard_normal((3, 3))),
                Tensor(RNG.standard_normal((3, 3))), edges, edges % 2,
                edges[::-1].copy(), 4, lower=lower, upper=upper)


class TestLocalAttentionSignedZeros:
    def test_weighted_sum_keeps_numpy_reduction_bits(self):
        """The running weighted sum starts from +0.0 as numpy's
        ``sum(axis=1)`` does, so all-(-0.0) rows keep the oracle's
        bits (``assert_array_equal`` alone would call -0.0 == +0.0)."""
        from tests.nn import reference_ops
        rng = np.random.default_rng(11)
        evolved = np.full((6, 4), -0.0, dtype=np.float32)
        aggs = [np.full((6, 4), -0.0, dtype=np.float32) for _ in range(3)]
        aggs[1][3:] = rng.standard_normal((3, 4)).astype(np.float32)
        key = rng.standard_normal((6, 4)).astype(np.float32)
        w5 = rng.standard_normal((4, 1)).astype(np.float32)
        args = ([Tensor(a) for a in aggs], Tensor(key), Tensor(w5))
        fused = ops.fused_local_attention(Tensor(evolved), *args).data
        oracle = reference_ops.fused_local_attention(Tensor(evolved),
                                                     *args).data
        np.testing.assert_array_equal(fused.view(np.uint32),
                                      oracle.view(np.uint32))


class TestConv1d:
    def test_conv1d_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 10)))
        w = Tensor(RNG.standard_normal((4, 3, 3)))
        out = ops.conv1d_same(x, w)
        assert out.shape == (2, 4, 10)

    def test_conv1d_matches_manual(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        w = Tensor(np.array([[[1.0, 0.0, -1.0]]]))  # central diff kernel
        out = ops.conv1d_same(x, w)
        np.testing.assert_allclose(out.data, [[[-2.0, -2.0, 2.0]]])

    def test_conv1d_grad(self):
        x = t64(RNG.standard_normal((2, 2, 5)))
        w = t64(RNG.standard_normal((3, 2, 3)))
        b = t64(RNG.standard_normal(3))
        check_gradients(
            lambda xx, ww, bb: (ops.conv1d_same(xx, ww, bb) ** 2).sum(),
            [x, w, b])

    def test_conv1d_channel_mismatch_raises(self):
        x = Tensor(RNG.standard_normal((1, 2, 5)))
        w = Tensor(RNG.standard_normal((3, 4, 3)))
        with pytest.raises(ValueError):
            ops.conv1d_same(x, w)


class TestLosses:
    def test_cross_entropy_grad(self):
        logits = t64(RNG.standard_normal((4, 5)))
        targets = np.array([0, 2, 4, 1])
        check_gradients(lambda l: F.cross_entropy(l, targets), [logits])

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.eye(3) * 100.0)
        loss = F.cross_entropy(logits, np.array([0, 1, 2]))
        assert float(loss.data) < 1e-6

    def test_multilabel_soft_loss_grad(self):
        logits = t64(RNG.standard_normal((3, 6)))
        labels = np.zeros((3, 6))
        labels[0, [1, 2]] = 1
        labels[1, 4] = 1
        labels[2, [0, 5]] = 1
        check_gradients(lambda l: F.multilabel_soft_loss(l, labels), [logits])

    def test_bce_with_logits_grad(self):
        logits = t64(RNG.standard_normal((3, 4)))
        labels = (RNG.random((3, 4)) > 0.5).astype(float)
        check_gradients(
            lambda l: F.binary_cross_entropy_with_logits(l, labels), [logits])

    def test_bce_extreme_logits_stable(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]))
        loss = F.binary_cross_entropy_with_logits(logits, np.array([[1.0, 0.0]]))
        assert np.isfinite(float(loss.data))

    def test_mse_loss(self):
        pred = t64(RNG.standard_normal((4,)))
        target = RNG.standard_normal((4,))
        check_gradients(lambda p: F.mse_loss(p, target), [pred])

    def test_info_nce_grad(self):
        a = ops.l2_normalize(t64(RNG.standard_normal((4, 6))))
        # gradcheck through normalize + nce jointly
        raw_a = t64(RNG.standard_normal((4, 6)))
        raw_b = t64(RNG.standard_normal((4, 6)))
        check_gradients(
            lambda x, y: F.info_nce(ops.l2_normalize(x), ops.l2_normalize(y), 0.5),
            [raw_a, raw_b])

    def test_info_nce_aligned_pairs_lower_loss(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((8, 16))
        aligned = ops.l2_normalize(Tensor(base))
        noisy = ops.l2_normalize(Tensor(base + 0.01 * rng.standard_normal((8, 16))))
        shuffled = ops.l2_normalize(Tensor(rng.standard_normal((8, 16))))
        loss_pos = F.info_nce(aligned, noisy, 0.1)
        loss_neg = F.info_nce(aligned, shuffled, 0.1)
        assert float(loss_pos.data) < float(loss_neg.data)


class TestConv2d:
    def test_conv2d_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 8, 6)))
        w = Tensor(RNG.standard_normal((4, 3, 3, 3)))
        out = ops.conv2d_valid(x, w)
        assert out.shape == (2, 4, 6, 4)

    def test_conv2d_matches_manual(self):
        x = Tensor(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = ops.conv2d_valid(x, w)
        expected = np.array([[[[0+1+3+4, 1+2+4+5], [3+4+6+7, 4+5+7+8]]]],
                            dtype=np.float64)
        np.testing.assert_allclose(out.data, expected)

    def test_conv2d_grad(self):
        x = t64(RNG.standard_normal((2, 2, 5, 4)))
        w = t64(RNG.standard_normal((3, 2, 2, 3)))
        b = t64(RNG.standard_normal(3))
        check_gradients(
            lambda xx, ww, bb: (ops.conv2d_valid(xx, ww, bb) ** 2).sum(),
            [x, w, b])

    def test_conv2d_channel_mismatch(self):
        x = Tensor(RNG.standard_normal((1, 2, 5, 5)))
        w = Tensor(RNG.standard_normal((3, 4, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d_valid(x, w)

    def test_conv2d_kernel_too_large(self):
        x = Tensor(RNG.standard_normal((1, 1, 2, 2)))
        w = Tensor(RNG.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d_valid(x, w)
