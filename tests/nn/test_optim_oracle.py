"""The allocation-free Adam step and grad-clip norm vs the textbook forms.

``Adam.step`` updates through one scratch buffer per parameter with the
bias-correction factors folded into a single scalar, and
``clip_grad_norm`` takes ``np.dot`` of raveled gradients; both reorder
float operations, so over several steps parameters and returned norms
must stay within a tight tolerance of ``tests/nn/reference_optim.py``.
"""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, clip_grad_norm

from .reference_optim import ReferenceAdam, reference_clip_grad_norm

SHAPES = ((7, 5), (5,), (3, 4, 2))
STEPS = 12


def _params(dtype):
    rng = np.random.default_rng(0)
    return [Parameter(rng.standard_normal(shape).astype(dtype))
            for shape in SHAPES + ((2, 2),)]


def _set_grads(params, step, dtype):
    """Loss-like gradients (pull toward zero plus noise); the last
    parameter never gets one, which both optimizers must skip."""
    rng = np.random.default_rng(100 + step)
    scale = 3.0 if step % 3 == 0 else 0.05     # clipping on some steps only
    for p in params[:-1]:
        noise = rng.standard_normal(p.data.shape).astype(dtype)
        p.grad = (0.05 * p.data + noise * scale).astype(dtype)
    params[-1].grad = None


def _run(optimizer_cls, clip, dtype, weight_decay):
    params = _params(dtype)
    opt = optimizer_cls(params, lr=0.05, weight_decay=weight_decay)
    norms = []
    for step in range(STEPS):
        _set_grads(params, step, dtype)
        norms.append(clip(params, 1.0))
        opt.step()
    return [p.data.copy() for p in params], norms


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_and_clip_match_textbook(weight_decay, dtype):
    got, got_norms = _run(Adam, clip_grad_norm, dtype, weight_decay)
    ref, ref_norms = _run(ReferenceAdam, reference_clip_grad_norm, dtype,
                          weight_decay)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(got_norms, ref_norms, rtol=tol)
    assert min(got_norms) < 1.0 < max(got_norms)   # both clip branches
    for g, r in zip(got, ref):
        assert g.dtype == dtype
        np.testing.assert_allclose(g, r, rtol=tol, atol=tol)
    untouched = _params(dtype)[-1].data
    np.testing.assert_array_equal(got[-1], untouched)


def test_updates_are_not_trivial():
    """The parameters actually move, so the comparison above has teeth."""
    got, _ = _run(Adam, clip_grad_norm, np.float64, 0.0)
    for g, start in zip(got[:-1], _params(np.float64)[:-1]):
        assert np.abs(g - start.data).max() > 0.05
