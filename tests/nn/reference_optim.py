"""Reference oracle for :class:`repro.nn.Adam` and ``clip_grad_norm``.

The textbook forms: Adam's bias-corrected update written term by term
(eight temporaries per parameter) and the global gradient norm as a sum
of squared entries.  The production versions run allocation-free
(``out=`` ufuncs with the scalar factors folded, ``np.dot`` on raveled
gradients), which reorders float operations, so they are held to these
within a tolerance rather than bitwise.
"""

import math
from typing import Iterable, List, Sequence

import numpy as np


class ReferenceAdam:
    """Adam (Kingma & Ba, 2015) with bias correction, textbook form."""

    def __init__(self, params: Iterable, lr: float = 1e-3,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params: List = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bc1 = 1.0 - self.beta1 ** self._step
        bc2 = 1.0 - self.beta2 ** self._step
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_clip_grad_norm(params: Iterable, max_norm: float) -> float:
    """Scale gradients to global L2 norm <= ``max_norm``; pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * scale
    return total
