"""Optimizers and gradient utilities.

The paper trains with Adam (lr=0.001); SGD with momentum is provided for
ablation/benchmark purposes.  Gradient clipping matches the clip-by-global-
norm behaviour of ``torch.nn.utils.clip_grad_norm_``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .modules import Parameter


class Optimizer:
    """Base optimizer: holds parameter references and clears gradients."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data = p.data - self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    This is the optimizer the paper uses for LogCL and all re-implemented
    baselines (learning rate 0.001 in the paper's setting).
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Per-parameter scratch buffer: the update below runs entirely
        # through ``out=`` ufuncs, so one reusable buffer per parameter
        # replaces the eight temporaries the textbook form allocates.
        self._scratch = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bc1 = 1.0 - self.beta1 ** self._step
        bc2 = 1.0 - self.beta2 ** self._step
        for p, m, v, buf in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            # m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2, allocation-free
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            m *= self.beta1
            m += buf
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - self.beta2
            v *= self.beta2
            v += buf
            # p -= (lr/bc1) * m / (sqrt(v/bc2) + eps) — algebraically the
            # bias-corrected update, with the scalar factors folded.
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            np.divide(m, buf, out=buf)
            buf *= self.lr / bc1
            p.data -= buf


def clip_grad_norm(params: Iterable[Parameter], max_norm: float,
                   telemetry=None) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, matching the PyTorch utility's contract.
    When a :class:`repro.obs.Telemetry` is given, the pre/post-clip norms
    are observed as ``grad_norm_preclip`` / ``grad_norm_postclip`` and a
    ``grad_clips`` counter tracks how often the threshold engaged — the
    norm is already computed here, so the hook costs nothing extra.
    """
    params = [p for p in params if p.grad is not None]
    # np.dot on the raveled gradient skips the squared temporary.
    total = math.sqrt(sum(float(np.dot(g, g)) for g in
                          (p.grad.ravel() for p in params)))
    clipped = total > max_norm and total > 0
    if clipped:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * scale
    if telemetry is not None:
        telemetry.observe("grad_norm_preclip", total)
        telemetry.observe("grad_norm_postclip",
                          total * scale if clipped else total)
        if clipped:
            telemetry.incr("grad_clips")
    return total


class StepLR:
    """Multiply the optimizer lr by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


class RMSProp(Optimizer):
    """RMSProp with optional momentum — provided for optimizer ablations."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 alpha: float = 0.99, eps: float = 1e-8,
                 momentum: float = 0.0):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.momentum = momentum
        self._sq = [np.zeros_like(p.data) for p in self.params]
        self._buf = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, sq, buf in zip(self.params, self._sq, self._buf):
            if p.grad is None:
                continue
            grad = p.grad
            sq *= self.alpha
            sq += (1.0 - self.alpha) * grad * grad
            update = grad / (np.sqrt(sq) + self.eps)
            if self.momentum:
                buf *= self.momentum
                buf += update
                update = buf
            p.data = p.data - self.lr * update


class CosineLR:
    """Cosine-anneal the lr from its initial value to ``min_lr``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int,
                 min_lr: float = 0.0):
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        self.optimizer = optimizer
        self.total_epochs = total_epochs
        self.min_lr = min_lr
        self._initial = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        self._epoch = min(self._epoch + 1, self.total_epochs)
        progress = self._epoch / self.total_epochs
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        self.optimizer.lr = self.min_lr + (self._initial - self.min_lr) * cosine
