"""The common interface every TKG extrapolation model implements.

The trainer and the evaluation protocol only ever call the two methods of
:class:`ExtrapolationModel`, so LogCL, every re-implemented baseline and
any user-supplied model are interchangeable across all benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .nn import Module, Tensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .training.context import TimestepBatch


class ExtrapolationModel(Module):
    """Base class for timestamp-batched TKG extrapolation models.

    Subclasses implement:

    * :meth:`loss_on` — a differentiable scalar loss for one timestamp's
      query batch (training).
    * :meth:`predict_on` — raw candidate scores ``(Q, |E|)`` as a plain
      numpy array (evaluation; no autodiff graph).

    The class also standardizes the Gaussian input-noise hook used by the
    robustness experiments (Fig. 2 / Fig. 5): setting
    :attr:`input_noise_std` perturbs the entity embeddings each model
    reads as its input, exactly as the paper describes ("Gaussian noise
    ... added to the entity representation as the initial input of the
    model"; relations are left clean).
    """

    def __init__(self, noise_seed: int = 104729):
        super().__init__()
        self.input_noise_std: float = 0.0
        self._noise_rng = np.random.default_rng(noise_seed)

    def perturb_entities(self, base: Tensor) -> Tensor:
        """Apply the configured Gaussian perturbation to entity inputs."""
        if self.input_noise_std <= 0.0:
            return base
        noise = self._noise_rng.normal(
            0.0, self.input_noise_std, size=base.shape).astype(base.data.dtype)
        return base + Tensor(noise)

    # -- abstract -------------------------------------------------------------
    def loss_on(self, batch: "TimestepBatch") -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def predict_on(self, batch: "TimestepBatch") -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class ScoreFactors:
    """A ``(Q, |E|)`` score matrix held as the two factors of its product.

    ``features @ candidates.T`` is the matrix (Eq. 18's query features
    against every candidate embedding).  Ranking code computes it one row
    block at a time with :meth:`rows`, so the whole matrix never exists.
    A block cut by :func:`repro.nn.ops.tile_bounds` is bitwise equal to
    the same rows of the whole product; its docstring says why a much
    shorter block need not be.
    """

    features: np.ndarray      # (Q, d)
    candidates: np.ndarray    # (|E|, d)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.features), len(self.candidates))

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.features, self.candidates)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Score rows ``[start, stop)`` as a fresh, writable array."""
        return self.features[start:stop] @ self.candidates.T
