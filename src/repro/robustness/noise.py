"""Gaussian-noise robustness harness (paper Fig. 2 and Fig. 5).

The paper probes anti-noise ability by adding Gaussian noise "to the
entity representation as the initial input of the model" (relations stay
clean) and sweeping the noise variance.  Every
:class:`repro.interface.ExtrapolationModel` exposes the
``input_noise_std`` hook; this module sweeps it and reports the metric
trace plus the relative degradation the paper quotes (e.g. "the MRR of
REGCN ... reduced by 63.8%").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..eval.protocol import evaluate
from ..interface import ExtrapolationModel
from ..obs import NULL_TELEMETRY, Telemetry
from ..tkg.dataset import TKGDataset
from ..training.context import HistoryContext

DEFAULT_SIGMAS = (0.0, 0.25, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class NoisePoint:
    """Metrics at one noise intensity."""

    sigma: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float


@dataclass
class NoiseSweepResult:
    """Full trace of a noise sweep for one model."""

    model_name: str
    points: List[NoisePoint]

    @property
    def clean_mrr(self) -> float:
        return self.points[0].mrr

    def degradation_percent(self, sigma: float) -> float:
        """Relative MRR drop vs. the clean run, in percent."""
        for point in self.points:
            if point.sigma == sigma:
                if self.clean_mrr == 0:
                    return 0.0
                return (1.0 - point.mrr / self.clean_mrr) * 100.0
        raise KeyError(f"sigma {sigma} not in sweep")

    def as_rows(self) -> List[Dict[str, float]]:
        return [{"sigma": p.sigma, "mrr": p.mrr, "hits@1": p.hits1,
                 "hits@3": p.hits3, "hits@10": p.hits10}
                for p in self.points]


def noise_sweep(model: ExtrapolationModel, dataset: TKGDataset,
                sigmas: Sequence[float] = DEFAULT_SIGMAS,
                split: str = "test", window: int = 3,
                model_name: str = "model",
                telemetry: Telemetry = NULL_TELEMETRY) -> NoiseSweepResult:
    """Evaluate ``model`` under each noise intensity (Fig. 5 protocol).

    The model's weights are untouched — only its input perturbation hook
    is set for the duration of each evaluation and restored afterwards.
    One :class:`repro.training.context.HistoryContext` — a facade over
    the shared :mod:`repro.history` store — is built up front and shared
    across the whole sweep (``evaluate`` rewinds it per pass), so the
    snapshot/index construction is paid once, not once per sigma.  A
    ``telemetry`` instance receives the per-pass evaluation spans plus
    the shared history cache's hit/miss counters.
    """
    if sigmas[0] != 0.0:
        raise ValueError("first sigma must be 0.0 (the clean reference)")
    previous = model.input_noise_std
    context = HistoryContext(dataset, window=window, telemetry=telemetry)
    points: List[NoisePoint] = []
    try:
        for sigma in sigmas:
            model.input_noise_std = float(sigma)
            metrics = evaluate(model, dataset, split, context=context,
                               window=window, telemetry=telemetry)
            points.append(NoisePoint(sigma=float(sigma), mrr=metrics["mrr"],
                                     hits1=metrics["hits@1"],
                                     hits3=metrics["hits@3"],
                                     hits10=metrics["hits@10"]))
    finally:
        model.input_noise_std = previous
    return NoiseSweepResult(model_name=model_name, points=points)
