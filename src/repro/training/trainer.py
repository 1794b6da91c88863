"""Offline training loop (the paper's Algorithm 1 driver).

One epoch walks the training split's timestamps in order; each timestamp
contributes two optimization steps (forward-phase queries, then
inverse-phase queries — §III-F's two-phase propagation).  Validation MRR
drives early stopping and best-checkpoint selection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..eval.protocol import evaluate
from ..interface import ExtrapolationModel
from ..nn import Adam, clip_grad_norm
from ..obs import NULL_TELEMETRY, ParamDrift, Telemetry
from ..tkg.dataset import TKGDataset
from .context import (PHASES, HistoryContext, iter_joint_timestep_batches,
                      iter_timestep_batches)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the offline trainer.

    Defaults mirror the paper's setting (Adam, lr=0.001, gradient norm
    clipped at 1.0) with epoch counts scaled to the synthetic presets.
    """

    epochs: int = 12
    lr: float = 1e-3
    grad_clip: float = 1.0
    window: int = 3
    phases: Sequence[str] = PHASES
    patience: int = 5            # early stop after this many non-improving evals
    eval_every: int = 2          # validate every N epochs
    verbose: bool = False
    min_history: int = 1


@dataclass
class TrainResult:
    """Training artifacts: loss curve, validation trace, best state."""

    train_losses: List[float] = field(default_factory=list)
    valid_mrrs: List[float] = field(default_factory=list)
    best_valid_mrr: float = -1.0
    best_state: Optional[Dict[str, np.ndarray]] = None
    epochs_run: int = 0
    seconds: float = 0.0


class Trainer:
    """Fits any :class:`ExtrapolationModel` on a :class:`TKGDataset`."""

    def __init__(self, config: TrainConfig = TrainConfig()):
        self.config = config

    def _train_batches(self, dataset: TKGDataset, context: HistoryContext):
        """The epoch's training batches under the configured schedule.

        With the full two-phase set, one batch per timestamp holds both
        phases (the original LogCL/RE-GCN schedule, halving encoder work
        per epoch); ablation configs with a single phase keep the split
        iterator.
        """
        cfg = self.config
        if set(cfg.phases) == set(PHASES):
            return iter_joint_timestep_batches(dataset, "train", context,
                                               min_history=cfg.min_history)
        return iter_timestep_batches(dataset, "train", context,
                                     phases=cfg.phases,
                                     min_history=cfg.min_history)

    def fit(self, model: ExtrapolationModel, dataset: TKGDataset,
            context: Optional[HistoryContext] = None,
            telemetry: Telemetry = NULL_TELEMETRY) -> TrainResult:
        """Train ``model``; optionally record telemetry.

        When a :class:`repro.obs.Telemetry` is given, each epoch is
        wrapped in an ``epoch`` span with nested ``epoch/train`` (and
        per-step ``epoch/train/step``) and ``epoch/eval`` spans, gradient
        norms are observed pre/post clip, and the global parameter norm
        plus its per-epoch drift land in the ``param_norm`` /
        ``param_norm_drift`` series.  Attach a JSONL sink beforehand
        (:meth:`repro.obs.Telemetry.attach_trace`) to stream every span
        as a trace event (``repro.cli train --trace``).
        """
        cfg = self.config
        if context is None:
            context = HistoryContext(dataset, window=cfg.window,
                                     telemetry=telemetry)
        elif telemetry is not NULL_TELEMETRY:
            context.bind_telemetry(telemetry)
        optimizer = Adam(model.parameters(), lr=cfg.lr)
        result = TrainResult()
        started = time.perf_counter()
        stale_evals = 0
        drift = ParamDrift(telemetry)
        # The parameter set is static across a fit; walking the module
        # tree once here keeps the per-step grad-clip off the recursive
        # ``named_parameters`` path (~0.5ms/step at benchmark scale).
        param_list = model.parameters()

        for epoch in range(cfg.epochs):
            with telemetry.span("epoch"):
                model.train()
                context.reset()
                epoch_losses: List[float] = []
                with telemetry.span("train"):
                    for batch in self._train_batches(dataset, context):
                        with telemetry.span("step"):
                            optimizer.zero_grad()
                            loss = model.loss_on(batch)
                            loss.backward()
                            clip_grad_norm(param_list, cfg.grad_clip,
                                           telemetry=telemetry)
                            optimizer.step()
                        epoch_losses.append(float(loss.data))
                        telemetry.incr("train_steps")
                mean_loss = (float(np.mean(epoch_losses))
                             if epoch_losses else 0.0)
                result.train_losses.append(mean_loss)
                result.epochs_run = epoch + 1
                telemetry.incr("epochs")
                telemetry.observe("epoch_loss", mean_loss)
                drift.update(model.parameters())

                run_eval = ((epoch + 1) % cfg.eval_every == 0
                            or epoch == cfg.epochs - 1)
                if run_eval:
                    with telemetry.span("eval"):
                        metrics = evaluate(model, dataset, "valid",
                                           context=context, phases=cfg.phases,
                                           telemetry=telemetry)
                    result.valid_mrrs.append(metrics["mrr"])
                    improved = metrics["mrr"] > result.best_valid_mrr
                    if improved:
                        result.best_valid_mrr = metrics["mrr"]
                        result.best_state = model.state_dict()
                        stale_evals = 0
                    else:
                        stale_evals += 1
                    if cfg.verbose:
                        print(f"epoch {epoch + 1:3d}  loss {mean_loss:8.4f}  "
                              f"valid MRR {metrics['mrr']:6.2f}"
                              f"{'  *' if improved else ''}")
                    if stale_evals >= cfg.patience:
                        break
                elif cfg.verbose:
                    print(f"epoch {epoch + 1:3d}  loss {mean_loss:8.4f}")

        if result.best_state is not None:
            model.load_state_dict(result.best_state)
        result.seconds = time.perf_counter() - started
        return result

    def test(self, model: ExtrapolationModel, dataset: TKGDataset,
             context: Optional[HistoryContext] = None,
             telemetry: Telemetry = NULL_TELEMETRY) -> Dict[str, float]:
        """Evaluate on the test split with the paper's protocol."""
        with telemetry.span("test"):
            return evaluate(model, dataset, "test", context=context,
                            window=self.config.window, phases=self.config.phases,
                            telemetry=telemetry)


def export_history(result: TrainResult, path: str) -> None:
    """Write a TrainResult's curves to JSON for external plotting.

    The archive holds the per-epoch training loss, the validation MRR
    trace (one entry per evaluation), the best validation MRR and the
    wall-clock duration — everything needed to reproduce a learning
    curve without re-running training.
    """
    import json
    import os
    payload = {
        "train_losses": result.train_losses,
        "valid_mrrs": result.valid_mrrs,
        "best_valid_mrr": result.best_valid_mrr,
        "epochs_run": result.epochs_run,
        "seconds": result.seconds,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def load_history(path: str) -> TrainResult:
    """Load curves exported by :func:`export_history` (no best_state)."""
    import json
    with open(path) as handle:
        payload = json.load(handle)
    return TrainResult(
        train_losses=payload["train_losses"],
        valid_mrrs=payload["valid_mrrs"],
        best_valid_mrr=payload["best_valid_mrr"],
        epochs_run=payload["epochs_run"],
        seconds=payload["seconds"])
