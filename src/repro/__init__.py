"""LogCL reproduction — Local-Global History-Aware Contrastive Learning
for Temporal Knowledge Graph Reasoning (Chen et al., ICDE 2024).

Quickstart::

    from repro import LogCL, LogCLConfig, Trainer, TrainConfig
    from repro.datasets import load_preset

    dataset = load_preset("tiny")
    model = LogCL(LogCLConfig(dim=32, window=3),
                  dataset.num_entities, dataset.num_relations)
    trainer = Trainer(TrainConfig(epochs=10))
    trainer.fit(model, dataset)
    print(trainer.test(model, dataset))

Package map
-----------
``repro.nn``         from-scratch numpy autodiff + layers + optimizers
``repro.tkg``        temporal KG substrate (facts, snapshots, filters, IO)
``repro.datasets``   synthetic ICEWS/GDELT-style benchmark presets
``repro.graph``      R-GCN / CompGCN / KBGAT message passing
``repro.core``       the LogCL model itself
``repro.baselines``  10 re-implemented comparison systems
``repro.eval``       MRR/Hits@k with time-aware filtering
``repro.training``   offline trainer, online protocol, checkpoints
``repro.serving``    incremental online inference engine, daemon and router
``repro.obs``        process-wide telemetry: counters, spans, JSONL traces
``repro.robustness`` Gaussian-noise sweeps
"""

from .core import LogCL, LogCLConfig
from .interface import ExtrapolationModel
from .training import (HistoryContext, OnlineConfig, TrainConfig, Trainer,
                       TrainResult, evaluate_online)
from .serving import InferenceEngine
from .eval import evaluate, format_metric_row
from .obs import Telemetry, get_telemetry

__version__ = "1.0.0"

__all__ = [
    "LogCL", "LogCLConfig", "ExtrapolationModel",
    "Trainer", "TrainConfig", "TrainResult", "HistoryContext",
    "OnlineConfig", "evaluate_online",
    "InferenceEngine",
    "evaluate", "format_metric_row",
    "Telemetry", "get_telemetry",
    "__version__",
]
