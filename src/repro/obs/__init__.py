"""``repro.obs`` — process-wide telemetry: counters, spans, JSONL traces.

The observability layer every subsystem reports through: the trainer
(per-epoch loss/grad/eval spans), the evaluation protocol (context-build
vs forward vs ranking), the online-learning pass and the serving engine
(``InferenceEngine.stats`` is a :class:`Telemetry` named ``serving``).
:mod:`repro.obs.drift` builds production model monitoring on top:
score-distribution shift and per-pattern hit-rate decay as standing
scalar series.  See ``docs/observability.md``.
"""

from .drift import DriftMonitor, ks_statistic
from .hooks import ParamDrift, global_grad_norm, global_param_norm
from .telemetry import (NULL_TELEMETRY, NullTelemetry, StageStats, Telemetry,
                        get_telemetry, read_trace, registered_telemetry)

__all__ = [
    "Telemetry", "StageStats", "NullTelemetry", "NULL_TELEMETRY",
    "get_telemetry", "registered_telemetry", "read_trace",
    "ParamDrift", "global_grad_norm", "global_param_norm",
    "DriftMonitor", "ks_statistic",
]
