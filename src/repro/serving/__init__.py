"""``repro.serving`` — incremental online inference with cached state.

The inference half of the training/inference stack: load a trained
checkpoint, stream snapshots in with :meth:`InferenceEngine.advance`,
answer ``(s, r, t, ?)`` queries with :meth:`InferenceEngine.predict`,
observe latency and cache behaviour through the engine's
:class:`repro.obs.Telemetry` registry (``engine.stats``).  For a
long-lived service surface, :mod:`repro.serving.daemon` runs the engine
behind an asyncio JSONL-over-TCP server with admission control, one
engine job per request and snapshot/restore; the request schema
lives in :mod:`repro.serving.protocol`.

For read scaling, the engine is a read/write split
(:class:`ReadState` / :class:`DeltaState`): :mod:`repro.serving.replica`
spawns N worker processes over one shared read state (one physical copy
of the mmap-backed store file) and :mod:`repro.serving.router` fronts
them — round-robin reads, all-ack ``advance`` fan-out, watermark
consistency handshake, and an HTTP ``/healthz`` / ``/readyz`` /
``/stats`` surface.  Both servers share one lifecycle
(:mod:`repro.serving.server`): build one, then run it with
:func:`serve_in_thread` or :func:`run_server`.  See ``docs/serving.md``.

On top of prediction, :mod:`repro.serving.ops` adds the fact-level
serving ops: calibrated ``score`` (likelihood + anomaly flag against an
empirical-quantile threshold fit on the in-stream calibration window)
and ``forecast`` (top-k future completions with per-pattern provenance
through :mod:`repro.analysis.patterns`), with distribution-drift
telemetry from :class:`repro.obs.DriftMonitor`.  See ``docs/ops.md``.
"""

from . import protocol
from .daemon import DaemonConfig, EngineExecutor, ServingDaemon
from .engine import DeltaState, InferenceEngine, ReadState, filtered_topk_rows
from .ops import (CalibrationConfig, CalibrationState, FactScores,
                  ScoreCalibrator, anomaly_auc, forecast_response,
                  score_facts, score_response, softmax_rows)
from .replica import (ForkedReplica, LocalReplica, ReplicaWorker,
                      fork_replicas_available, start_replica_set)
from .router import ReplicaSetRouter, RouterConfig
from .server import JSONLServer, ServerHandle, run_server, serve_in_thread

__all__ = [
    "InferenceEngine", "ReadState", "DeltaState", "filtered_topk_rows",
    "CalibrationConfig", "CalibrationState", "ScoreCalibrator",
    "FactScores", "score_facts", "score_response", "forecast_response",
    "anomaly_auc", "softmax_rows",
    "JSONLServer", "ServerHandle", "serve_in_thread", "run_server",
    "ServingDaemon", "DaemonConfig", "EngineExecutor",
    "ReplicaWorker", "LocalReplica", "ForkedReplica",
    "fork_replicas_available", "start_replica_set",
    "ReplicaSetRouter", "RouterConfig",
    "protocol",
]
