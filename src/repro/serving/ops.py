"""Event-intelligence serving ops: anomaly ``score`` and horizon ``forecast``.

The serving stack consumed the model only through ``predict``/``rank``;
this module adds the two ops that treat a trained TKG model as an event
intelligence service:

* **score** — the model's calibrated likelihood of an *observed*
  ``(s, r, o, t)`` fact.  Each fact's probability comes from the same
  softmax every top-k front-end uses; calibration turns it into an
  anomaly flag by comparing against an empirical-quantile threshold fit
  on a **rolling reference window of in-stream scores** (the scores of
  the facts the engine itself ingested, computed on the write path).
* **forecast** — top-k ``(s, r, ?)`` completions for a *future
  horizon*, each carrying per-pattern provenance attribution
  (:func:`repro.analysis.patterns.attribute_completions`: local-window
  vs global-history evidence, paper §III-C / §III-D) and the store
  watermark the forecast was computed at.

Consistency contract: both ops are **pure reads** — they never mutate
calibration state.  The calibrator updates only inside
:meth:`repro.serving.engine.InferenceEngine.advance` (scoring the newly
ingested snapshot against pre-advance history), so N replicas replaying
one delta stream hold bitwise-identical calibration state and the
replica-set router's round-robin dispatch stays bitwise-identical to a
single serialized engine.  The same write-path scoring feeds the
:class:`repro.obs.DriftMonitor` (score-distribution shift, per-pattern
hit-rate decay), making ``/stats`` production model monitoring.

The JSONL surface of both ops lives in
:mod:`repro.serving.protocol`; this module owns the engine-side
handlers, the calibration state and its persistence arrays (carried in
``serving_state()`` and the ``__serving_calibration__`` snapshot key).
See ``docs/ops.md`` for the operator guide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..analysis.patterns import attribute_completions
from ..eval.metrics import ranks_of_targets
from ..obs.drift import DriftMonitor


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs for in-stream score calibration (one per engine).

    ``quantile`` is the anomaly threshold's position in the reference
    score distribution: a fact scoring below the empirical
    ``quantile``-quantile of recent in-stream scores is flagged.
    ``reference_size`` bounds the rolling window; ``min_samples`` is
    the warm-up floor below which no flag is emitted (``anomalous``
    stays ``null``).  ``hit_k`` is the top-k cut used for the drift
    monitor's per-pattern hit tracking of ingested facts.
    """

    quantile: float = 0.05
    reference_size: int = 512
    min_samples: int = 32
    hit_k: int = 10

    def validate(self) -> None:
        """Reject configurations the calibrator cannot realize."""
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.reference_size < 1:
            raise ValueError("reference_size must be >= 1")
        if self.min_samples < 1 or self.min_samples > self.reference_size:
            raise ValueError("min_samples must be in "
                             "[1, reference_size]")
        if self.hit_k < 1:
            raise ValueError("hit_k must be >= 1")


class ScoreCalibrator:
    """Empirical-quantile anomaly threshold over a rolling score window.

    The reference window holds the most recent ``reference_size``
    in-stream scores (fed by the engine's ``advance`` hook, in
    ingestion order).  The threshold is the nearest-rank
    ``quantile``-quantile of that window — the same percentile
    convention as :meth:`repro.obs.StageStats.percentile`, so the two
    observability surfaces agree on what "p05" means.  All state is a
    bounded float array; :meth:`state_array` / :meth:`restore` give the
    persistence round-trip the engine snapshot uses.
    """

    def __init__(self, config: Optional[CalibrationConfig] = None):
        self.config = config or CalibrationConfig()
        self.config.validate()
        self._scores: List[float] = []

    @property
    def samples(self) -> int:
        """How many scores the rolling reference currently holds."""
        return len(self._scores)

    @property
    def ready(self) -> bool:
        """Whether enough in-stream scores exist to flag anomalies."""
        return self.samples >= self.config.min_samples

    def observe(self, scores: np.ndarray) -> None:
        """Append in-stream scores, evicting past ``reference_size``."""
        self._scores.extend(float(s) for s in np.ravel(scores))
        overflow = len(self._scores) - self.config.reference_size
        if overflow > 0:
            del self._scores[:overflow]

    def threshold(self) -> Optional[float]:
        """The empirical-quantile anomaly threshold (None while cold)."""
        if not self.ready:
            return None
        ordered = sorted(self._scores)
        rank = min(len(ordered) - 1,
                   max(0, int(np.ceil(self.config.quantile * len(ordered)))
                       - 1))
        return ordered[rank]

    def quantile_of(self, score: float) -> Optional[float]:
        """Fraction of the reference window at or below ``score``."""
        if not self.ready:
            return None
        ordered = np.sort(np.asarray(self._scores, dtype=np.float64))
        return float(np.searchsorted(ordered, float(score), side="right")
                     / len(ordered))

    def flag(self, score: float) -> Optional[bool]:
        """Whether ``score`` is anomalous (None while warming up)."""
        return self.flags([score])[0]

    def flags(self, scores) -> List[Optional[bool]]:
        """:meth:`flag` of each score, against one threshold built once."""
        threshold = self.threshold()
        if threshold is None:
            return [None] * np.size(scores)
        return [bool(float(score) < threshold) for score in np.ravel(scores)]

    # -- persistence ----------------------------------------------------
    def state_array(self) -> np.ndarray:
        """The rolling reference as one float64 array (oldest first)."""
        return np.asarray(self._scores, dtype=np.float64)

    def restore(self, scores: np.ndarray) -> None:
        """Replace the rolling reference with a persisted window."""
        self._scores = []
        self.observe(np.asarray(scores, dtype=np.float64))


class CalibrationState:
    """An engine's mutable calibration half: calibrator + drift monitor.

    Attached by :meth:`InferenceEngine.enable_calibration`; the config
    rides in the immutable :class:`repro.serving.engine.ReadState` so
    spawned replicas re-enable identically, while this object (the
    rolling window and the drift windows) is private per engine and
    rebuilt deterministically from the delta stream.
    """

    def __init__(self, config: CalibrationConfig, telemetry=None):
        self.config = config
        self.calibrator = ScoreCalibrator(config)
        # The drift reference is the same window the threshold is fit
        # on, so score_shift reads as "how far has the stream moved
        # from the calibration regime".
        self.monitor = DriftMonitor(telemetry=telemetry,
                                    reference_size=config.reference_size)

    def ingest(self, engine, facts: np.ndarray, time: int) -> None:
        """Score one about-to-be-ingested snapshot and update calibration.

        Called by ``advance`` *before* the facts extend the history, so
        each fact is scored under the extrapolation contract (history
        ``< time`` only).  Per fact, in deterministic order: flag
        against the pre-update threshold, feed the drift monitor, then
        roll the score into the reference window.  One batched forward
        scores the whole snapshot — batch composition is the snapshot
        itself, identical on every replica.
        """
        facts = np.asarray(facts)
        if not len(facts) or engine.last_time is None:
            return
        with engine.stats.time("calibrate"):
            scored = score_facts(engine, facts[:, 0], facts[:, 1],
                                 facts[:, 2], time=int(time))
            flags = self.calibrator.flags(scored.prob)
            for prob, flagged in zip(scored.prob, flags):
                self.monitor.observe_score(float(prob), anomalous=flagged)
            for label, hit in zip(scored.evidence,
                                  scored.rank <= self.config.hit_k):
                self.monitor.observe_pattern(label, bool(hit))
            self.calibrator.observe(scored.prob)
            engine.stats.incr("facts_calibrated", len(facts))


@dataclass
class FactScores:
    """Batched score-op results as aligned arrays (one row per fact)."""

    prob: np.ndarray        # softmax probability of the observed object
    rank: np.ndarray        # 1-based mean-tie rank of the object
    evidence: List[str]     # provenance class per fact (EVIDENCE_LABELS)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted softmax over a ``(Q, |E|)`` score matrix.

    The same normalization :func:`repro.eval.metrics.softmax_topk`
    applies per row, vectorized over the batch — so a fact's ``score``
    probability and its entity's ``predict`` probability agree exactly.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    shift = scores.max(axis=1, keepdims=True)
    exp = np.exp(scores - shift)
    return exp / exp.sum(axis=1, keepdims=True)


def score_facts(engine, subjects: np.ndarray, relations: np.ndarray,
                objects: np.ndarray, time: Optional[int] = None
                ) -> FactScores:
    """Model likelihoods of observed facts at one timestamp (pure read).

    One batched :meth:`InferenceEngine.predict` forward scores the
    ``(subject, relation)`` queries (the fact batch is the forward
    batch), then each observed object's softmax probability and
    mean-tie rank are read off the score matrix.  Evidence labels come
    from the same provenance join the ``forecast`` op uses.
    """
    subjects = np.ascontiguousarray(subjects, dtype=np.int64)
    relations = np.ascontiguousarray(relations, dtype=np.int64)
    objects = np.ascontiguousarray(objects, dtype=np.int64)
    if not (subjects.shape == relations.shape == objects.shape) \
            or subjects.ndim != 1:
        raise ValueError("subjects/relations/objects must be aligned "
                         "1-D arrays")
    if len(objects) and (objects.min() < 0
                         or objects.max() >= engine.num_entities):
        raise ValueError(f"objects must be entity ids in "
                         f"[0, {engine.num_entities})")
    query_time = engine.next_time if time is None else int(time)
    scores = engine.predict(subjects, relations, time=query_time)
    # softmax_rows(scores)[arange, objects] with one (Q, |E|) float64
    # buffer, shifted and exponentiated in place, and only the gathered
    # entries divided: the same float64 operations, so bitwise the same
    # values.
    exp = np.array(scores, dtype=np.float64, ndmin=2)
    exp -= exp.max(axis=1, keepdims=True)
    np.exp(exp, out=exp)
    fact_probs = exp[np.arange(len(objects)), objects] / exp.sum(axis=1)
    ranks = ranks_of_targets(scores, objects)
    evidence = []
    snapshots = engine.window_before(query_time)
    counts = engine.history_index_at(query_time).fact_counts(
        subjects, relations, objects)
    for s, r, o, count in zip(subjects.tolist(), relations.tolist(),
                              objects.tolist(), counts.tolist()):
        row = attribute_completions([o], s, r, snapshots, {o: count})[0]
        evidence.append(str(row["evidence"]))
    return FactScores(prob=fact_probs, rank=ranks, evidence=evidence)


def score_response(engine, subjects: np.ndarray, relations: np.ndarray,
                   objects: np.ndarray, time: Optional[int] = None
                   ) -> Dict[str, Any]:
    """The ``score`` op's response body (without protocol id echo).

    Per fact: the probability, rank, the fact's position in the
    calibration reference distribution (``quantile``) and the anomaly
    flag — ``null`` while calibration is disabled or still warming up,
    never a guess.  The payload carries the watermark it was computed
    at plus the calibration contract itself (threshold, sample count),
    so operators can audit every flag.
    """
    query_time = engine.next_time if time is None else int(time)
    scored = score_facts(engine, subjects, relations, objects,
                         time=query_time)
    calibration = engine.calibration
    results = []
    for prob, rank in zip(scored.prob, scored.rank):
        row: Dict[str, Any] = {"prob": round(float(prob), 6),
                               "rank": round(float(rank), 6)}
        if calibration is None:
            row["quantile"] = None
            row["anomalous"] = None
        else:
            quantile = calibration.calibrator.quantile_of(float(prob))
            row["quantile"] = None if quantile is None \
                else round(quantile, 6)
            row["anomalous"] = calibration.calibrator.flag(float(prob))
        results.append(row)
    payload: Dict[str, Any] = {
        "ok": True, "op": "score", "time": query_time,
        "watermark": engine.watermark, "results": results}
    if calibration is None:
        payload["calibration"] = None
    else:
        threshold = calibration.calibrator.threshold()
        payload["calibration"] = {
            "samples": calibration.calibrator.samples,
            "quantile": calibration.config.quantile,
            "threshold": None if threshold is None
            else round(threshold, 9)}
    engine.stats.incr("facts_scored", len(results))
    return payload


def forecast_response(engine, subjects: np.ndarray, relations: np.ndarray,
                      horizon: int = 1, k: int = 10,
                      filtered: bool = False) -> Dict[str, Any]:
    """The ``forecast`` op's response body (without protocol id echo).

    Top-``k`` completions per query at the horizon timestamp
    ``next_time + horizon - 1``, scored through
    :meth:`InferenceEngine.predict_horizon` (which anchors the
    historical subgraph at ``next_time``, so forecasting far ahead
    never pins the monotonic index past the ingested horizon — the
    next ``predict`` at ``next_time`` still works, on every replica).
    Each completion carries the provenance attribution of
    :func:`repro.analysis.patterns.attribute_completions` and the
    response is stamped with the watermark the forecast was computed
    at — the freshness token a consumer must check before acting.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if k < 1:
        raise ValueError("topk must be >= 1")
    subjects = np.ascontiguousarray(subjects, dtype=np.int64)
    relations = np.ascontiguousarray(relations, dtype=np.int64)
    anchor = engine.next_time
    target = anchor + horizon - 1
    scores = engine.predict_horizon(subjects, relations, steps=horizon)
    from .engine import filtered_topk_rows
    rows = filtered_topk_rows(scores, subjects, relations, target, k,
                              engine.filter if filtered else None)
    snapshots = engine.window_before(anchor)
    entities = [[entity for entity, _ in row] for row in rows]
    sizes = [len(row) for row in entities]
    counts = iter(engine.history_index_at(anchor).fact_counts(
        np.repeat(subjects, sizes), np.repeat(relations, sizes),
        np.array([e for row in entities for e in row], dtype=np.int64)
    ).tolist())
    results = []
    for s, r, row, wanted in zip(subjects.tolist(), relations.tolist(),
                                 rows, entities):
        provenance = attribute_completions(
            wanted, s, r, snapshots, {e: next(counts) for e in wanted})
        results.append([
            {"entity": int(entity), "prob": round(float(prob), 6),
             "provenance": fields}
            for (entity, prob), fields in zip(row, provenance)])
    engine.stats.incr("forecasts_served", len(results))
    return {"ok": True, "op": "forecast", "time": target,
            "horizon": horizon, "watermark": engine.watermark,
            "results": results}


def anomaly_auc(scores: np.ndarray, corrupted: np.ndarray) -> float:
    """ROC-AUC of "low score ⇒ corrupted" (rank-based, tie-aware).

    The Mann–Whitney formulation: the probability that a randomly
    drawn corrupted fact scores *below* a randomly drawn clean one
    (ties count half).  1.0 is a perfect anomaly detector, 0.5 a coin
    flip.  Used by ``benchmarks/test_anomaly_roc.py`` to grade the
    ``score`` op on injected-corruption streams.
    """
    scores = np.asarray(scores, dtype=np.float64)
    corrupted = np.asarray(corrupted, dtype=bool)
    if scores.shape != corrupted.shape or scores.ndim != 1:
        raise ValueError("scores and corrupted must be aligned 1-D arrays")
    positives = int(corrupted.sum())
    negatives = len(corrupted) - positives
    if not positives or not negatives:
        raise ValueError("need at least one corrupted and one clean fact")
    # Ascending mean-tie ranks (rank 1 = lowest score): U counts how
    # often a corrupted fact outranks a clean one, so 1 - U/(P*N) is
    # the probability the detector orders a random pair correctly.
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    # Average tied groups so equal scores share one rank.
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    for start, end in zip(starts, ends):
        if end - start > 1:
            ranks[order[start:end]] = (start + 1 + end) / 2.0
    rank_sum = float(ranks[corrupted].sum())
    u = rank_sum - positives * (positives + 1) / 2.0
    return 1.0 - u / (positives * negatives)
