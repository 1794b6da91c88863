"""Serving ops: calibrated score, horizon forecast, drift telemetry.

The contract under test: ``score``/``forecast`` are pure reads (all
calibration mutation rides the ``advance`` write path), forecasting
ahead never pins the monotonic history index, and the calibration
window survives a snapshot restart bit-for-bit.
"""

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.analysis import (EVIDENCE_LABELS, attribute_completions,
                            evidence_label)
from repro.datasets import load_preset
from repro.eval import ranks_of_targets
from repro.interface import ScoreFactors
from repro.obs import DriftMonitor, ks_statistic
from repro.serving import (CalibrationConfig, InferenceEngine,
                           ScoreCalibrator, anomaly_auc, protocol,
                           score_facts, softmax_rows)
from repro.serving import ops as serving_ops
from repro.training import load_engine_state, save_engine_state


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


def _engine(dataset, seed=0, calibrate=True):
    model = LogCL(LogCLConfig(dim=16, window=3, seed=seed),
                  dataset.num_entities, dataset.num_relations).eval()
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=3)
    if calibrate:
        engine.enable_calibration(CalibrationConfig(
            quantile=0.1, reference_size=64, min_samples=8))
    return engine


def _preload(engine, dataset, timesteps=6):
    facts = engine_facts = dataset.train.array
    times = sorted(set(engine_facts[:, 3].tolist()))[:timesteps]
    for t in times:
        snap = facts[facts[:, 3] == t]
        engine.advance(snap[:, :3], time=int(t))
    return engine


class TestScoreCalibrator:
    def test_warmup_returns_none(self):
        cal = ScoreCalibrator(CalibrationConfig(min_samples=4,
                                                reference_size=8))
        cal.observe(np.array([0.5, 0.6]))
        assert cal.threshold() is None
        assert cal.flag(0.01) is None
        assert cal.quantile_of(0.5) is None
        assert not cal.ready

    def test_nearest_rank_threshold_and_flag(self):
        cal = ScoreCalibrator(CalibrationConfig(
            quantile=0.1, min_samples=10, reference_size=100))
        cal.observe(np.arange(1, 11) / 10.0)  # 0.1 .. 1.0
        # nearest-rank ceil(0.1 * 10) = 1st order statistic
        assert cal.threshold() == pytest.approx(0.1)
        assert cal.flag(0.05) is True
        assert cal.flag(0.1) is False   # at the threshold is not below
        assert cal.quantile_of(0.1) == pytest.approx(0.1)

    def test_window_bounded_and_rolls(self):
        cal = ScoreCalibrator(CalibrationConfig(
            reference_size=4, min_samples=2))
        cal.observe(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        assert cal.samples == 4
        np.testing.assert_array_equal(cal.state_array(),
                                      [3.0, 4.0, 5.0, 6.0])

    def test_restore_round_trip(self):
        cal = ScoreCalibrator(CalibrationConfig(
            quantile=0.25, min_samples=2, reference_size=16))
        cal.observe(np.array([0.3, 0.1, 0.9, 0.4]))
        other = ScoreCalibrator(cal.config)
        other.restore(cal.state_array())
        assert other.threshold() == cal.threshold()
        assert other.samples == cal.samples

    def test_batched_flags_match_per_score_flag(self):
        rng = np.random.default_rng(0)
        cal = ScoreCalibrator(CalibrationConfig(
            quantile=0.2, min_samples=8, reference_size=32))
        scores = rng.random(12)
        assert cal.flags(scores) == [None] * 12      # still warming up
        cal.observe(rng.random(40))
        # Ties with the threshold itself must read "not below".
        scores = np.concatenate([scores, [cal.threshold()]])
        assert cal.flags(scores) == [cal.flag(p) for p in scores]
        assert cal.flags([]) == []

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            CalibrationConfig(quantile=1.5).validate()
        with pytest.raises(ValueError, match="min_samples"):
            CalibrationConfig(min_samples=99,
                              reference_size=10).validate()


class TestEvidenceLabels:
    def test_label_classes(self):
        assert evidence_label(2, 5) == "local+global"
        assert evidence_label(0, 3) == "global"
        assert evidence_label(0, 0) == "none"
        assert set(EVIDENCE_LABELS) >= {"local+global", "local",
                                        "global", "none"}


class TestScoreOp:
    def test_score_schema_and_calibration_block(self, dataset):
        engine = _preload(_engine(dataset), dataset)
        facts = dataset.valid.array[:5]
        t = engine.next_time
        resp = protocol.handle_request(engine, {
            "op": "score",
            "facts": [[int(s), int(r), int(o), int(t)]
                      for s, r, o in facts[:, :3]],
            "id": "s1"})
        assert resp["ok"] and resp["op"] == "score"
        assert resp["id"] == "s1"
        assert resp["watermark"] == engine.watermark
        assert len(resp["results"]) == 5
        for row in resp["results"]:
            assert 0.0 <= row["prob"] <= 1.0
            assert row["rank"] >= 1.0
            assert isinstance(row["anomalous"], bool)
            assert 0.0 <= row["quantile"] <= 1.0
        cal = resp["calibration"]
        assert cal["samples"] > 0 and cal["quantile"] == 0.1
        assert cal["threshold"] is not None

    def test_score_is_a_pure_read(self, dataset):
        """Scoring must not move the calibration window (replica safety)."""
        engine = _preload(_engine(dataset), dataset)
        before = engine.calibration.calibrator.state_array().copy()
        facts = dataset.valid.array[:4]
        protocol.handle_request(engine, {
            "op": "score", "facts": facts[:, :3].tolist()})
        np.testing.assert_array_equal(
            engine.calibration.calibrator.state_array(), before)

    def test_uncalibrated_engine_scores_with_null_flags(self, dataset):
        engine = _preload(_engine(dataset, calibrate=False), dataset,
                          timesteps=4)
        facts = dataset.valid.array[:3]
        resp = protocol.handle_request(engine, {
            "op": "score", "facts": facts[:, :3].tolist()})
        assert resp["ok"]
        assert resp["calibration"] is None
        assert all(row["anomalous"] is None and row["quantile"] is None
                   for row in resp["results"])

    def test_probability_matches_predict_softmax(self, dataset):
        engine = _preload(_engine(dataset), dataset)
        facts = dataset.valid.array[:4]
        s, r, o = (facts[:, 0].copy(), facts[:, 1].copy(),
                   facts[:, 2].copy())
        t = engine.next_time
        scores = engine.predict(s, r, time=t)
        expected = softmax_rows(scores)[np.arange(len(o)), o]
        resp = protocol.handle_request(engine, {
            "op": "score",
            "facts": np.column_stack([s, r, o]).tolist(), "time": int(t)})
        got = np.array([row["prob"] for row in resp["results"]])
        np.testing.assert_allclose(got, np.round(expected, 6), atol=1e-9)

    def test_fact_probabilities_bitwise_equal_softmax_rows(self, dataset):
        engine = _preload(_engine(dataset), dataset)
        facts = dataset.valid.array[:7]
        t = engine.next_time
        scored = score_facts(engine, facts[:, 0], facts[:, 1], facts[:, 2],
                             time=t)
        scores = engine.predict(facts[:, 0], facts[:, 1], time=t)
        expected = softmax_rows(scores)[np.arange(len(facts)), facts[:, 2]]
        assert scored.prob.dtype == expected.dtype
        np.testing.assert_array_equal(scored.prob, expected)

    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_batched_evidence_matches_attribute_completions(
            self, dataset, monkeypatch, block_rows):
        """One window join labels every fact as the per-fact
        ``attribute_completions`` oracle does, and the row-blocked
        softmax (one block, or several with a partial last one) gives
        ``softmax_rows``'s bits."""
        if block_rows is not None:
            monkeypatch.setattr(serving_ops, "_SOFTMAX_BLOCK",
                                block_rows * dataset.num_entities)
        engine = _preload(_engine(dataset), dataset)
        t = engine.next_time
        window = engine.window_before(t)
        recent = np.column_stack([window[-1].src, window[-1].rel,
                                  window[-1].dst])[:6]
        history = dataset.train.array
        older = history[history[:, 3] < window[0].time][:6, :3]
        rng = np.random.default_rng(3)
        unseen = rng.integers(0, dataset.num_entities, (6, 3))
        unseen[:, 1] = rng.integers(0, dataset.num_relations, 6)
        facts = np.concatenate([recent, older, unseen,
                                dataset.valid.array[:6, :3]])
        scored = score_facts(engine, facts[:, 0], facts[:, 1], facts[:, 2],
                             time=t)
        counts = engine.history_index_at(t).fact_counts(
            facts[:, 0], facts[:, 1], facts[:, 2])
        expected = [attribute_completions([o], s, r, window,
                                          {o: c})[0]["evidence"]
                    for (s, r, o), c in zip(facts.tolist(), counts.tolist())]
        assert scored.evidence == expected
        assert {"local+global", "global", "none"} <= set(expected)
        scores = engine.predict(facts[:, 0], facts[:, 1], time=t)
        np.testing.assert_array_equal(
            scored.prob, softmax_rows(scores)[np.arange(len(facts)),
                                              facts[:, 2]])
        np.testing.assert_array_equal(
            scored.rank, ranks_of_targets(scores, facts[:, 2]))

    def test_ingest_flags_match_per_fact_flags(self, dataset, monkeypatch):
        """One threshold per snapshot flags exactly what a per-fact
        ``flag`` against the pre-update window did."""
        engine = _preload(_engine(dataset), dataset)
        calibration = engine.calibration
        before = ScoreCalibrator(calibration.config)
        before.restore(calibration.calibrator.state_array())
        assert before.ready
        observed = []
        monkeypatch.setattr(
            calibration.monitor, "observe_score",
            lambda value, anomalous=None: observed.append((value, anomalous)))
        snap = dataset.valid.array
        snap = snap[snap[:, 3] == snap[:, 3].min()]
        engine.advance(snap[:, :3], time=int(snap[0, 3]))
        assert len(observed) == len(snap)
        assert [flag for _, flag in observed] \
            == [before.flag(value) for value, _ in observed]

    def test_nan_score_refuses_calibrated_advance(self, dataset,
                                                  monkeypatch):
        """A NaN target score fails a calibrated ``advance`` before
        anything is written: history, watermark and calibration window
        stay as they were, and the same snapshot ingests once the model
        scores it again."""
        engine = _preload(_engine(dataset), dataset)
        snap = dataset.valid.array
        snap = snap[snap[:, 3] == snap[:, 3].min()]
        before_time = engine.last_time
        before_window = engine.calibration.calibrator.state_array().copy()
        before_facts = engine.stats.counters["facts_ingested"]
        batch_scores = engine.batch_scores

        def nan_scores(subjects, relations, time=None):
            factors = batch_scores(subjects, relations, time=time)
            assert isinstance(factors, ScoreFactors)
            scores = factors.rows(0, len(subjects))
            scores[1, snap[1, 2]] = np.nan
            return scores

        monkeypatch.setattr(engine, "batch_scores", nan_scores)
        with pytest.raises(ValueError,
                           match=r"NaN target score in query rows \[1\]"):
            engine.advance(snap[:, :3], time=int(snap[0, 3]))
        assert engine.last_time == before_time
        assert engine.stats.counters["facts_ingested"] == before_facts
        np.testing.assert_array_equal(
            engine.calibration.calibrator.state_array(), before_window)
        monkeypatch.setattr(engine, "batch_scores", batch_scores)
        assert engine.advance(snap[:, :3], time=int(snap[0, 3])) == len(snap)
        assert engine.last_time == int(snap[0, 3])

    def test_mixed_timestamps_rejected(self, dataset):
        engine = _preload(_engine(dataset), dataset, timesteps=4)
        with pytest.raises(protocol.RequestError,
                           match="one score call scores one timestamp"):
            protocol.handle_request(engine, {
                "op": "score", "facts": [[0, 0, 1, 3], [0, 0, 1, 4]]})

    def test_bad_object_id_rejected(self, dataset):
        engine = _preload(_engine(dataset), dataset, timesteps=4)
        with pytest.raises(ValueError, match="entity ids"):
            protocol.handle_request(engine, {
                "op": "score",
                "facts": [[0, 0, dataset.num_entities]]})


class TestForecastOp:
    def test_forecast_schema_and_provenance(self, dataset):
        engine = _preload(_engine(dataset), dataset)
        queries = dataset.valid.array[:3, :2]
        anchor = engine.next_time
        resp = protocol.handle_request(engine, {
            "op": "forecast", "queries": queries.tolist(),
            "horizon": 3, "topk": 4, "id": "f1"})
        assert resp["ok"] and resp["op"] == "forecast"
        assert resp["time"] == anchor + 2
        assert resp["horizon"] == 3
        assert resp["watermark"] == engine.watermark
        assert len(resp["results"]) == 3
        for completions in resp["results"]:
            assert len(completions) == 4
            for row in completions:
                prov = row["provenance"]
                assert prov["evidence"] in EVIDENCE_LABELS
                assert prov["global_count"] >= prov["local_count"] >= 0
                if prov["local_count"]:
                    assert prov["last_seen"] is not None

    def test_forecast_never_pins_the_index(self, dataset):
        """Advance at next_time must still work after a far forecast."""
        engine = _preload(_engine(dataset), dataset)
        anchor = engine.next_time
        resp = protocol.handle_request(engine, {
            "op": "forecast", "queries": [[0, 0]], "horizon": 5})
        assert resp["ok"]
        adv = protocol.handle_request(engine, {
            "op": "advance", "time": int(anchor),
            "facts": [[0, 0, 1], [1, 1, 2]]})
        assert adv["ok"], adv

    def test_horizon_one_matches_predict(self, dataset):
        engine = _preload(_engine(dataset), dataset)
        queries = dataset.valid.array[:2, :2]
        s, r = queries[:, 0].copy(), queries[:, 1].copy()
        scores = engine.predict(s, r, time=engine.next_time)
        horizon = engine.predict_horizon(s, r, steps=1)
        np.testing.assert_array_equal(scores, horizon)

    def test_bad_horizon_rejected(self, dataset):
        engine = _preload(_engine(dataset), dataset, timesteps=4)
        for horizon in (0, -2, True, "soon"):
            with pytest.raises(protocol.RequestError, match="horizon"):
                protocol.handle_request(engine, {
                    "op": "forecast", "queries": [[0, 0]],
                    "horizon": horizon})


class TestHorizonViewOverMappedStore:
    """Horizon forecasts of a non-context model read history through
    ``_HorizonView``: over a mapped store with a streamed tail they must
    equal the serial engine that ingested every snapshot itself."""

    def test_copy_model_forecast_matches_the_serial_engine(self, dataset,
                                                           tmp_path):
        from repro.data import write_store_facts
        from repro.registry import build_model
        model = build_model("cygnet", dataset, dim=16, seed=0)
        assert not hasattr(model, "precompute_context")
        path = str(tmp_path / "train.hst")
        write_store_facts(path, dataset.train, dataset.num_entities,
                          dataset.num_relations)
        mapped = InferenceEngine(model, dataset.num_entities,
                                 dataset.num_relations, window=3)
        mapped.use_store_file(path)
        serial = InferenceEngine(model, dataset.num_entities,
                                 dataset.num_relations, window=3)
        serial.preload(dataset)
        for t, snap in sorted(dataset.valid.group_by_time().items()):
            mapped.advance(snap[:, :3], time=int(t))     # the streamed tail
            serial.advance(snap[:, :3], time=int(t))
        assert mapped.watermark == serial.watermark
        queries = dataset.test.array[:12, :2]
        subjects, relations = queries[:, 0].copy(), queries[:, 1].copy()
        anchor = mapped.next_time
        for horizon in (2, 5):
            np.testing.assert_array_equal(
                mapped.predict_horizon(subjects, relations, steps=horizon),
                serial.predict_horizon(subjects, relations, steps=horizon))
            request = {"op": "forecast", "queries": queries.tolist(),
                       "horizon": horizon, "topk": 5}
            assert (protocol.handle_request(mapped, request)
                    == protocol.handle_request(serial, request))
        # The anchored subgraph, over the mapped base's triple index plus
        # the tail, equals the all-tail one.
        for got, want in zip(
                mapped.global_edges(anchor, subjects, relations),
                serial.global_edges(anchor, subjects, relations)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert len(mapped.global_edges(anchor, subjects, relations)[0])


class TestHorizonViewAgainstTargetTimePredict:
    """A non-context model's horizon forecast reads history through
    ``_HorizonView``, anchored at the ingested horizon; with no facts
    between anchor and target it must equal a serial engine's plain
    ``predict`` at the target time."""

    @pytest.mark.parametrize("name", ["regcn", "cygnet"])
    def test_forecast_equals_the_serial_predict(self, dataset, name):
        from repro.registry import build_model
        from repro.serving.engine import filtered_topk_rows
        model = build_model(name, dataset, dim=16, seed=0)
        assert not hasattr(model, "precompute_context")
        engines = [InferenceEngine(model, dataset.num_entities,
                                   dataset.num_relations, window=3)
                   for _ in range(2)]
        for engine in engines:
            engine.preload(dataset)
        forecaster, serial = engines
        queries = dataset.test.array[:10, :2]
        subjects, relations = queries[:, 0].copy(), queries[:, 1].copy()
        anchor = forecaster.next_time
        horizon = 4
        target = anchor + horizon - 1
        want = serial.predict(subjects, relations, time=target)
        got = forecaster.predict_horizon(subjects, relations, steps=horizon)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        response = protocol.handle_request(forecaster, {
            "op": "forecast", "queries": queries.tolist(),
            "horizon": horizon, "topk": 4})
        assert response["ok"] and response["time"] == target
        rows = filtered_topk_rows(want, subjects, relations, target, 4)
        assert [[(c["entity"], c["prob"]) for c in row]
                for row in response["results"]] \
            == [[(e, round(float(p), 6)) for e, p in row] for row in rows]
        # The forecast left the index at the anchor: a predict there
        # still runs.
        forecaster.predict(subjects, relations, time=anchor)


class TestCalibrationPersistence:
    def test_window_survives_snapshot_restart(self, dataset, tmp_path):
        engine = _preload(_engine(dataset), dataset)
        saved_window = engine.calibration.calibrator.state_array().copy()
        assert len(saved_window)
        path = str(tmp_path / "engine_state")
        save_engine_state(engine, path)

        restored = _engine(dataset, seed=1)  # fresh weights, calibration on
        load_engine_state(restored, path)
        np.testing.assert_array_equal(
            restored.calibration.calibrator.state_array(), saved_window)
        assert (restored.calibration.calibrator.threshold()
                == engine.calibration.calibrator.threshold())

    def test_score_identical_after_restart(self, dataset, tmp_path):
        engine = _preload(_engine(dataset), dataset)
        facts = dataset.valid.array[:4]
        t = int(engine.next_time)
        request = {"op": "score",
                   "facts": [[int(s), int(r), int(o), t]
                             for s, r, o in facts[:, :3]]}
        expected = protocol.handle_request(engine, request)
        path = str(tmp_path / "engine_state")
        save_engine_state(engine, path)
        restored = _engine(dataset, seed=1)
        load_engine_state(restored, path)
        assert protocol.handle_request(restored, request) == expected


class TestDriftTelemetry:
    def test_drift_series_reach_stats(self, dataset):
        engine = _preload(_engine(dataset), dataset)
        engine.calibration.monitor.emit()  # final flush before scraping
        resp = protocol.handle_request(engine, {"op": "stats"})
        scalars = resp["stats"]["scalars"]
        drift = {name for name in scalars if name.startswith("drift/")}
        assert "drift/anomaly_rate" in drift
        assert any(name.startswith("drift/hit_rate/") for name in drift)
        assert "calibrate" in resp["stats"]["stages"]
        assert resp["stats"]["counters"]["facts_calibrated"] > 0

    def test_monitor_shift_detects_moved_distribution(self):
        monitor = DriftMonitor(reference_size=32, recent_size=32,
                               emit_every=1000)
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.4, 0.6, size=32):
            monitor.observe_score(float(value))
        for value in rng.uniform(0.0, 0.05, size=32):
            monitor.observe_score(float(value), anomalous=True)
        emitted = monitor.emit()
        assert emitted["drift/score_shift"] > 0.9
        assert emitted["drift/anomaly_rate"] == 1.0

    def test_hit_decay_against_baseline(self):
        monitor = DriftMonitor(baseline_size=4, recent_size=4)
        for _ in range(4):
            monitor.observe_pattern("local", True)
        for _ in range(4):
            monitor.observe_pattern("local", False)
        emitted = monitor.emit()
        assert emitted["drift/hit_rate/local"] == 0.0
        assert emitted["drift/hit_decay/local"] == pytest.approx(1.0)

    def test_ks_statistic_bounds(self):
        same = np.arange(10.0)
        assert ks_statistic(same, same) == 0.0
        assert ks_statistic(np.zeros(5), np.ones(5)) == 1.0


class TestAnomalyAUC:
    def test_perfect_separation(self):
        scores = np.array([0.01, 0.02, 0.8, 0.9])
        corrupted = np.array([True, True, False, False])
        assert anomaly_auc(scores, corrupted) == 1.0
        assert anomaly_auc(scores, ~corrupted) == 0.0

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        corrupted = np.array([True, False, True, False])
        assert anomaly_auc(scores, corrupted) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            anomaly_auc(np.array([0.1, 0.2]), np.array([True, True]))
