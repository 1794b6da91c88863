"""Serving memory stays bounded: the write path holds no score matrix.

A calibrated ``advance`` scores its snapshot one row block at a time and
never touches the score memo, and every watermark move empties the
memo, so nothing computed at an older watermark outlives it.  The
blocked scores are checked bitwise against a full-matrix oracle
(``softmax_rows`` and ``ranks_of_targets`` over ``engine.predict``) at a
shape the row blocks really cut.
"""

import tracemalloc

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.baselines import CyGNet
from repro.eval import ranks_of_targets
from repro.nn.ops import tile_bounds
from repro.serving import (CalibrationConfig, InferenceEngine, score_facts,
                           softmax_rows)

NUM_RELATIONS = 10


def _stream(num_entities, facts_per_snapshot, snapshots, seed=0):
    rng = np.random.default_rng(seed)
    return [np.stack([rng.integers(0, num_entities, facts_per_snapshot),
                      rng.integers(0, NUM_RELATIONS, facts_per_snapshot),
                      rng.integers(0, num_entities, facts_per_snapshot)],
                     axis=1)
            for _ in range(snapshots)]


def _model(name, num_entities):
    if name == "logcl":
        return LogCL(LogCLConfig(dim=16, window=3, seed=0), num_entities,
                     NUM_RELATIONS)
    return CyGNet(num_entities, NUM_RELATIONS, dim=16, seed=0)


def _engine(model, num_entities, history, calibrate=True):
    engine = InferenceEngine(model, num_entities, NUM_RELATIONS, window=3)
    if calibrate:
        engine.enable_calibration(CalibrationConfig(
            quantile=0.1, reference_size=256, min_samples=8))
    for t, snap in enumerate(history):
        engine.advance(snap, time=t)
    return engine


@pytest.mark.parametrize("calibrate", [True, False])
def test_memo_holds_no_entry_from_an_older_watermark(calibrate):
    """After an advance, calibrated or not, the memo is empty: neither
    the calibration scoring nor a read at the advanced time leaves a
    matrix behind that no later query can reach."""
    num_entities = 64
    *history, snap = _stream(num_entities, 20, 5)
    engine = _engine(_model("logcl", num_entities), num_entities, history,
                     calibrate=calibrate)
    t = engine.next_time
    engine.predict(snap[:, 0], snap[:, 1], time=t)
    memo = engine._score_cache
    assert len(memo) == 1
    assert {key[0] for key in memo} == {engine.watermark}
    engine.advance(snap, time=t)
    assert len(memo) == 0
    engine.predict(snap[:, 0], snap[:, 1])
    assert {key[0] for key in memo} == {engine.watermark}


@pytest.mark.parametrize("name", ["logcl", "cygnet"])
def test_calibrated_advance_bitwise_equals_full_matrix_oracle(name,
                                                               monkeypatch):
    """Probabilities, ranks, flags and the calibrator window of the
    row-blocked write path equal the full-matrix oracle bit for bit, at
    a shape cut into several row blocks."""
    num_entities, num_facts = 4096, 200
    assert len(tile_bounds(num_facts, num_entities * 4)) - 1 >= 2
    *history, snap = _stream(num_entities, num_facts, 5)
    engine = _engine(_model(name, num_entities), num_entities, history)
    oracle = _engine(_model(name, num_entities), num_entities, history)
    t = engine.next_time
    s, r, o = snap[:, 0], snap[:, 1], snap[:, 2]

    scores = oracle.predict(s, r, time=t)
    assert scores.shape == (num_facts, num_entities)
    probs = softmax_rows(scores)[np.arange(num_facts), o]
    ranks = ranks_of_targets(scores, o)
    flags = oracle.calibration.calibrator.flags(probs)
    oracle.calibration.calibrator.observe(probs)

    scored = score_facts(engine, s, r, o, time=t)
    np.testing.assert_array_equal(scored.prob, probs)
    np.testing.assert_array_equal(scored.rank, ranks)
    observed = []
    monkeypatch.setattr(
        engine.calibration.monitor, "observe_score",
        lambda value, anomalous=None: observed.append((value, anomalous)))
    engine.advance(snap, time=t)
    np.testing.assert_array_equal([value for value, _ in observed], probs)
    assert [flag for _, flag in observed] == flags
    assert any(flag is not None for flag in flags)
    np.testing.assert_array_equal(
        engine.calibration.calibrator.state_array(),
        oracle.calibration.calibrator.state_array())


def test_calibrated_advance_peak_below_half_a_score_matrix():
    """The write path's traced peak is a fraction of the ``(Q, |E|)``
    float32 matrix a full-matrix scoring (and its memo copy) would
    hold."""
    num_entities, num_facts = 4096, 1000
    *history, snap = _stream(num_entities, num_facts, 5)
    engine = _engine(_model("logcl", num_entities), num_entities, history)
    matrix_bytes = num_facts * num_entities * 4
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.advance(snap, time=engine.next_time)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.stats.counters["facts_calibrated"] >= num_facts
    assert peak - live < matrix_bytes / 2
