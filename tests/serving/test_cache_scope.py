"""Serving caches are scoped to the query horizon.

Reads only move forward in time, so an encoder context, merged subgraph
or score memo entry keyed below the history index's horizon can never
be read again: the engine retires it as soon as the horizon passes it.
The oracle is an engine that starts every request with empty caches:
retiring entries may cost rebuilds, never a different answer.
"""

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.datasets import load_preset
from repro.serving import CalibrationConfig, InferenceEngine, protocol
from repro.serving.replica import ReplicaWorker, dispatch


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


@pytest.fixture(scope="module")
def model(dataset):
    return LogCL(LogCLConfig(dim=16, window=3, seed=0),
                 dataset.num_entities, dataset.num_relations).eval()


def _engine(model, dataset, preload=True):
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=3)
    engine.enable_calibration(CalibrationConfig(
        quantile=0.1, reference_size=256, min_samples=8))
    if preload:
        engine.preload(dataset, splits=("train",))
    return engine


def _trace(dataset, seed=0):
    """A seeded request trace over the post-train snapshots.

    Each item is ``(pin, request)``: with ``pin`` set the request is
    sent the way a router sends a read to a replica, wrapped in an
    ``OP_AT_HORIZON`` message that first pins the horizon there.  Per
    snapshot: a calibrated ``advance``, then ``predict`` twice (the
    second hits the memo), ``rank``, ``score`` of the predicted queries
    (which bypasses the memo and hits their subgraph) and a horizon-2
    ``forecast`` at the new time.  Twice in the stream a read jumps
    ahead, a read back in time is refused, and the next advance lands
    at the jumped-to time; once a pinned read runs ahead of the stream.
    """
    rng = np.random.default_rng(seed)
    num_entities = dataset.num_entities
    relations = 2 * dataset.num_relations
    snapshots = [snap[:, :3] for _, snap in sorted(
        dataset.valid.concat(dataset.test).group_by_time().items())]

    def queries(n):
        return np.stack([rng.integers(0, num_entities, n),
                         rng.integers(0, relations, n)], axis=1).tolist()

    def facts(n):
        return np.stack([rng.integers(0, num_entities, n),
                         rng.integers(0, dataset.num_relations, n),
                         rng.integers(0, num_entities, n)], axis=1).tolist()

    trace = []
    time = 32
    for step, snap in enumerate(snapshots):
        trace.append((None, {"op": "advance", "time": time,
                             "facts": snap.tolist()}))
        now = time + 1
        predict = {"op": "predict", "queries": queries(3), "topk": 5,
                   "time": now}
        scored = [query + [int(rng.integers(0, num_entities))]
                  for query in predict["queries"]]
        trace += [(None, predict), (None, dict(predict)),
                  (None, {"op": "rank", "queries": facts(4), "time": now}),
                  (None, {"op": "score", "facts": scored, "time": now}),
                  (None, {"op": "forecast", "queries": queries(2),
                          "horizon": 2, "topk": 3})]
        if step in (2, 5):
            ahead = now + 2
            trace += [(None, {"op": "predict", "queries": queries(2),
                              "topk": 3, "time": ahead}),
                      (None, {"op": "predict", "queries": queries(2),
                              "topk": 3, "time": now}),
                      (None, {"op": "rank", "queries": facts(2),
                              "time": ahead})]
            time = ahead
        elif step == 3:
            pinned = {"op": "predict", "queries": queries(2), "topk": 3,
                      "time": now + 1}
            trace += [(now + 1, pinned),
                      (now + 1, dict(pinned, time=now)),
                      (None, {"op": "rank", "queries": facts(3),
                              "time": now + 1})]
            time = now + 1
        else:
            time = now
    return trace


def _serve(engine, pin, request):
    if pin is not None:
        return dispatch(ReplicaWorker(engine), {
            "op": protocol.OP_AT_HORIZON, "horizon": pin,
            "message": request})
    try:
        return protocol.handle_request(engine, request)
    except Exception as exc:
        return protocol.error_response(exc, request)


def _keys_below_horizon(engine):
    horizon = engine.history.index.horizon
    return ([key for key in engine.cache.contexts if key < horizon]
            + [key[0] for key in engine.cache.subgraphs
               if key[0] < horizon]
            + [key[1] for key in engine._score_cache if key[1] < horizon])


def test_responses_equal_a_cache_cold_engine(model, dataset):
    """Line by line, the engine that retires entries answers what an
    engine emptying every cache and the memo before each request does;
    the trace exercises refusals and cache hits, so neither side is
    vacuous."""
    warm, cold = _engine(model, dataset), _engine(model, dataset)
    for pin, request in _trace(dataset):
        cold._clear_caches()
        assert _serve(warm, pin, request) == _serve(cold, pin, request)
    counters = warm.stats.counters
    assert counters["score_cache_hits"] > 0
    assert counters["context_cache_hits"] > 0
    assert counters["subgraph_cache_hits"] > 0
    assert counters["cache_entries_retired"] > 0
    assert counters["facts_calibrated"] > 0


def test_no_cache_key_below_the_horizon_after_any_request(model, dataset):
    engine = _engine(model, dataset)
    outcomes = set()
    for pin, request in _trace(dataset):
        response = _serve(engine, pin, request)
        outcomes.add(response.get("ok", response.get("response", {})
                                  .get("ok")))
        assert _keys_below_horizon(engine) == [], request
    assert outcomes == {True, False}   # the trace holds refused reads


def test_long_calibrated_stream_holds_no_context_below_the_horizon(
        model, dataset):
    """40 calibrated advances on ``tiny``, a read at each new time: no
    context keyed below the horizon survives a step, so the context
    cache holds at most the horizon's own context."""
    engine = _engine(model, dataset, preload=False)
    facts = dataset.train.concat(dataset.valid).concat(dataset.test)
    snapshots = sorted(facts.group_by_time().items())
    assert len(snapshots) == 40
    subjects, relations = dataset.test.array[:3, 0], dataset.test.array[:3, 1]
    for t, snap in snapshots:
        engine.advance(snap[:, :3], time=int(t))
        assert all(key >= engine.history.index.horizon
                   for key in engine.cache.contexts)
        engine.predict(subjects, relations)
        horizon = engine.history.index.horizon
        assert horizon == engine.next_time
        assert list(engine.cache.contexts) == [horizon]
    scalars = engine.stats.as_dict()["scalars"]
    assert scalars["context_cache_entries"]["max"] <= 1
    assert scalars["context_cache_entries"]["count"] == 40


def test_global_edges_refuses_a_cached_time_behind_the_horizon(model,
                                                               dataset):
    engine = _engine(model, dataset)
    t = engine.next_time
    subjects, relations = np.array([0, 1]), np.array([0, 1])
    edges = engine.global_edges(t, subjects, relations)
    assert engine.global_edges(t, subjects, relations) is edges
    engine.history_index_at(t + 1)   # a router pin moves the horizon
    with pytest.raises(ValueError, match="monotonically"):
        engine.global_edges(t, subjects, relations)


def test_advance_reports_cache_entries_through_the_stats_op(model,
                                                            dataset):
    engine = _engine(model, dataset)
    queries = dataset.test.array[:3, :2].tolist()
    for _ in range(2):
        t = engine.next_time
        protocol.handle_request(engine, {"op": "predict",
                                         "queries": queries, "time": t})
        protocol.handle_request(engine, {
            "op": "advance", "time": t,
            "facts": dataset.test.array[:4, :3].tolist()})
    stats = protocol.handle_request(engine, {"op": "stats"})["stats"]
    for name, cache in (("context", engine.cache.contexts),
                        ("subgraph", engine.cache.subgraphs),
                        ("score", engine._score_cache)):
        assert stats["scalars"][f"{name}_cache_entries"]["last"] \
            == len(cache)
    # The memo is of one watermark: an advance leaves it empty.
    assert stats["scalars"]["score_cache_entries"]["last"] == 0
    assert stats["counters"]["cache_entries_retired"] > 0
