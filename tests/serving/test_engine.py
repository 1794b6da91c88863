"""Incremental inference engine: parity with the cold batch path.

The load-bearing invariant (see docs/serving.md): after any number of
``advance()`` calls, ``engine.predict`` at a timestamp is numerically
identical to a cold ``model.predict_on`` over a fresh
:class:`HistoryContext` holding the same facts — the engine only reuses
the query-independent prefix of the computation, it never approximates.
"""

import numpy as np
import pytest

from repro import LogCL, LogCLConfig, TrainConfig, Trainer
from repro.datasets import load_preset
from repro.registry import build_model
from repro.serving import InferenceEngine
from repro.tkg.dataset import TKGDataset
from repro.tkg.quadruples import QuadrupleSet
from repro.training.context import HistoryContext, TimestepBatch


@pytest.fixture(scope="module")
def dataset():
    return load_preset("tiny")


@pytest.fixture(scope="module")
def logcl(dataset):
    model = LogCL(LogCLConfig(dim=16, window=3, seed=0),
                  dataset.num_entities, dataset.num_relations)
    trainer = Trainer(TrainConfig(epochs=1, lr=2e-3, window=3,
                                  verbose=False))
    trainer.fit(model, dataset)
    return model.eval()


def _fresh_engine(model, dataset, window=3, **kwargs):
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=window, **kwargs)
    engine.preload(dataset, splits=("train", "valid", "test"))
    return engine


def _cold_scores(model, dataset, time, subjects, relations, window=3):
    """The batch pipeline's prediction with a fresh, single-batch context."""
    context = HistoryContext(dataset, window=window)
    batch = TimestepBatch(time=time, subjects=subjects, relations=relations,
                          objects=np.zeros_like(subjects), phase="forward",
                          context=context)
    return model.predict_on(batch)


def _phase_batches(dataset, time):
    """Forward and inverse query arrays for one test timestamp."""
    facts = dataset.test.at_time(time).array
    forward = (facts[:, 0].copy(), facts[:, 1].copy())
    inverse = (facts[:, 2].copy(),
               facts[:, 1] + dataset.num_relations)
    return {"forward": forward, "inverse": inverse}


class TestColdParity:
    def test_incremental_matches_cold_over_snapshots(self, logcl, dataset):
        """≥3 snapshots, both phases: engine == cold path to 1e-8."""
        engine = _fresh_engine(logcl, dataset)
        times = [int(t) for t in dataset.test.timestamps()[:3]]
        assert len(times) >= 3
        checked = 0
        for time in times:
            for phase, (subjects, relations) in _phase_batches(
                    dataset, time).items():
                cold = _cold_scores(logcl, dataset, time, subjects, relations)
                warm = engine.predict(subjects, relations, time=time)
                np.testing.assert_allclose(warm, cold, atol=1e-8,
                                           err_msg=f"t={time} {phase}")
                checked += 1
        assert checked >= 6

    def test_parity_survives_interleaved_ingest(self, logcl, dataset):
        """advance() between queries must not disturb earlier-time parity."""
        all_facts = dataset.all_facts()
        split_t = int(dataset.valid.times.min())
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations, window=3)
        for t, arr in sorted(all_facts.before(split_t).group_by_time().items()):
            engine.advance(arr[:, :3], time=int(t))
        remaining = sorted(
            all_facts.between(split_t, split_t + 4).group_by_time().items())
        assert len(remaining) >= 3
        for t, arr in remaining:
            subjects, relations = arr[:, 0].copy(), arr[:, 1].copy()
            # Query *before* ingesting this snapshot: history is t' < t.
            warm = engine.predict(subjects, relations, time=int(t))
            partial = TKGDataset(
                name="partial",
                train=all_facts.before(int(t)),
                valid=QuadrupleSet.empty(), test=QuadrupleSet.empty(),
                num_entities=dataset.num_entities,
                num_relations=dataset.num_relations)
            cold = _cold_scores(logcl, partial, int(t), subjects, relations)
            np.testing.assert_allclose(warm, cold, atol=1e-8)
            engine.advance(arr[:, :3], time=int(t))

    def test_score_cache_returns_identical_scores(self, logcl, dataset):
        engine = _fresh_engine(logcl, dataset)
        t = int(dataset.test.timestamps()[0])
        facts = dataset.test.at_time(t).array
        subjects, relations = facts[:, 0].copy(), facts[:, 1].copy()
        first = engine.predict(subjects, relations, time=t)
        second = engine.predict(subjects, relations, time=t)
        np.testing.assert_array_equal(first, second)
        assert engine.stats.counters["score_cache_hits"] == 1

    def test_fallback_model_served_through_predict_on(self, dataset):
        """Models without incremental contexts run via ServingBatch."""
        model = build_model("regcn", dataset, dim=16).eval()
        engine = _fresh_engine(model, dataset)
        assert not engine._supports_context
        t = int(dataset.test.timestamps()[0])
        facts = dataset.test.at_time(t).array
        subjects, relations = facts[:, 0].copy(), facts[:, 1].copy()
        cold = _cold_scores(model, dataset, t, subjects, relations)
        warm = engine.predict(subjects, relations, time=t)
        np.testing.assert_allclose(warm, cold, atol=1e-8)


class TestContextStates:
    """Scores never depend on the context cache's state.

    The cached context carries the query-free local matrix every read
    copies its candidates from, so a cold, warm, evicted-and-rebuilt or
    post-advance context must all give bitwise-identical scores (the
    benchmark replays a sample of served reads serially on that basis).
    """

    @staticmethod
    def _queries(dataset, time):
        facts = dataset.test.at_time(time).array
        subjects, relations = facts[:, 0].copy(), facts[:, 1].copy()
        # Overlapping batches, one with a repeated subject.
        return [(subjects[:3], relations[:3]),
                (subjects[1:], relations[1:]),
                (subjects[[0, 0, 2]], relations[[0, 1, 2]])]

    def test_cold_warm_and_evicted_contexts(self, logcl, dataset):
        time = int(dataset.test.timestamps()[0])
        queries = self._queries(dataset, time)
        cold = [_fresh_engine(logcl, dataset, score_cache_size=0)
                .predict(s, r, time=time) for s, r in queries]
        engine = _fresh_engine(logcl, dataset, score_cache_size=0)
        for rebuild in range(2):
            for (s, r), expected in zip(queries, cold):
                np.testing.assert_array_equal(
                    engine.predict(s, r, time=time), expected)
            engine.cache.clear()
        counters = engine.stats.counters
        assert counters["context_cache_misses"] == 2
        assert counters["context_cache_hits"] == 2 * len(queries) - 2

    def test_context_rebuilt_after_advance(self, logcl, dataset):
        first, second = (int(t) for t in dataset.test.timestamps()[:2])
        snapshot = dataset.test.at_time(first).array[:, :3].copy()
        queries = self._queries(dataset, second)

        def engine():
            built = InferenceEngine(logcl, dataset.num_entities,
                                    dataset.num_relations, window=3,
                                    score_cache_size=0)
            built.preload(dataset, splits=("train", "valid"))
            return built

        live = engine()
        # A forecast builds (and caches) a context at `second` on the
        # pre-advance history; the advance must evict it.
        live.predict_horizon(*queries[0], steps=second - live.next_time + 1)
        assert second in live.cache.contexts
        live.advance(snapshot, time=first)
        assert second not in live.cache.contexts
        replay = engine()
        replay.advance(snapshot, time=first)
        for s, r in queries:
            np.testing.assert_array_equal(
                live.predict(s, r, time=second),
                replay.predict(s, r, time=second))


class TestEngineContracts:
    def test_monotonic_ingest_enforced(self, logcl, dataset):
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations)
        engine.advance(np.array([[0, 0, 1]]), time=5)
        with pytest.raises(ValueError, match="time order"):
            engine.advance(np.array([[1, 0, 2]]), time=5)

    def test_monotonic_queries_enforced(self, logcl, dataset):
        engine = _fresh_engine(logcl, dataset)
        engine.predict(np.array([0]), np.array([0]), time=engine.next_time)
        with pytest.raises(ValueError, match="monotonically"):
            engine.predict(np.array([0]), np.array([0]), time=1)

    def test_advance_rejects_mixed_timestamps(self, logcl, dataset):
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations)
        mixed = np.array([[0, 0, 1, 3], [1, 0, 2, 4]])
        with pytest.raises(ValueError, match="one snapshot"):
            engine.advance(mixed)

    def test_ingest_invalidates_stale_caches(self, logcl, dataset):
        """A snapshot at t stales every cache entry for query times > t."""
        engine = _fresh_engine(logcl, dataset)
        t_new = engine.next_time
        t_query = t_new + 1
        subjects = np.array([0, 1])
        relations = np.array([0, 1])
        before = engine.predict(subjects, relations, time=t_query)
        assert t_query in engine._context_cache
        engine.advance(np.array([[0, 0, 1]]), time=t_new)
        assert t_query not in engine._context_cache
        after = engine.predict(subjects, relations, time=t_query)
        # The new snapshot is inside t_query's window, so the cached
        # answer would have been stale.
        assert not np.array_equal(before, after)

    def test_predict_topk_filtered(self, logcl, dataset):
        engine = _fresh_engine(logcl, dataset)
        t = engine.next_time
        engine.advance(np.array([[0, 0, 1], [0, 0, 2]]), time=t)
        top = engine.predict_topk(0, 0, k=5, time=t, filtered=True)
        answered = {e for e, _ in top}
        assert {1, 2}.isdisjoint(answered)
        probs = [p for _, p in top]
        assert probs == sorted(probs, reverse=True)

    def test_stats_schema(self, logcl, dataset):
        engine = _fresh_engine(logcl, dataset)
        t = int(dataset.test.timestamps()[0])
        facts = dataset.test.at_time(t).array
        engine.predict(facts[:, 0].copy(), facts[:, 1].copy(), time=t)
        payload = engine.stats.as_dict()
        assert {"uptime_s", "throughput_qps", "stages", "counters",
                "cache_hit_rates"} <= set(payload)
        assert {"ingest", "local_state", "subgraph",
                "forward"} <= set(payload["stages"])
        for stage in payload["stages"].values():
            assert {"count", "mean_ms", "p50_ms", "p95_ms"} <= set(stage)
        assert payload["counters"]["queries_served"] == len(facts)


class TestSparseWindows:
    def test_window_spans_ingest_gaps(self, logcl, dataset):
        """Sparse streams keep a full window of the last m ingested
        snapshots (matching HistoryContext.window_before), not the last
        m raw timestamps."""
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations, window=2)
        for t in (0, 5, 10):
            engine.advance(np.array([[0, 0, 1]]), time=t)
        assert [s.time for s in engine.window_before(11)] == [5, 10]
        assert [s.time for s in engine.window_before(10)] == [0, 5]
        assert [s.time for s in engine.window_before(5)] == [0]
        assert engine.window_before(0) == []

    def test_window_survives_state_roundtrip(self, logcl, dataset):
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations, window=2)
        for t in (0, 5, 10):
            engine.advance(np.array([[0, 0, 1]]), time=t)
        state = engine.serving_state()
        restored = InferenceEngine(logcl, dataset.num_entities,
                                   dataset.num_relations, window=2)
        restored.restore_state(state)
        assert [s.time for s in restored.window_before(11)] == [5, 10]


class TestRankQueries:
    def test_matches_per_query_filter_and_rank(self, logcl, dataset):
        from repro.eval.metrics import rank_of_target
        from tests.tkg.reference_filter import ReferenceTimeAwareFilter
        engine = _fresh_engine(logcl, dataset)
        t = int(dataset.test.timestamps()[0])
        facts = dataset.test.at_time(t).array
        subjects, relations = facts[:, 0].copy(), facts[:, 1].copy()
        targets = facts[:, 2].copy()
        ranks = engine.rank_queries(subjects, relations, targets, time=t)
        scores = engine.predict(subjects, relations, time=t)
        oracle = ReferenceTimeAwareFilter(
            [quads.with_inverses(dataset.num_relations)
             for quads in dataset.splits().values()])
        expected = [rank_of_target(
            oracle.filter_scores(row, int(s), int(r), t, int(o)),
            int(o)) for row, s, r, o in zip(scores, subjects, relations,
                                            targets)]
        np.testing.assert_array_equal(ranks, expected)
        assert engine.stats.counters["queries_ranked"] == len(targets)
        assert "rank" in engine.stats.stages

    def test_store_file_then_advance_matches_oracle_filter(
            self, logcl, dataset, tmp_path):
        """The filter ``use_store_file`` builds from the mapped columns,
        extended by ``advance``, ranks like the dict-of-frozensets
        oracle over the same augmented facts, in both query phases."""
        from repro.data import write_store_facts
        from repro.eval.metrics import ranks_of_targets
        from tests.tkg.reference_filter import ReferenceTimeAwareFilter
        history = dataset.train.concat(dataset.valid)
        path = str(tmp_path / "history.hst")
        write_store_facts(path, history, dataset.num_entities,
                          dataset.num_relations)
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations, window=3)
        engine.use_store_file(path)
        stored_time = int(dataset.valid.timestamps()[-1])
        t = int(dataset.test.timestamps()[0])
        snapshot = dataset.test.at_time(t)
        # Second answers for every (s, r) give the filter work at t, and
        # a repeated fact must not change any rank.
        rival = snapshot.array.copy()
        rival[:, 2] = (rival[:, 2] + 1) % dataset.num_entities
        ingested = np.concatenate([snapshot.array, rival,
                                   snapshot.array[:1]])
        engine.advance(ingested[:, :3], time=t)
        oracle = ReferenceTimeAwareFilter(
            [quads.with_inverses(dataset.num_relations)
             for quads in (history, QuadrupleSet(ingested))])
        for time, facts in ((stored_time, dataset.valid.at_time(stored_time)),
                            (t, snapshot)):
            arr = facts.array
            for subjects, relations, targets in (
                    (arr[:, 0], arr[:, 1], arr[:, 2]),
                    (arr[:, 2], arr[:, 1] + dataset.num_relations,
                     arr[:, 0])):
                subjects, relations, targets = (
                    np.ascontiguousarray(col, dtype=np.int64)
                    for col in (subjects, relations, targets))
                ranks = engine.rank_queries(subjects, relations, targets,
                                            time=time)
                scores = engine.predict(subjects, relations, time=time)
                rows, cols = oracle.mask_indices_for_batch(
                    subjects, relations, time, targets)
                assert len(rows) or time != t
                scores[rows, cols] = -np.inf
                np.testing.assert_array_equal(
                    ranks, ranks_of_targets(scores, targets))

    def test_unfiltered_ranks_raw_scores(self, logcl, dataset):
        from repro.eval.metrics import ranks_of_targets
        engine = _fresh_engine(logcl, dataset)
        t = int(dataset.test.timestamps()[0])
        facts = dataset.test.at_time(t).array
        subjects, relations = facts[:, 0].copy(), facts[:, 1].copy()
        targets = facts[:, 2].copy()
        ranks = engine.rank_queries(subjects, relations, targets, time=t,
                                    filtered=False)
        scores = engine.predict(subjects, relations, time=t)
        np.testing.assert_array_equal(ranks,
                                      ranks_of_targets(scores, targets))

    def test_filtered_rank_leaves_cached_scores_intact(self, logcl, dataset):
        # The filter strikes the scores in place; a later memo hit must
        # still see the unstruck scores.
        engine = _fresh_engine(logcl, dataset)
        t = int(dataset.test.timestamps()[0])
        facts = dataset.test.at_time(t).array
        subjects, relations = facts[:, 0].copy(), facts[:, 1].copy()
        targets = facts[:, 2].copy()
        before = engine.rank_queries(subjects, relations, targets, time=t,
                                     filtered=False)
        engine.rank_queries(subjects, relations, targets, time=t)
        after = engine.rank_queries(subjects, relations, targets, time=t,
                                    filtered=False)
        np.testing.assert_array_equal(before, after)


class TestReadWriteSplit:
    """The engine's ReadState/DeltaState partition (replica substrate)."""

    def test_read_state_is_frozen_and_exposed(self, logcl, dataset):
        engine = _fresh_engine(logcl, dataset)
        state = engine.read_state()
        assert state.model is engine.model
        assert state.num_relations == dataset.num_relations
        assert state.store_path is None
        with pytest.raises(Exception):   # frozen dataclass
            state.window = 99

    def test_watermark_tracks_snapshots(self, logcl, dataset):
        engine = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations, window=3)
        assert engine.watermark == 0
        engine.preload(dataset, splits=("train",))
        assert engine.watermark == engine.history.num_snapshots
        before = engine.watermark
        t = engine.next_time
        engine.advance(np.array([[0, 0, 1]]), time=t)
        assert engine.watermark == before + 1

    def test_spawn_replays_to_bitwise_parity(self, logcl, dataset):
        """A spawned engine + delta replay scores bitwise like the source."""
        source = _fresh_engine(logcl, dataset)
        replica = source.read_state().spawn()
        for t, facts in source.history.delta_since(
                source.history.base_watermark):
            replica.advance(facts, time=t)
        assert replica.watermark == source.watermark
        t = source.next_time
        facts = dataset.test.array
        subjects = facts[:4, 0].copy()
        relations = facts[:4, 1].copy()
        a = source.predict(subjects, relations, time=t)
        b = replica.predict(subjects, relations, time=t)
        np.testing.assert_array_equal(a, b)

    def test_spawn_from_store_file_shares_path(self, logcl, dataset,
                                               tmp_path):
        from repro.data import write_store
        path = str(tmp_path / "tiny.hst")
        write_store(path, dataset)
        source = InferenceEngine(logcl, dataset.num_entities,
                                 dataset.num_relations, window=3)
        source.use_store_file(path)
        replica = source.read_state().spawn()
        assert replica.store_path == source.store_path
        assert replica.watermark == source.watermark
        t = source.next_time
        facts = dataset.test.array
        subjects = facts[:4, 0].copy()
        relations = facts[:4, 1].copy()
        np.testing.assert_array_equal(
            source.predict(subjects, relations, time=t),
            replica.predict(subjects, relations, time=t))

    def test_score_cache_keys_carry_watermark(self, logcl, dataset):
        """A pre-advance score memo can never answer a post-advance query.

        Validity is structural (the watermark prefixes the key), not a
        side effect of the eviction sweep: even an advance at a *later*
        time than the cached query — which the time-based eviction
        leaves alone — changes the key, so the next predict recomputes.
        """
        engine = _fresh_engine(logcl, dataset)
        facts = dataset.test.array
        subjects = facts[:3, 0].copy()
        relations = facts[:3, 1].copy()
        t = engine.next_time
        engine.predict(subjects, relations, time=t)
        assert engine.stats.counters["score_cache_misses"] == 1
        engine.predict(subjects, relations, time=t)
        assert engine.stats.counters["score_cache_hits"] == 1
        engine.advance(np.array([[0, 0, 1]]), time=t)
        engine.predict(subjects, relations, time=t + 1)
        assert engine.stats.counters["score_cache_misses"] == 2
