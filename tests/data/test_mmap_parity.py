"""Acceptance: mapped stores answer the full protocols bitwise-identically.

The bar from the subsystem design: ``evaluate()`` against a
memory-mapped store file must reproduce the in-memory metric rows and
per-query records, for a heuristic and for LogCL, and the serving
engine must predict identically from the backing file.
"""

import numpy as np
import pytest

from repro.data import open_store, write_store
from repro.datasets import tiny
from repro.eval.heuristics import FrequencyHeuristic
from repro.eval.protocol import FILTER_SETTINGS, evaluate
from repro.registry import build_model
from repro.serving import InferenceEngine
from repro.training.context import HistoryContext


@pytest.fixture(scope="module")
def dataset():
    return tiny()


@pytest.fixture(scope="module")
def store_path(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "tiny.hst")
    write_store(path, dataset)
    return path


class TestEvaluateParity:
    @pytest.mark.parametrize("filter_setting", FILTER_SETTINGS)
    def test_serial_metric_rows_identical(self, dataset, store_path,
                                          filter_setting):
        model = FrequencyHeuristic(dataset.num_entities)
        memory = evaluate(model, dataset, "test",
                          filter_setting=filter_setting)
        context = HistoryContext(dataset, 3, store=open_store(store_path))
        mapped = evaluate(model, dataset, "test", context=context,
                          filter_setting=filter_setting)
        assert mapped == memory

    def test_learned_model_parity(self, dataset, store_path):
        model = build_model("logcl", dataset, dim=16, seed=0)
        memory = evaluate(model, dataset, "test")
        context = HistoryContext(dataset, 3, store=open_store(store_path))
        mapped = evaluate(model, dataset, "test", context=context)
        assert mapped == memory

    def test_per_query_records_identical(self, dataset, store_path):
        model = FrequencyHeuristic(dataset.num_entities)
        memory_records, mapped_records = [], []
        evaluate(model, dataset, "test", records=memory_records)
        context = HistoryContext(dataset, 3, store=open_store(store_path))
        evaluate(model, dataset, "test", context=context,
                 records=mapped_records)
        assert mapped_records == memory_records

    def test_extra_facts_with_store_rejected(self, dataset, store_path):
        with pytest.raises(ValueError, match="not both"):
            HistoryContext(dataset, 3, extra_facts=dataset.test,
                           store=open_store(store_path))


class TestServingParity:
    def _engine(self, dataset):
        return InferenceEngine(FrequencyHeuristic(dataset.num_entities),
                               dataset.num_entities, dataset.num_relations,
                               window=3)

    def test_predictions_match_streamed_engine(self, dataset, store_path):
        query_time = int(dataset.test.times.max())
        streamed = self._engine(dataset)
        for t, arr in sorted(dataset.all_facts().group_by_time().items()):
            if t >= query_time:
                break
            streamed.advance(arr[:, :3], time=int(t))
        mapped = self._engine(dataset)
        mapped.use_store_file(store_path)
        queries = dataset.test.at_time(query_time).array
        scores_streamed = streamed.predict(queries[:, 0], queries[:, 1],
                                           time=query_time)
        scores_mapped = mapped.predict(queries[:, 0], queries[:, 1],
                                       time=query_time)
        assert np.array_equal(scores_streamed, scores_mapped)
        ranks_streamed = streamed.rank_queries(
            queries[:, 0], queries[:, 1], queries[:, 2], time=query_time)
        ranks_mapped = mapped.rank_queries(
            queries[:, 0], queries[:, 1], queries[:, 2], time=query_time)
        assert np.array_equal(ranks_streamed, ranks_mapped)

    def test_relation_mismatch_rejected(self, dataset, store_path):
        engine = InferenceEngine(FrequencyHeuristic(dataset.num_entities),
                                 dataset.num_entities,
                                 dataset.num_relations + 1, window=3)
        with pytest.raises(ValueError, match="relations"):
            engine.use_store_file(store_path)

    def test_state_round_trip_keeps_backing_file(self, dataset, store_path):
        engine = self._engine(dataset)
        engine.use_store_file(store_path)
        delta_time = engine.last_time + 2
        engine.advance(np.array([[0, 1, 2], [3, 2, 1]]), time=delta_time)
        state = engine.serving_state()
        assert "store_path" in state
        assert len(state["facts"]) == 2  # only the post-adoption delta

        restored = self._engine(dataset)
        restored.restore_state(state)
        assert restored.store_path == engine.store_path
        assert restored.last_time == engine.last_time
        probe_s, probe_r = np.array([0]), np.array([1])
        assert np.array_equal(
            engine.predict(probe_s, probe_r, time=delta_time + 1),
            restored.predict(probe_s, probe_r, time=delta_time + 1))
