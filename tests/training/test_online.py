"""Regression tests for the online-learning protocol.

The online pass ranks through the offline evaluator's batched kernel
(``repro.eval.ranking``).  These tests hold it bitwise to the per-query
oracle of ``tests/eval/reference_protocol.py`` and pin the fixed bug
of an unconditional ``model.eval()`` clobbering the caller's mode.
"""

import numpy as np
import pytest

from repro import OnlineConfig, Telemetry, evaluate_online
from repro.datasets import tiny
from repro.registry import build_model

from tests.eval.reference_protocol import reference_evaluate_online


@pytest.fixture(scope="module")
def dataset():
    return tiny()


class TestBatchedParity:
    def test_batched_matches_legacy_bitwise(self, dataset):
        """The batched kernel reproduces the per-query oracle's row.

        Each run starts from an identically seeded model, so the
        adaptation trajectory is the same and any difference would come
        from the ranking path — of which there must be none, bitwise.
        """
        config = OnlineConfig(window=2)
        online = evaluate_online(
            build_model("distmult", dataset, dim=8, seed=0), dataset, config)
        oracle = reference_evaluate_online(
            build_model("distmult", dataset, dim=8, seed=0), dataset, config)
        assert online == oracle           # exact float equality, whole row
        assert online["count"] == 2 * len(dataset.test)

    def test_parity_holds_for_trained_model(self, dataset):
        """Same check on a non-degenerate scorer (ties broken by data)."""
        from repro import TrainConfig, Trainer
        model = build_model("regcn", dataset, dim=16, seed=0)
        Trainer(TrainConfig(epochs=2, eval_every=2, window=2)).fit(
            model, dataset)
        state = model.state_dict()
        config = OnlineConfig(window=2, lr=0.0)
        online = evaluate_online(model, dataset, config)
        model.load_state_dict(state)
        assert online == reference_evaluate_online(model, dataset, config)


class TestModeRestore:
    def test_training_mode_restored(self, dataset):
        model = build_model("distmult", dataset, dim=8, seed=0)
        model.train()
        evaluate_online(model, dataset, OnlineConfig(window=2))
        assert model.training is True

    def test_eval_mode_restored(self, dataset):
        model = build_model("distmult", dataset, dim=8, seed=0)
        model.eval()
        evaluate_online(model, dataset, OnlineConfig(window=2))
        assert model.training is False


class TestTelemetry:
    def test_online_records_spans_and_counters(self, dataset):
        model = build_model("distmult", dataset, dim=8, seed=0)
        tel = Telemetry("online-test")
        summary = evaluate_online(model, dataset, OnlineConfig(window=2),
                                  telemetry=tel)
        assert {"context_build", "predict", "adapt"} <= set(tel.stages)
        assert tel.counters["queries_evaluated"] == summary["count"]
        assert tel.counters["adapt_steps"] > 0
        # the clip hook feeds gradient norms during adaptation
        assert tel.scalars["grad_norm_preclip"].count \
            == tel.counters["adapt_steps"]
