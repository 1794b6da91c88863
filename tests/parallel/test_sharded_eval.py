"""Parity: sharded evaluation must match the serial protocol bitwise.

The acceptance bar for ``repro.parallel``: ``evaluate(..., workers=N)``
returns the identical metric row to ``workers=1`` across all three
filter settings, with identical per-query records and telemetry
counters — for every worker count.
"""

import numpy as np
import pytest

from repro.datasets import tiny
from repro.eval.protocol import FILTER_SETTINGS, evaluate
from repro.obs import Telemetry
from repro.registry import build_model


@pytest.fixture(scope="module")
def dataset():
    return tiny()


@pytest.fixture(scope="module")
def model(dataset):
    return build_model("logcl", dataset, dim=16, seed=0)


class TestEvaluateParity:
    @pytest.mark.parametrize("filter_setting", FILTER_SETTINGS)
    def test_bitwise_identical_metric_rows(self, model, dataset,
                                           filter_setting):
        serial = evaluate(model, dataset, "test",
                          filter_setting=filter_setting, workers=1)
        for workers in (2, 3):
            sharded = evaluate(model, dataset, "test",
                               filter_setting=filter_setting,
                               workers=workers)
            assert sharded == serial

    def test_per_query_records_match(self, model, dataset):
        serial_records, sharded_records = [], []
        evaluate(model, dataset, "test", records=serial_records, workers=1)
        evaluate(model, dataset, "test", records=sharded_records, workers=2)
        assert sharded_records == serial_records

    def test_valid_split(self, model, dataset):
        serial = evaluate(model, dataset, "valid", workers=1)
        sharded = evaluate(model, dataset, "valid", workers=2)
        assert sharded == serial


class TestTelemetryMerge:
    def test_counters_and_span_counts_survive_sharding(self, model, dataset):
        serial_tel, sharded_tel = Telemetry("serial"), Telemetry("sharded")
        evaluate(model, dataset, "test", workers=1, telemetry=serial_tel)
        evaluate(model, dataset, "test", workers=2, telemetry=sharded_tel)
        assert (sharded_tel.counters["queries_evaluated"]
                == serial_tel.counters["queries_evaluated"])
        # One forward and one rank span per batch, whoever ran it.
        assert (sharded_tel.stages["forward"].count
                == serial_tel.stages["forward"].count)
        assert (sharded_tel.stages["rank"].count
                == serial_tel.stages["rank"].count)

    def test_null_telemetry_stays_empty(self, model, dataset):
        from repro.obs import NULL_TELEMETRY
        evaluate(model, dataset, "test", workers=2)
        assert not NULL_TELEMETRY.stages
        assert not NULL_TELEMETRY.counters


class TestNoisyEvaluation:
    def test_noisy_metrics_are_worker_count_independent(self, dataset):
        results = []
        for workers in (2, 3):
            model = build_model("logcl", dataset, dim=16, seed=3)
            model.input_noise_std = 0.5
            results.append(evaluate(model, dataset, "test", workers=workers))
        assert results[0] == results[1]

    def test_noise_sweep_forwards_workers(self, dataset):
        from repro.robustness import noise_sweep
        rows = []
        for workers in (2, 3):
            model = build_model("logcl", dataset, dim=16, seed=3)
            rows.append(noise_sweep(model, dataset, sigmas=(0.0, 0.5),
                                    workers=workers).as_rows())
        assert rows[0] == rows[1]
