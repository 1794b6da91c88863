"""float32-vs-float64 metric parity (the PR-8 dtype-narrowing contract).

The production stack runs float32 end-to-end (``repro.nn.dtypes``); the
float64 path survives only as the wide reference, reachable through
``float_precision("float64")``.  These tests pin the contract the perf
benchmark relies on: evaluating the *same weights* under both dtypes
yields metric rows within atol 1e-5 across every filter setting, the
production pass is bitwise equal to a whole-model oracle (reference ops
patched in, one query at a time against the dict-based filter), and it
stays bitwise-consistent between serial and sharded evaluation.
"""

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.datasets import icews14_like
from repro.eval.protocol import evaluate
from repro.nn.dtypes import (DEFAULT_FLOAT, WIDE_FLOAT, default_float,
                             float_precision)
from repro.perf import clear_perf_caches
from repro.training.context import HistoryContext

from tests.eval.reference_protocol import reference_evaluate
from tests.nn.reference_ops import use_reference_ops

CONFIG = LogCLConfig(dim=16, time_dim=8, window=3, seed=3,
                     temperature=0.1, decoder_kernels=4)
FILTER_SETTINGS = ("raw", "static", "time-aware")


@pytest.fixture(scope="module")
def models():
    ds = icews14_like()
    narrow = LogCL(CONFIG, ds.num_entities, ds.num_relations)
    with float_precision("float64"):
        wide = LogCL(CONFIG, ds.num_entities, ds.num_relations)
    wide.load_state_dict(narrow.state_dict())  # identical weights, widened
    return ds, narrow, wide


def _evaluate(model, ds, setting, workers=1, records=None):
    clear_perf_caches()
    ctx = HistoryContext(ds, CONFIG.window)
    return evaluate(model, ds, "valid", context=ctx, filter_setting=setting,
                    workers=workers, records=records)


class TestDtypePolicy:
    def test_default_is_float32(self):
        assert default_float() is DEFAULT_FLOAT is np.float32
        assert WIDE_FLOAT is np.float64

    def test_model_parameters_follow_policy(self, models):
        _, narrow, wide = models
        assert all(p.data.dtype == np.float32 for p in narrow.parameters())
        assert all(p.data.dtype == np.float64 for p in wide.parameters())


class TestMetricParity:
    @pytest.mark.parametrize("setting", FILTER_SETTINGS)
    def test_float32_within_atol_of_float64(self, models, setting):
        ds, narrow, wide = models
        m32 = _evaluate(narrow, ds, setting)
        m64 = _evaluate(wide, ds, setting)
        assert set(m32) == set(m64)
        for key in m32:
            assert abs(m32[key] - m64[key]) <= 1e-5, (
                f"{setting}/{key}: {m32[key]!r} vs {m64[key]!r}")

    @pytest.mark.parametrize("setting", FILTER_SETTINGS)
    def test_fast_path_bitwise_vs_legacy_same_dtype(self, models, setting,
                                                    monkeypatch):
        """``evaluate`` == the whole-model oracle: reference ops patched
        in, scored per batch, ranked one query at a time."""
        ds, narrow, _ = models
        records = []
        metrics = _evaluate(narrow, ds, setting, records=records)
        use_reference_ops(monkeypatch)
        ref_metrics, ref_records = reference_evaluate(
            narrow, ds, "valid", window=CONFIG.window, filter_setting=setting)
        assert metrics == ref_metrics
        assert records == ref_records

    def test_workers_match_serial(self, models):
        ds, narrow, _ = models
        serial = _evaluate(narrow, ds, "time-aware", workers=1)
        sharded = _evaluate(narrow, ds, "time-aware", workers=4)
        assert serial == sharded
