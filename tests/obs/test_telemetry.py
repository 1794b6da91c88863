"""Unit tests for the repro.obs telemetry layer."""

import json

import pytest

from repro.obs import (NULL_TELEMETRY, NullTelemetry, StageStats, Telemetry,
                       get_telemetry, global_grad_norm, global_param_norm,
                       ParamDrift, read_trace, registered_telemetry)


class TestSpans:
    def test_span_records_stage(self):
        tel = Telemetry("t")
        with tel.span("forward"):
            pass
        assert tel.stages["forward"].count == 1
        assert tel.stages["forward"].total_s >= 0.0

    def test_nested_spans_record_joined_paths(self):
        tel = Telemetry("t")
        with tel.span("epoch"):
            with tel.span("train"):
                with tel.span("step"):
                    pass
            with tel.span("eval"):
                pass
        assert set(tel.stages) == {"epoch", "epoch/train",
                                   "epoch/train/step", "epoch/eval"}

    def test_nested_false_records_bare_name(self):
        tel = Telemetry("t")
        with tel.span("outer"):
            with tel.span("ingest", nested=False):
                pass
        assert "ingest" in tel.stages
        assert "outer/ingest" not in tel.stages

    def test_outer_span_covers_inner(self):
        tel = Telemetry("t")
        with tel.span("outer"):
            for _ in range(5):
                with tel.span("inner"):
                    pass
        assert (tel.stages["outer"].total_s
                >= tel.stages["outer/inner"].total_s)

    def test_exception_still_records_span(self):
        tel = Telemetry("t")
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        assert tel.stages["boom"].count == 1
        # the stack unwound: a later span is top-level again
        with tel.span("after"):
            pass
        assert "after" in tel.stages


class TestCountersAndScalars:
    def test_incr(self):
        tel = Telemetry("t")
        tel.incr("queries")
        tel.incr("queries", 4)
        assert tel.counters["queries"] == 5

    def test_observe_feeds_scalar_series(self):
        tel = Telemetry("t")
        for v in (1.0, 3.0, 2.0):
            tel.observe("grad_norm", v)
        d = tel.scalars["grad_norm"].as_scalar_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0
        assert d["max"] == 3.0
        assert d["last"] == 2.0
        assert d["mean"] == pytest.approx(2.0)

    def test_as_dict_schema(self):
        tel = Telemetry("t")
        with tel.span("s"):
            pass
        tel.incr("c")
        tel.observe("g", 1.5)
        payload = tel.as_dict()
        assert payload["name"] == "t"
        assert set(payload) >= {"name", "uptime_s", "stages", "counters",
                                "scalars"}
        assert payload["counters"] == {"c": 1}
        assert "s" in payload["stages"]
        assert "g" in payload["scalars"]
        # everything must be JSON-serializable (the bench ingests this)
        json.dumps(payload)

    def test_reset_clears_everything(self):
        tel = Telemetry("t")
        with tel.span("s"):
            pass
        tel.incr("c")
        tel.observe("g", 1.0)
        tel.reset()
        assert not tel.stages and not tel.counters and not tel.scalars


class TestTrace:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tel = Telemetry("traced")
        with tel.tracing(path):
            with tel.span("epoch"):
                with tel.span("step"):
                    pass
            tel.observe("grad_norm", 2.5)
        events = read_trace(path)
        types = [e["type"] for e in events]
        assert types[0] == "meta"
        assert types[-1] == "summary"
        spans = [e for e in events if e["type"] == "span"]
        # inner span completes (and is emitted) before the outer one
        assert [s["name"] for s in spans] == ["epoch/step", "epoch"]
        assert spans[0]["depth"] == 1 and spans[1]["depth"] == 0
        scalar = next(e for e in events if e["type"] == "scalar")
        assert scalar["name"] == "grad_norm"
        assert scalar["value"] == 2.5
        # the summary event round-trips as_dict's schema
        summary = events[-1]
        assert "epoch" in summary["stages"]
        assert summary["scalars"]["grad_norm"]["count"] == 1

    def test_span_events_carry_monotonic_offsets(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tel = Telemetry("t")
        with tel.tracing(path):
            with tel.span("a"):
                pass
            with tel.span("b"):
                pass
        spans = [e for e in read_trace(path) if e["type"] == "span"]
        assert spans[0]["t_start_s"] <= spans[1]["t_start_s"]
        assert all(s["dur_s"] >= 0 for s in spans)

    def test_double_attach_rejected(self, tmp_path):
        tel = Telemetry("t")
        tel.attach_trace(str(tmp_path / "a.jsonl"))
        with pytest.raises(RuntimeError):
            tel.attach_trace(str(tmp_path / "b.jsonl"))
        tel.detach_trace()

    def test_detach_without_trace_is_noop(self):
        assert Telemetry("t").detach_trace() is None


class TestNullTelemetry:
    def test_records_nothing(self):
        with NULL_TELEMETRY.span("s"):
            NULL_TELEMETRY.incr("c")
            NULL_TELEMETRY.observe("g", 1.0)
        assert not NULL_TELEMETRY.stages
        assert not NULL_TELEMETRY.counters
        assert not NULL_TELEMETRY.scalars

    def test_rejects_trace_attachment(self, tmp_path):
        with pytest.raises(RuntimeError):
            NullTelemetry("n").attach_trace(str(tmp_path / "x.jsonl"))


class TestRegistry:
    def test_same_name_same_instance(self):
        a = get_telemetry("test-registry")
        b = get_telemetry("test-registry")
        assert a is b
        assert "test-registry" in registered_telemetry()

    def test_distinct_names_distinct_instances(self):
        assert get_telemetry("reg-a") is not get_telemetry("reg-b")


class TestHooks:
    def test_param_and_grad_norms(self):
        import numpy as np
        from repro.nn.modules import Parameter
        p = Parameter(np.array([3.0, 4.0]))
        assert global_param_norm([p]) == pytest.approx(5.0)
        assert global_grad_norm([p]) == 0.0          # no grad yet
        p.grad = np.array([0.0, 2.0])
        assert global_grad_norm([p]) == pytest.approx(2.0)

    def test_param_drift_observes_norm_and_delta(self):
        import numpy as np
        from repro.nn.modules import Parameter
        tel = Telemetry("drift")
        p = Parameter(np.array([3.0, 4.0]))
        tracker = ParamDrift(tel)
        tracker.update([p])                           # first call: no drift yet
        assert tel.scalars["param_norm"].count == 1
        assert "param_norm_drift" not in tel.scalars
        p.data = np.array([0.0, 6.0])
        tracker.update([p])
        assert tel.scalars["param_norm_drift"].count == 1
        assert (tel.scalars["param_norm_drift"].as_scalar_dict()["last"]
                == pytest.approx(1.0))

    def test_clip_grad_norm_telemetry(self):
        import numpy as np
        from repro.nn.modules import Parameter
        from repro.nn.optim import clip_grad_norm
        tel = Telemetry("clip")
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        pre = clip_grad_norm([p], 1.0, telemetry=tel)
        assert pre == pytest.approx(5.0)
        assert tel.counters["grad_clips"] == 1
        d = tel.scalars["grad_norm_postclip"].as_scalar_dict()
        assert d["last"] == pytest.approx(1.0, rel=1e-6)
        # unclipped step: post equals pre, counter untouched
        p.grad = np.array([0.1, 0.0])
        clip_grad_norm([p], 1.0, telemetry=tel)
        assert tel.counters["grad_clips"] == 1
        assert (tel.scalars["grad_norm_preclip"].as_scalar_dict()["last"]
                == pytest.approx(0.1))


class TestServingTelemetry:
    """The serving engine records into a plain ``Telemetry("serving")``."""

    @pytest.fixture(scope="class")
    def engine(self):
        from repro import LogCL, LogCLConfig
        from repro.datasets import load_preset
        from repro.serving import InferenceEngine
        dataset = load_preset("tiny")
        model = LogCL(LogCLConfig(dim=16, window=3, seed=0),
                      dataset.num_entities, dataset.num_relations)
        engine = InferenceEngine(model, dataset.num_entities,
                                 dataset.num_relations, window=3)
        engine.preload(dataset, splits=("train",))
        return engine

    def test_engine_stats_is_plain_telemetry(self, engine):
        assert type(engine.stats) is Telemetry
        assert engine.stats.name == "serving"
        # The shared schema, with no serving-only derived keys.
        assert set(engine.stats.as_dict()) == {"name", "uptime_s", "stages",
                                               "counters", "scalars"}

    def test_engine_stages_stay_flat_inside_spans(self, engine):
        """An outer span (the daemon's) does not prefix engine stages."""
        with engine.stats.span("daemon/predict", nested=False):
            engine.predict([0, 1], [0, 1])
        assert "forward" in engine.stats.stages
        assert "daemon/predict" in engine.stats.stages
        assert not any(name.startswith("daemon/predict/")
                       for name in engine.stats.stages)


class TestPercentile:
    """Nearest-rank percentiles of :class:`StageStats`."""

    def test_p50_of_even_sample_is_lower_middle(self):
        stage = StageStats()
        for v in (4.0, 1.0, 3.0, 2.0):
            stage.add(v)
        # nearest-rank: ceil(0.5 * 4) = 2nd smallest, not the 3rd.
        assert stage.percentile(0.50) == 2.0

    def test_p50_of_odd_sample_is_middle(self):
        stage = StageStats()
        for v in (1.0, 2.0, 3.0):
            stage.add(v)
        assert stage.percentile(0.50) == 2.0

    def test_p95_of_hundred_samples(self):
        stage = StageStats()
        for v in range(1, 101):
            stage.add(float(v))
        assert stage.percentile(0.95) == 95.0

    def test_extremes_clamp_to_min_and_max(self):
        stage = StageStats()
        for v in (5.0, 1.0, 9.0):
            stage.add(v)
        assert stage.percentile(0.0) == 1.0
        assert stage.percentile(1.0) == 9.0

    def test_empty_stage_is_zero(self):
        assert StageStats().percentile(0.5) == 0.0

    def test_single_sample(self):
        stage = StageStats()
        stage.add(7.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert stage.percentile(q) == 7.0

    def test_span_feeds_percentiles(self):
        tel = Telemetry("serving")
        for _ in range(4):
            with tel.span("forward", nested=False):
                pass
        d = tel.stages["forward"].as_dict()
        assert d["count"] == 4
        assert d["p50_ms"] <= d["p95_ms"] <= d["max_ms"]


class TestPrefixedMerge:
    """Namespaced child merging (the router's per-replica telemetry)."""

    def _child(self, spans=1):
        child = Telemetry("child")
        for _ in range(spans):
            with child.span("forward"):
                pass
        child.incr("queries_served", 3)
        child.observe("queue_depth", 2.0)
        return child

    def test_prefix_namespaces_everything(self):
        parent = Telemetry("parent")
        parent.merge_child(self._child(), prefix="replica0")
        parent.merge_child(self._child(spans=2), prefix="replica1")
        assert parent.stages["replica0/forward"].count == 1
        assert parent.stages["replica1/forward"].count == 2
        assert parent.counters["replica0/queries_served"] == 3
        assert parent.counters["replica1/queries_served"] == 3
        assert "forward" not in parent.stages
        assert parent.scalars["replica0/queue_depth"].count == 1

    def test_no_prefix_keeps_flat_merge(self):
        parent = Telemetry("parent")
        parent.merge_child(self._child())
        parent.merge_child(self._child())
        assert parent.stages["forward"].count == 2
        assert parent.counters["queries_served"] == 6

    def test_null_telemetry_accepts_prefix(self):
        NULL_TELEMETRY.merge_state(self._child().export_state(),
                                   prefix="replica0")
        assert not NULL_TELEMETRY.counters
