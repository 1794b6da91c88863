"""Serving protocol: boundary validation, id echo, batched predict."""

import os

import numpy as np
import pytest

from repro import LogCL, LogCLConfig
from repro.datasets import load_preset
from repro.serving import InferenceEngine, protocol
from repro.tkg.quadruples import FACT_DTYPE


@pytest.fixture(scope="module")
def served():
    dataset = load_preset("tiny")
    model = LogCL(LogCLConfig(dim=16, window=3, seed=0),
                  dataset.num_entities, dataset.num_relations).eval()
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=3)
    engine.preload(dataset, splits=("train",))
    return engine, dataset


class TestDecodeLine:
    def test_non_object_line_names_the_line(self):
        with pytest.raises(protocol.RequestError, match=r"JSON object.*'5'"):
            protocol.decode_line("5")
        with pytest.raises(protocol.RequestError, match="got str"):
            protocol.decode_line('"x"')
        with pytest.raises(protocol.RequestError, match="got list"):
            protocol.decode_line("[1, 2]")

    def test_invalid_json_named(self):
        with pytest.raises(protocol.RequestError, match="invalid JSON"):
            protocol.decode_line("{broken")

    def test_long_lines_previewed_not_dumped(self):
        line = "[" + "1," * 500 + "1]"
        with pytest.raises(protocol.RequestError) as excinfo:
            protocol.decode_line(line)
        assert len(str(excinfo.value)) < 250
        assert "..." in str(excinfo.value)

    def test_valid_object_passes_through(self):
        assert protocol.decode_line('{"op": "stats"}') == {"op": "stats"}


class TestFactArray:
    def test_int32_contract_enforced(self):
        arr = protocol.fact_array([[1, 2, 3]], "facts", columns=(3, 4))
        assert arr.dtype == FACT_DTYPE

    def test_out_of_range_rejected_with_range_in_message(self):
        with pytest.raises(protocol.RequestError,
                           match=r"int32.*\[0, 1099511627776\]"):
            protocol.fact_array([[0, 0, 2 ** 40]], "facts", columns=(3,))

    def test_negative_overflow_rejected(self):
        with pytest.raises(protocol.RequestError, match="int32"):
            protocol.fact_array([[-2 ** 40, 0]], "queries", columns=(2,))

    def test_shape_and_type_validation(self):
        with pytest.raises(protocol.RequestError, match="missing"):
            protocol.fact_array(None, "queries", columns=(2,))
        with pytest.raises(protocol.RequestError, match=r"\(n, 2\)"):
            protocol.fact_array([[1, 2, 3]], "queries", columns=(2,))
        with pytest.raises(protocol.RequestError, match="only integers"):
            protocol.fact_array([[1.5, 2.0]], "queries", columns=(2,))
        with pytest.raises(protocol.RequestError, match="only integers"):
            protocol.fact_array([["a", "b"]], "queries", columns=(2,))

    def test_boundary_values_accepted(self):
        info = np.iinfo(FACT_DTYPE)
        arr = protocol.fact_array([[info.min, info.max]], "queries",
                                  columns=(2,))
        assert arr[0, 0] == info.min and arr[0, 1] == info.max


class TestIdEcho:
    def test_id_echoed_on_success_and_error(self, served):
        engine, _ = served
        ok = protocol.handle_request(engine, {"op": "stats", "id": 42})
        assert ok["id"] == 42
        err = protocol.error_response("boom", {"op": "x", "id": "abc"})
        assert err == {"ok": False, "op": "x", "error": "boom", "id": "abc"}

    def test_no_id_means_no_id_key(self, served):
        engine, _ = served
        assert "id" not in protocol.handle_request(engine, {"op": "stats"})
        assert "id" not in protocol.error_response("boom", None)


class TestBatchedPredict:
    def test_predict_is_one_forward_with_per_query_parity(self, served):
        """N-query predict: ONE batched forward, same answers as N calls.

        The batched path must match the old per-query ``predict_topk``
        loop because the request batch *is* the forward batch either
        way the engine memoises it — and it must cost one score-cache
        miss, not N.
        """
        engine, dataset = served
        t = engine.next_time
        facts = dataset.valid.array[:6]
        request = {"op": "predict", "time": int(t),
                   "queries": facts[:, :2].tolist(), "topk": 4}
        misses_before = engine.stats.counters.get("score_cache_misses", 0)
        response = protocol.handle_request(engine, request)
        assert engine.stats.counters["score_cache_misses"] \
            - misses_before == 1
        assert response["ok"] and len(response["results"]) == len(facts)
        # Per-row parity against the engine's own batched top-k helper.
        rows = engine.predict_topk_batch(facts[:, 0].copy(),
                                         facts[:, 1].copy(), k=4, time=t)
        expected = [[[entity, round(prob, 6)] for entity, prob in row]
                    for row in rows]
        assert response["results"] == expected

    def test_filtered_predict_strikes_known_answers(self, served):
        engine, _ = served
        t = engine.next_time
        engine.advance(np.array([[0, 0, 1], [0, 0, 2]]), time=t)
        response = protocol.handle_request(engine, {
            "op": "predict", "queries": [[0, 0]], "topk": 5,
            "time": int(t), "filtered": True})
        answered = {entity for entity, _ in response["results"][0]}
        assert {1, 2}.isdisjoint(answered)

    def test_unknown_op_lists_valid_ops(self, served):
        engine, _ = served
        with pytest.raises(protocol.RequestError, match="advance, predict"):
            protocol.handle_request(engine, {"op": "nope"})


class TestStrictOptions:
    """``filtered`` takes only JSON booleans, ``topk`` only integers.

    Coercion would turn ``"filtered": "false"`` into filtered results
    and ``"topk": 1.9`` into one result; both are request errors.
    """

    @staticmethod
    def _request(engine, op, **options):
        request = {"op": op,
                   "queries": [[0, 0, 1]] if op == "rank" else [[0, 0]]}
        if op != "forecast":
            request["time"] = engine.next_time
        request.update(options)
        return request

    @pytest.mark.parametrize("op", ["predict", "rank", "forecast"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
    def test_non_boolean_filtered_rejected(self, served, op, value):
        engine, _ = served
        request = self._request(engine, op, filtered=value)
        with pytest.raises(protocol.RequestError,
                           match="filtered must be a JSON boolean") as exc:
            protocol.handle_request(engine, request)
        assert exc.value.op == op
        assert protocol.error_response(exc.value, request)["op"] == op

    @pytest.mark.parametrize("op", ["predict", "forecast"])
    @pytest.mark.parametrize("value", [1.9, 2.0, True, False, "3", None])
    def test_non_integer_topk_rejected(self, served, op, value):
        engine, _ = served
        with pytest.raises(protocol.RequestError,
                           match="topk must be an integer"):
            protocol.handle_request(engine,
                                    self._request(engine, op, topk=value))

    @pytest.mark.parametrize("op", ["predict", "rank", "forecast"])
    def test_boolean_filtered_accepted(self, served, op):
        engine, _ = served
        for value in (True, False):
            response = protocol.handle_request(
                engine, self._request(engine, op, filtered=value, topk=3))
            assert response["ok"] is True
            if op == "rank":
                assert response["filtered"] is value

    def test_integer_topk_sets_result_count(self, served):
        engine, _ = served
        response = protocol.handle_request(
            engine, self._request(engine, "predict", topk=2))
        assert len(response["results"][0]) == 2


class TestNaNRank:
    def test_rank_op_reports_nan_target_rows(self, served, monkeypatch):
        """A NaN gold score is an error response naming the query rows,
        not a rank of 0.5."""
        engine, dataset = served
        queries = [[0, 0, 1], [1, 0, 2], [2, 1, 3]]
        scores = np.zeros((3, dataset.num_entities), dtype=np.float32)
        scores[1, 2] = np.nan
        monkeypatch.setattr(engine, "predict",
                            lambda subjects, relations, time=None:
                            scores.copy())
        request = {"op": "rank", "id": 7, "queries": queries,
                   "time": engine.next_time, "filtered": False}
        with pytest.raises(ValueError) as excinfo:
            protocol.handle_request(engine, request)
        response = protocol.error_response(excinfo.value, request)
        assert response["ok"] is False and response["op"] == "rank"
        assert response["id"] == 7
        assert "NaN target score in query rows [1]" in response["error"]


class TestRankWorkersField:
    def test_workers_field_is_ignored_and_forks_nothing(self, served,
                                                         monkeypatch):
        """A client cannot make the server fork: ``"workers"`` is an
        unrecognised field like any other, and the ranks are unchanged."""
        engine, dataset = served
        rng = np.random.default_rng(0)
        queries = np.stack([
            rng.integers(0, dataset.num_entities, 128),
            rng.integers(0, 2 * dataset.num_relations, 128),
            rng.integers(0, dataset.num_entities, 128)], axis=1).tolist()
        request = {"op": "rank", "queries": queries,
                   "time": engine.next_time}
        plain = protocol.handle_request(engine, request)

        def no_fork():
            raise AssertionError("the rank op forked a process")
        monkeypatch.setattr(os, "fork", no_fork)
        with_workers = protocol.handle_request(engine,
                                               dict(request, workers=2))
        assert with_workers["ok"] is True
        assert with_workers["ranks"] == plain["ranks"]


class TestErrorOpAttribution:
    """Error payloads always name the op they belong to (or "<none>")."""

    def test_sniffed_op_survives_broken_json(self):
        with pytest.raises(protocol.RequestError) as excinfo:
            protocol.decode_line('{"op": "rank", "queries": [[1, 2, 3')
        assert excinfo.value.op == "rank"
        payload = protocol.error_response(excinfo.value)
        assert payload["op"] == "rank" and payload["ok"] is False

    def test_non_object_line_reports_none(self):
        with pytest.raises(protocol.RequestError) as excinfo:
            protocol.decode_line("5")
        assert excinfo.value.op == "<none>"
        assert protocol.error_response(excinfo.value)["op"] == "<none>"

    def test_request_op_wins_over_exception(self):
        payload = protocol.error_response(ValueError("boom"),
                                          {"op": "advance", "id": 9})
        assert payload["op"] == "advance" and payload["id"] == 9

    def test_plain_exception_without_request_is_none(self):
        assert protocol.error_response(ValueError("boom"))["op"] == "<none>"


class TestWatermarkFields:
    """advance/stats responses carry the deterministic store watermark."""

    def test_advance_ack_carries_watermark(self, served):
        engine, _dataset = served
        before = engine.watermark
        ack = protocol.handle_request(
            engine, {"op": "advance", "facts": [[0, 0, 1]],
                     "time": engine.next_time})
        assert ack["ok"] and ack["watermark"] == before + 1

    def test_stats_carries_watermark(self, served):
        engine, _dataset = served
        payload = protocol.handle_request(engine, {"op": "stats"})
        assert payload["watermark"] == engine.watermark


class TestControlOps:
    def test_control_ops_disjoint_from_client_ops(self):
        assert not set(protocol.CONTROL_OPS) & set(protocol.VALID_OPS)
        # Dunder-named on purpose: no client schema collision possible.
        assert all(op.startswith("__") for op in protocol.CONTROL_OPS)

    def test_control_op_is_unknown_to_handle_request(self, served):
        engine, _dataset = served
        with pytest.raises(protocol.RequestError, match="unknown op"):
            protocol.handle_request(engine, {"op": protocol.OP_APPLY})
