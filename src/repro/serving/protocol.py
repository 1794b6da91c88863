"""The JSONL serving protocol, shared by the stdin loop and the daemon.

One request is one JSON **object** per line; one response is one JSON
object per line.  The request schema (the same one ``repro.cli serve``
documents) dispatches on ``"op"``:

``advance``   ``{"op": "advance", "time": t, "facts": [[s, r, o], ...]}``
``predict``   ``{"op": "predict", "queries": [[s, r], ...], "topk": k,
              "filtered": false, "time": t}``
``rank``      ``{"op": "rank", "queries": [[s, r, o], ...],
              "filtered": true}``
``score``     ``{"op": "score", "facts": [[s, r, o], ...], "time": t}``
              — calibrated likelihood + anomaly flag per observed fact
``forecast``  ``{"op": "forecast", "queries": [[s, r], ...],
              "horizon": 1, "topk": k, "filtered": false}`` — top-k
              future completions with per-pattern provenance
``stats``     ``{"op": "stats"}``
``save``      ``{"op": "save", "path": "engine_state.npz"}``

``filtered`` must be a JSON boolean and ``topk`` a JSON integer; other
types are request errors rather than coerced.

Every request may carry an optional ``"id"`` field, echoed verbatim in
the response (success or error) so concurrent clients multiplexed over
one connection can correlate replies.  Error responses always name the
``"op"`` they belong to (``"<none>"`` when undeterminable), and the
``advance`` / ``stats`` / ``score`` / ``forecast`` responses carry the
engine's store ``"watermark"`` — the replica-set consistency token
(deterministic for a given request trace, so replicated serving stays
bitwise-identical to the single engine; a ``forecast`` in particular
names the watermark it extrapolated *from*, the freshness token a
consumer checks before acting on a prediction).  The
:data:`CONTROL_OPS` names are the router→replica control channel and
are intentionally *not* part of :data:`VALID_OPS`.

Boundary contracts enforced here, before anything reaches the engine:

* a decoded line must be a JSON *object* — a bare number or string gets
  a structured error naming the offending line, never a traceback;
* fact and query arrays are validated against the end-to-end
  :data:`repro.tkg.quadruples.FACT_DTYPE` (int32) contract — ids that
  would silently wrap on the later narrowing are rejected with a clear
  error at the boundary instead;
* an N-query ``predict`` is answered through **one** batched
  :meth:`repro.serving.engine.InferenceEngine.predict` forward plus the
  shared :func:`repro.eval.metrics.softmax_topk` pass (the request batch
  is the forward batch, the same composition contract as the ``rank``
  op), not N single-query forwards.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..tkg.quadruples import FACT_DTYPE

_FACT_MIN = int(np.iinfo(FACT_DTYPE).min)
_FACT_MAX = int(np.iinfo(FACT_DTYPE).max)

# How much of a malformed line the error message quotes back.
_LINE_PREVIEW = 120

VALID_OPS = ("advance", "predict", "rank", "score", "forecast", "stats",
             "save")

# Replica control channel (router -> replica worker), deliberately
# outside VALID_OPS: clients can never address a replica's control
# surface through the public request schema.
OP_APPLY = "__apply__"          # apply one advance delta
OP_WATERMARK = "__watermark__"  # watermark/readiness handshake
OP_TELEMETRY = "__telemetry__"  # export the replica's telemetry
OP_STOP = "__stop__"            # drain and exit the replica loop
OP_AT_HORIZON = "__at_horizon__"  # run a message at the set's horizon
CONTROL_OPS = (OP_APPLY, OP_WATERMARK, OP_TELEMETRY, OP_STOP, OP_AT_HORIZON)

# Best-effort op extraction from a line that failed to parse, so the
# error payload can still attribute the failure to the intended op.
_OP_SNIFF = re.compile(r'"op"\s*:\s*"([^"\\]*)"')


class RequestError(ValueError):
    """A malformed serving request (bad JSON, shape, dtype or op).

    ``op`` carries the request's (possibly sniffed) op for the error
    payload — ``"<none>"`` when no op could be determined.
    """

    def __init__(self, message: str, op: Optional[str] = None):
        super().__init__(message)
        self.op = "<none>" if op is None else str(op)


def decode_line(line: str) -> Dict[str, Any]:
    """Parse one JSONL request line into a dict.

    Raises :class:`RequestError` (naming the offending line) when the
    line is not valid JSON or decodes to something other than an object
    — a bare ``5`` or ``"x"`` must produce a structured error response,
    not an ``AttributeError`` from ``request.get``.  The error carries
    the offending ``op`` when one is recoverable (sniffed textually from
    unparseable lines), so multi-op clients can attribute the failure.
    """
    preview = line if len(line) <= _LINE_PREVIEW else \
        line[:_LINE_PREVIEW] + "..."
    sniffed = _OP_SNIFF.search(line)
    op_hint = sniffed.group(1) if sniffed else None
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RequestError(f"invalid JSON ({exc.msg}) in line {preview!r}",
                           op=op_hint)
    if not isinstance(request, dict):
        raise RequestError(
            f"request must be a JSON object, got "
            f"{type(request).__name__} in line {preview!r}", op=op_hint)
    return request


def with_id(response: Dict[str, Any],
            request: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Echo the client's optional ``"id"`` field into ``response``."""
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    return response


def error_response(error: object,
                   request: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The structured failure payload (id echoed when known).

    Always names the ``op`` the failure belongs to: the request's own
    ``"op"`` when a request dict is known, else the op the raising
    :class:`RequestError` recovered, else ``"<none>"``.
    """
    op = None
    if isinstance(request, dict) and request.get("op") is not None:
        op = str(request["op"])
    if op is None:
        op = getattr(error, "op", None)
    return with_id({"ok": False, "op": "<none>" if op is None else op,
                    "error": str(error)}, request)


def fact_array(value: object, name: str,
               columns: Tuple[int, ...]) -> np.ndarray:
    """Validate a request's integer array against the int32 fact contract.

    ``columns`` lists the acceptable widths (e.g. ``(3, 4)`` for advance
    facts, ``(2,)`` for predict queries).  Values outside the
    :data:`FACT_DTYPE` (int32) range are rejected here with a clear
    error instead of silently wrapping when later layers narrow; the
    returned array is already ``FACT_DTYPE``.
    """
    if value is None:
        raise RequestError(f"request is missing {name!r}")
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        raise RequestError(f"{name} must be a rectangular integer array")
    if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
        raise RequestError(f"{name} must contain only integers "
                           f"(got dtype {arr.dtype})")
    shape_hint = " or ".join(f"(n, {c})" for c in columns)
    if arr.ndim != 2 or arr.shape[1] not in columns:
        raise RequestError(f"{name} must have shape {shape_hint}, "
                           f"got {arr.shape}")
    if len(arr):
        low, high = int(arr.min()), int(arr.max())
        if low < _FACT_MIN or high > _FACT_MAX:
            raise RequestError(
                f"{name} values must fit {np.dtype(FACT_DTYPE).name} "
                f"(FACT_DTYPE): got range [{low}, {high}]")
    return arr.astype(FACT_DTYPE)


def _flag_option(request: Dict[str, Any], name: str, default: bool) -> bool:
    """A boolean request option; only a JSON ``true``/``false`` is valid.

    ``bool()`` coercion would read the string ``"false"`` as true, so
    anything but an actual boolean is rejected.
    """
    value = request.get(name, default)
    if not isinstance(value, bool):
        raise RequestError(f"{name} must be a JSON boolean, got {value!r}",
                           op=request.get("op"))
    return value


def _topk_option(request: Dict[str, Any]) -> int:
    """The ``topk`` option; only a JSON integer (not a boolean) is valid.

    ``int()`` coercion would truncate ``1.9`` to 1 and read ``true`` as
    1, so floats, strings and booleans are rejected.
    """
    value = request.get("topk", 10)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(f"topk must be an integer, got {value!r}",
                           op=request.get("op"))
    return value


@dataclass(frozen=True)
class PredictSpec:
    """A parsed ``predict`` request: aligned query arrays + options."""

    subjects: np.ndarray
    relations: np.ndarray
    time: Optional[int]
    k: int
    filtered: bool

    def resolve_time(self, engine) -> int:
        """The concrete query timestamp (engine horizon when unset)."""
        return engine.next_time if self.time is None else int(self.time)


def parse_predict(request: Dict[str, Any]) -> PredictSpec:
    """Validate and unpack a ``predict`` request's queries and options."""
    queries = fact_array(request.get("queries"), "queries", columns=(2,))
    time = request.get("time")
    return PredictSpec(
        subjects=np.ascontiguousarray(queries[:, 0]),
        relations=np.ascontiguousarray(queries[:, 1]),
        time=None if time is None else int(time),
        k=_topk_option(request),
        filtered=_flag_option(request, "filtered", False))


def topk_payload(engine, scores: np.ndarray, spec: PredictSpec,
                 query_time: int) -> List[List[List[object]]]:
    """Render a ``(Q, |E|)`` score matrix as the predict results payload.

    One shared :func:`softmax_topk` pass per row over the already-batched
    scores; with ``spec.filtered`` the engine's time-aware filter strikes
    known true answers per row first (the same per-query semantics as
    :meth:`InferenceEngine.predict_topk`).
    """
    from .engine import filtered_topk_rows
    rows = filtered_topk_rows(scores, spec.subjects, spec.relations,
                              query_time, spec.k, engine.filter
                              if spec.filtered else None)
    return [[[entity, round(prob, 6)] for entity, prob in row]
            for row in rows]


def handle_request(engine, request: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one decoded request against ``engine``; returns the payload.

    This is the single serving dispatch shared by the stdin JSONL loop,
    the socket daemon and the router's replicas: the daemon only
    changes *when* a request runs (one executor job each, in arrival
    order), never how.  Raises on invalid input; callers wrap errors via
    :func:`error_response` so serve loops never die on bad requests.
    """
    op = request.get("op")
    if op == "advance":
        facts = fact_array(request.get("facts"), "facts", columns=(3, 4))
        count = engine.advance(facts, time=request.get("time"))
        # The watermark is deterministic for a given request trace
        # (snapshot count), so single-engine and replica-set serving
        # return bitwise-identical advance acknowledgements.
        return with_id({"ok": True, "op": op, "time": engine.last_time,
                        "facts_ingested": count,
                        "watermark": engine.watermark}, request)
    if op == "predict":
        spec = parse_predict(request)
        query_time = spec.resolve_time(engine)
        scores = engine.predict(spec.subjects, spec.relations,
                                time=query_time)
        return with_id({"ok": True, "op": op, "time": query_time,
                        "results": topk_payload(engine, scores, spec,
                                                query_time)}, request)
    if op == "rank":
        queries = fact_array(request.get("queries"), "queries", columns=(3,))
        time = request.get("time")
        filtered = _flag_option(request, "filtered", True)
        ranks = engine.rank_queries(queries[:, 0], queries[:, 1],
                                    queries[:, 2], time=time,
                                    filtered=filtered)
        return with_id({"ok": True, "op": op,
                        "time": engine.next_time if time is None
                        else int(time),
                        "filtered": filtered,
                        "ranks": [round(float(r), 6) for r in ranks]},
                       request)
    if op == "score":
        facts = fact_array(request.get("facts"), "facts", columns=(3, 4))
        time = request.get("time")
        if facts.shape[1] == 4:
            stamps = np.unique(facts[:, 3])
            if len(stamps) > 1:
                raise RequestError("one score call scores one timestamp; "
                                   f"got timestamps {stamps.tolist()}",
                                   op=op)
            if time is None and len(stamps):
                time = int(stamps[0])
        # Lazy import: the ops layer sits above this schema module.
        from . import ops
        return with_id(ops.score_response(
            engine, facts[:, 0], facts[:, 1], facts[:, 2],
            time=None if time is None else int(time)), request)
    if op == "forecast":
        queries = fact_array(request.get("queries"), "queries", columns=(2,))
        horizon = request.get("horizon", 1)
        if not isinstance(horizon, int) or isinstance(horizon, bool) \
                or horizon < 1:
            raise RequestError(f"horizon must be a positive integer, "
                               f"got {horizon!r}", op=op)
        from . import ops
        return with_id(ops.forecast_response(
            engine, queries[:, 0], queries[:, 1], horizon=horizon,
            k=_topk_option(request),
            filtered=_flag_option(request, "filtered", False)), request)
    if op == "stats":
        return with_id({"ok": True, "op": op,
                        "watermark": engine.watermark,
                        "stats": engine.stats.as_dict()}, request)
    if op == "save":
        from ..training import save_engine_state
        save_engine_state(engine, request["path"],
                          metadata=request.get("metadata"))
        return with_id({"ok": True, "op": op, "path": request["path"]},
                       request)
    raise RequestError(f"unknown op {op!r}; valid: {', '.join(VALID_OPS)}")
