"""Benchmark-owned span tracer for per-layer attribution.

The program is never edited: the tracer wraps the library's public
layer boundaries from outside, patching each name where its caller
looks it up (a class attribute for methods, the importing module's
global for functions bound with ``from x import f``).  Each call
records one span — name, layer, start, end, parent span and the serving
request ``id`` it belongs to — kept in memory and written out as JSONL
when the process ends.  A layer's self time is its spans' durations
minus the time their child spans cover.

Targets are resolved by dotted name.  A target that no longer resolves
(renamed or removed by a later change) is reported and its layer is
marked absent instead of failing the run.

Run as a script, this file is the serving shim: it installs the
wrappers, then hands its arguments to ``repro.cli.main``; spans are
written when the CLI returns (graceful SIGTERM) and, for forked replica
workers, when each worker exits::

    python3 benchmarks/perf/tracer.py --trace-out spans.jsonl -- serve ...
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (layer, dotted lookup site).  Several sites may feed one layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("history.advance", "repro.core.subgraph.GlobalHistoryIndex.advance_to"),
    ("history.subgraph", "repro.history.store.HistoryStore.subgraph"),
    ("history.window", "repro.history.store.HistoryStore.window_before"),
    ("history.cache", "repro.history.cache.ContextCache.subgraph"),
    ("history.cache", "repro.history.cache.ContextCache.context"),
    ("data.write_store", "repro.data.write_store"),
    ("data.open_store", "repro.data.open_store"),
    ("data.open_store", "repro.data.storefile.open_store"),
    ("tkg.filter_build", "repro.tkg.filtering.TimeAwareFilter.__init__"),
    ("tkg.filter_build", "repro.tkg.filtering.TimeAwareFilter.add_facts"),
    ("tkg.filter_mask",
     "repro.tkg.filtering.TimeAwareFilter.mask_indices_for_batch"),
    ("eval.rank", "repro.eval.protocol.batch_ranks_vectorized"),
    ("eval.rank", "repro.eval.ranking.ranks_of_targets"),
    ("eval.rank", "repro.serving.engine.ranks_of_targets"),
    ("eval.rank", "repro.serving.ops.ranks_of_targets"),
    ("eval.rank", "repro.serving.engine.filtered_topk_rows"),
    ("eval.loop", "repro.eval.protocol.evaluate"),
    ("core.model", "repro.core.model.LogCL.loss_on"),
    ("core.model", "repro.core.model.LogCL.predict_on"),
    ("core.model", "repro.core.model.LogCL.precompute_context"),
    ("core.model", "repro.core.model.LogCL.encode_queries"),
    ("core.local_walk",
     "repro.core.local_encoder.LocalRecurrentEncoder.encode_window"),
    ("core.local_attend",
     "repro.core.local_encoder.LocalRecurrentEncoder.attend"),
    ("core.global", "repro.core.global_encoder.GlobalHistoryEncoder.forward"),
    ("core.decoder", "repro.core.model.LogCL.score_queries"),
    ("core.contrast", "repro.core.model.LogCL.contrast_loss"),
    ("nn.backward", "repro.nn.tensor.Tensor.backward"),
    ("nn.optim", "repro.nn.optim.Adam.step"),
    ("nn.optim", "repro.training.trainer.clip_grad_norm"),
    ("training.fit", "repro.training.trainer.Trainer.fit"),
    ("training.valid_eval", "repro.training.trainer.evaluate"),
    ("serving.protocol", "repro.serving.protocol.handle_request"),
    ("serving.protocol", "repro.serving.protocol.topk_payload"),
    ("serving.predict", "repro.serving.engine.InferenceEngine.predict"),
    ("serving.predict",
     "repro.serving.engine.InferenceEngine.predict_horizon"),
    ("serving.ops", "repro.serving.ops.score_response"),
    ("serving.ops", "repro.serving.ops.forecast_response"),
    ("serving.advance", "repro.serving.engine.InferenceEngine.advance"),
    ("serving.calibration", "repro.serving.ops.CalibrationState.ingest"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in TARGETS))

# Span fields, in the order a span list holds them.
_NAME, _LAYER, _START, _END, _PARENT, _REQ, _CHILD, _COUNT = range(8)


def _resolve(dotted: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, current value)`` for a dotted lookup site."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        # vars() on a class sees only its own attributes: patching an
        # inherited method would shadow it for this class alone.
        if isinstance(owner, type) and parts[-1] not in vars(owner):
            raise AttributeError(f"{dotted} is not defined on "
                                 f"{owner.__name__}")
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"no importable module in {dotted}")


class Tracer:
    """Records spans around the wrapped targets of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, Callable]] = []

    # -- span recording ---------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, layer: str, request_id=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[_REQ]
        span = [name, layer, time.monotonic(), 0.0, parent, request_id,
                0.0, 0]
        self.spans.append(span)
        stack.append(span)
        return span

    def exit(self, span: list) -> None:
        span[_END] = time.monotonic()
        self._stack().pop()
        if span[_PARENT] is not None:
            span[_PARENT][_CHILD] += span[_END] - span[_START]

    # -- installation -----------------------------------------------------
    def install(self, targets: Sequence[Tuple[str, str]] = TARGETS) -> None:
        """Wrap every resolvable target; unresolvable ones go to ``missing``."""
        for layer, dotted in targets:
            try:
                owner, attr, original = _resolve(dotted)
            except (ImportError, AttributeError):
                self.missing.append(dotted)
                continue
            name = ".".join(dotted.split(".")[-2:])
            setattr(owner, attr, _wrap(self, name, layer, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def follow_forks(self, path: str) -> None:
        """Make forked children (replica workers) write their own spans.

        Each child starts with an empty span list and writes it to
        ``<path>.<pid>`` when it exits normally.
        """
        import multiprocessing.util as mp_util

        def reset_in_child(tracer: "Tracer") -> None:
            tracer.spans = []
            tracer._local = threading.local()
            target = f"{path}.{os.getpid()}"
            mp_util.Finalize(None, tracer.dump, args=(target,),
                             exitpriority=10)

        mp_util.register_after_fork(self, reset_in_child)

    # -- export -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every finished span as one JSON line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        pid = os.getpid()
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                if not span[_END]:
                    continue
                parent = span[_PARENT]
                handle.write(json.dumps({
                    "span": i, "pid": pid, "name": span[_NAME],
                    "layer": span[_LAYER], "start": span[_START],
                    "end": span[_END],
                    "self": span[_END] - span[_START] - span[_CHILD],
                    "parent": None if parent is None else index[id(parent)],
                    "id": span[_REQ], "n": span[_COUNT]}) + "\n")


def _wrap(tracer: Tracer, name: str, layer: str, fn: Callable) -> Callable:
    """A span-recording wrapper; some targets also count work in ``n``."""
    if name == "GlobalHistoryIndex.advance_to":
        @functools.wraps(fn)
        def advance(index, *args, **kwargs):
            span = tracer.enter(name, layer)
            before = index.num_indexed_facts
            try:
                return fn(index, *args, **kwargs)
            finally:
                span[_COUNT] = index.num_indexed_facts - before
                tracer.exit(span)
        return advance
    if name == "HistoryStore.subgraph":
        @functools.wraps(fn)
        def subgraph(*args, **kwargs):
            span = tracer.enter(name, layer)
            try:
                edges = fn(*args, **kwargs)
                span[_COUNT] = len(edges[0])
                return edges
            finally:
                tracer.exit(span)
        return subgraph
    if name in ("ContextCache.subgraph", "ContextCache.context"):
        # n counts builds, so calls minus builds are the cache hits.
        @functools.wraps(fn)
        def cached(*args, **kwargs):
            span = tracer.enter(name, layer)
            if "build" in kwargs:
                head, build = args, kwargs.pop("build")
            else:
                *head, build = args

            def counted_build():
                span[_COUNT] += 1
                return build()
            try:
                return fn(*head, counted_build, **kwargs)
            finally:
                tracer.exit(span)
        return cached
    if name == "protocol.handle_request":
        @functools.wraps(fn)
        def handle(engine, request, *args, **kwargs):
            request_id = (request.get("id") if isinstance(request, dict)
                          else None)
            span = tracer.enter(name, layer, request_id)
            try:
                return fn(engine, request, *args, **kwargs)
            finally:
                tracer.exit(span)
        return handle

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(span)
    return wrapper


def absent_layers(missing: Sequence[str],
                  targets: Sequence[Tuple[str, str]] = TARGETS) -> List[str]:
    """Layers none of whose targets resolved (their metrics are absent)."""
    present = {layer for layer, dotted in targets if dotted not in missing}
    return [layer for layer in dict.fromkeys(lay for lay, _ in targets)
            if layer not in present]


# -- analysis -------------------------------------------------------------
def read_spans(paths: Iterable[str]) -> List[dict]:
    """Spans from one or more dump files (one file per process)."""
    spans: List[dict] = []
    for path in paths:
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def layer_self_seconds(spans: Iterable[dict], start: float,
                       end: float) -> Dict[str, float]:
    """Summed self time per layer of the spans that start in [start, end)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if start <= span["start"] < end:
            totals[span["layer"]] += span["self"]
    return dict(totals)


def share_of_ancestor(spans: Sequence[dict], start: float, end: float,
                      ancestor: str, prefix: str) -> float:
    """Share of ``ancestor``-layer spans' time spent in ``prefix`` layers.

    For each span in the window whose nearest ancestor in layer
    ``ancestor`` exists, its self time counts toward that ancestor when
    its own layer starts with ``prefix``; the denominator is the
    ancestors' inclusive duration.
    """
    by_key = {(s["pid"], s["span"]): s for s in spans}
    inside = total = 0.0
    for span in spans:
        if not start <= span["start"] < end:
            continue
        if span["layer"] == ancestor and not _has_ancestor(span, by_key,
                                                            ancestor):
            total += span["end"] - span["start"]
        if span["layer"].startswith(prefix) and _has_ancestor(
                span, by_key, ancestor):
            inside += span["self"]
    return inside / total if total else 0.0


def _has_ancestor(span: dict, by_key: dict, layer: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        node = by_key.get((span["pid"], parent))
        if node is None:
            return False
        if node["layer"] == layer:
            return True
        parent = node["parent"]
    return False


def window_counts(spans: Iterable[dict], start: float,
                  end: float) -> Dict[str, Tuple[int, int]]:
    """``{span name: (calls, summed n)}`` for spans starting in the window."""
    counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for span in spans:
        if start <= span["start"] < end:
            entry = counts[span["name"]]
            entry[0] += 1
            entry[1] += span["n"]
    return {name: (calls, n) for name, (calls, n) in counts.items()}


# -- serving shim -----------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """Install the wrappers, then run ``repro.cli.main`` on the rest."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: tracer.py --trace-out PATH -- <repro cli args>",
              file=sys.stderr)
        return 2
    path, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    for dotted in tracer.missing:
        print(f"trace: target {dotted} not found", file=sys.stderr)
    tracer.follow_forks(path)
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
