"""Process-wide telemetry: named counters, latency spans, scalar series.

One :class:`Telemetry` instance is a registry of three kinds of signal:

* **spans** — :class:`StageStats`-backed latency accumulators fed by the
  :meth:`Telemetry.span` context manager.  Spans nest: a span opened
  inside another records under the joined path (``epoch/eval/forward``),
  so one trace distinguishes the evaluator's forward passes inside
  training from standalone ones.
* **counters** — monotonically increasing named integers
  (:meth:`Telemetry.incr`).
* **scalars** — arbitrary numeric series (gradient norms, parameter
  drift) accumulated through :meth:`Telemetry.observe` with the same
  count/mean/percentile summary as spans.

Attach a JSONL sink with :meth:`Telemetry.attach_trace` and every span
completion and scalar observation is appended as one trace event; the
summary event written on detach round-trips :meth:`Telemetry.as_dict`.
Instrumented code paths accept a ``telemetry`` argument defaulting to
:data:`NULL_TELEMETRY`, whose methods are inert, so the hot path pays
nothing when observability is off.

Instances are usually obtained through the process-wide registry
(:func:`get_telemetry`), so a trainer, an evaluator and a CLI command
started in the same process share one set of counters per name.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

# How many recent samples each stage keeps for percentile estimates.
_RESERVOIR = 2048


@dataclass
class StageStats:
    """Streaming accumulator for one latency stage or scalar series."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0
    recent: Deque[float] = field(default_factory=lambda: deque(maxlen=_RESERVOIR))

    def add(self, seconds: float) -> None:
        """Record one sample (seconds for spans, raw value for scalars)."""
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)
        self.recent.append(seconds)

    def percentile(self, q: float) -> float:
        """Empirical q-quantile (0..1), nearest-rank, over retained samples.

        Nearest-rank is ``ceil(q*n)`` 1-based: the smallest sample with at
        least a ``q`` fraction of the data at or below it (so p50 of an
        even-sized sample is the *lower* middle value, not the upper).
        """
        if not self.recent:
            return 0.0
        ordered = sorted(self.recent)
        rank = min(len(ordered) - 1,
                   max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def merge(self, other: "StageStats") -> None:
        """Fold another accumulator's samples into this one.

        Counts and totals add, extrema widen, and the bounded reservoir
        absorbs the other's retained samples (so post-merge percentiles
        are estimated over both sides' recent windows).  Used to fold a
        serving replica's span statistics into the router's registry.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)
        self.recent.extend(other.recent)

    def as_dict(self) -> Dict[str, float]:
        """Millisecond-scaled summary (the latency-span schema)."""
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_ms": round(self.total_s * 1e3, 3),
            "mean_ms": round(mean * 1e3, 3),
            "min_ms": round((self.min_s if self.count else 0.0) * 1e3, 3),
            "max_ms": round(self.max_s * 1e3, 3),
            "p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "p95_ms": round(self.percentile(0.95) * 1e3, 3),
        }

    def as_scalar_dict(self) -> Dict[str, float]:
        """Unit-free summary (the scalar-series schema)."""
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean": round(mean, 6),
            "min": round(self.min_s if self.count else 0.0, 6),
            "max": round(self.max_s, 6),
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "last": round(self.recent[-1], 6) if self.recent else 0.0,
        }


class Telemetry:
    """Registry of named counters, latency spans and scalar series."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self.stages: Dict[str, StageStats] = defaultdict(StageStats)
        self.counters: Dict[str, int] = defaultdict(int)
        self.scalars: Dict[str, StageStats] = defaultdict(StageStats)
        self._started = time.perf_counter()
        self._span_stack: List[str] = []
        self._trace = None            # open JSONL sink, None when off
        self._trace_path: Optional[str] = None

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, nested: bool = True) -> Iterator[None]:
        """Time one occurrence of stage ``name``.

        With ``nested=True`` (default) the recorded stage path is prefixed
        by the innermost open span (``parent/name``); ``nested=False``
        records under the bare name regardless of enclosing spans.
        """
        parent = self._span_stack[-1] if self._span_stack else None
        path = f"{parent}/{name}" if (nested and parent is not None) else name
        depth = len(self._span_stack)
        self._span_stack.append(path)
        begin = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - begin
            self._span_stack.pop()
            self.stages[path].add(elapsed)
            if self._trace is not None:
                self._emit({"type": "span", "name": path, "depth": depth,
                            "t_start_s": round(begin - self._started, 6),
                            "dur_s": round(elapsed, 6)})

    # -- counters and scalars -------------------------------------------
    def incr(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to a named monotonic counter."""
        self.counters[counter] += amount

    def observe(self, series: str, value: float) -> None:
        """Record one sample of a numeric series (grad norm, drift, ...)."""
        value = float(value)
        self.scalars[series].add(value)
        if self._trace is not None:
            self._emit({"type": "scalar", "name": series,
                        "t_s": round(time.perf_counter() - self._started, 6),
                        "value": round(value, 9)})

    # -- lifecycle ------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        """Seconds since construction (or the last :meth:`reset`)."""
        return time.perf_counter() - self._started

    def reset(self) -> None:
        """Clear every span/counter/scalar and restart the clock.

        The attached trace sink (if any) is kept: a long-lived registry
        entry can be reset between runs while tracing continuously.
        """
        self.stages.clear()
        self.counters.clear()
        self.scalars.clear()
        self._span_stack.clear()
        self._started = time.perf_counter()

    # -- trace export ---------------------------------------------------
    def attach_trace(self, path: str) -> None:
        """Open ``path`` as a JSONL sink for span/scalar trace events."""
        if self._trace is not None:
            raise RuntimeError(f"a trace is already attached "
                               f"({self._trace_path})")
        self._trace = open(path, "w")
        self._trace_path = str(path)
        self._emit({"type": "meta", "telemetry": self.name,
                    "clock": "perf_counter", "version": 1})

    def detach_trace(self) -> Optional[str]:
        """Write the summary event, close the sink, return its path."""
        if self._trace is None:
            return None
        self._emit({"type": "summary", **self.as_dict()})
        self._trace.close()
        path = self._trace_path
        self._trace = None
        self._trace_path = None
        return path

    @contextmanager
    def tracing(self, path: str) -> Iterator["Telemetry"]:
        """Attach a trace sink for the duration of a ``with`` block."""
        self.attach_trace(path)
        try:
            yield self
        finally:
            self.detach_trace()

    def _emit(self, event: Dict) -> None:
        self._trace.write(json.dumps(event) + "\n")

    # -- cross-process merge --------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """A picklable snapshot of every span/counter/scalar.

        This is the cross-process transport format: a serving replica
        records into its own private :class:`Telemetry`, ships the
        exported state back over the process boundary, and the router
        folds it in through :meth:`merge_state`.  Unlike
        :meth:`as_dict` (a rendered summary), the exported state keeps
        the raw :class:`StageStats` accumulators so merged percentiles
        stay meaningful.
        """
        return {
            "stages": dict(self.stages),
            "counters": dict(self.counters),
            "scalars": dict(self.scalars),
        }

    def merge_state(self, state: Dict[str, object],
                    prefix: Optional[str] = None) -> None:
        """Fold an :meth:`export_state` snapshot into this registry.

        Span and scalar accumulators merge sample-wise
        (:meth:`StageStats.merge`); counters add.  Merging is
        commutative, so the router may fold replica summaries in any
        order.

        ``prefix`` namespaces every merged name under ``prefix/`` —
        the serving router folds each replica's stats in as
        ``replica0/forward`` etc. so the aggregate keeps per-replica
        attribution instead of blending all workers into one stage.
        """
        pre = f"{prefix}/" if prefix else ""
        for name, stage in state.get("stages", {}).items():
            self.stages[pre + name].merge(stage)
        for counter, amount in state.get("counters", {}).items():
            self.counters[pre + counter] += amount
        for name, series in state.get("scalars", {}).items():
            self.scalars[pre + name].merge(series)

    def merge_child(self, child: "Telemetry",
                    prefix: Optional[str] = None) -> None:
        """Fold another live instance in (in-process convenience form)."""
        self.merge_state(child.export_state(), prefix=prefix)

    # -- export ---------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """The shared telemetry schema (ingested by the benchmark suite)."""
        return {
            "name": self.name,
            "uptime_s": round(self.uptime_s, 3),
            "stages": {name: stage.as_dict()
                       for name, stage in sorted(self.stages.items())},
            "counters": dict(sorted(self.counters.items())),
            "scalars": {name: series.as_scalar_dict()
                        for name, series in sorted(self.scalars.items())},
        }

    def summary_lines(self) -> List[str]:
        """Human-readable rendering for CLI output."""
        lines = [f"telemetry [{self.name}]  uptime {self.uptime_s:8.2f}s"]
        for name, stage in sorted(self.stages.items()):
            d = stage.as_dict()
            lines.append(f"{name:28s} n={d['count']:<6d} "
                         f"mean {d['mean_ms']:8.2f}ms  "
                         f"p50 {d['p50_ms']:8.2f}ms  "
                         f"p95 {d['p95_ms']:8.2f}ms")
        for name, series in sorted(self.scalars.items()):
            d = series.as_scalar_dict()
            lines.append(f"{name:28s} n={d['count']:<6d} "
                         f"mean {d['mean']:10.4f}  last {d['last']:10.4f}")
        for counter, value in sorted(self.counters.items()):
            lines.append(f"{counter:28s} {value}")
        return lines


class NullTelemetry(Telemetry):
    """Inert telemetry: accepts every call, records nothing.

    Instrumented code paths default their ``telemetry`` argument to the
    :data:`NULL_TELEMETRY` singleton so the un-instrumented hot path pays
    only a no-op context manager per span.
    """

    @contextmanager
    def span(self, name: str, nested: bool = True) -> Iterator[None]:
        """No-op span: yields immediately, records nothing."""
        yield

    def incr(self, counter: str, amount: int = 1) -> None:
        """Discard the increment."""
        pass

    def observe(self, series: str, value: float) -> None:
        """Discard the sample."""
        pass

    def merge_state(self, state: Dict[str, object],
                    prefix: Optional[str] = None) -> None:
        """Discard the merge.

        The singleton must stay empty: a merge would make NULL_TELEMETRY
        accumulate state across unrelated runs.
        """
        pass

    def attach_trace(self, path: str) -> None:
        """Refuse: tracing needs a real registry to stamp events from."""
        raise RuntimeError("cannot attach a trace to the null telemetry; "
                           "pass a real Telemetry instance instead")


NULL_TELEMETRY = NullTelemetry("null")

# Process-wide named instances: a trainer, an evaluator and a CLI command
# in the same process share counters by asking for the same name.
_REGISTRY: Dict[str, Telemetry] = {}


def get_telemetry(name: str = "default") -> Telemetry:
    """Return (creating on first use) the process-wide instance ``name``."""
    if name not in _REGISTRY:
        _REGISTRY[name] = Telemetry(name)
    return _REGISTRY[name]


def registered_telemetry() -> Dict[str, Telemetry]:
    """A snapshot of the process-wide registry (name -> instance)."""
    return dict(_REGISTRY)


def read_trace(path: str) -> List[Dict]:
    """Load a JSONL trace written through :meth:`Telemetry.attach_trace`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
