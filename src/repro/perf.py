"""Feature flags for the hot-path performance kernels.

The PR-8 speed pass rewired the encoder hot loop — fused message-passing
/ GRU / relation-evolution kernels, cached in-degree normalizers,
inverse-phase context reuse, dataset-keyed filter memoization and an
allocation-free optimizer step.  Each lever sits behind a flag here,
default **on**, with the pre-pass implementation kept callable:

* correctness tests assert the fast and legacy paths agree (bitwise for
  forwards, atol-bounded for gradients);
* ``benchmarks/test_perf_pass.py`` measures the honest before/after by
  running the same workload under :func:`legacy_kernels`.

Flags are process-global (the model stack has no per-instance config
surface for execution details, and forked shard workers inherit the
parent's flag state copy-on-write, so a whole pass always runs one
configuration).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields


@dataclass
class PerfFlags:
    """Toggles for each independent optimization of the speed pass."""

    fused_kernels: bool = True      # fused R-GCN/CompGCN/GRU/evolve ops
    degree_cache: bool = True       # memoized bincount/in-degree normalizers
    reuse_eval_context: bool = True  # share per-timestamp context across phases
    filter_cache: bool = True       # memoize eval filters per dataset
    inplace_optim: bool = True      # allocation-free Adam step / grad-clip norm


FLAGS = PerfFlags()


@contextlib.contextmanager
def legacy_kernels(**overrides: bool):
    """Run a block on the pre-pass code paths (every flag off).

    Keyword overrides re-enable individual levers, e.g.
    ``legacy_kernels(degree_cache=True)``.  Restores the previous flag
    state on exit; used by the parity tests and the perf benchmark's
    "before" measurements.  The history index has no legacy arm: its
    subgraph path (``repro.core.subgraph``) is the same in both.
    """
    saved = {f.name: getattr(FLAGS, f.name) for f in fields(FLAGS)}
    unknown = set(overrides) - set(saved)
    if unknown:
        raise TypeError(f"unknown perf flags: {sorted(unknown)}")
    try:
        for name in saved:
            setattr(FLAGS, name, overrides.get(name, False))
        yield FLAGS
    finally:
        for name, value in saved.items():
            setattr(FLAGS, name, value)


def clear_perf_caches() -> None:
    """Drop every process-level memo the fast paths maintain.

    Covers the scatter-matrix/segment-count caches in ``repro.nn.ops``
    (the in-degree normalizers of ``repro.graph.base`` derive from the
    latter) and the eval filter memo in ``repro.eval.protocol``.
    Benchmarks call this between timed passes so both sides start cold.
    """
    from .nn import ops as _ops
    if _ops._SCATTER_CACHE is not None:
        _ops._SCATTER_CACHE.clear()
    if _ops._COUNTS_CACHE is not None:
        _ops._COUNTS_CACHE.clear()
    from .eval import protocol as _protocol
    _protocol._FILTER_MEMO.clear()
