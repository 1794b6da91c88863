"""Process-level memos of the hot-path kernels.

The encoder's scatter matrices and in-degree counts (``repro.nn.ops``)
and the evaluation filters (``repro.eval.protocol``) are memoized for
the life of the process.  :func:`clear_perf_caches` drops them all so a
timed pass starts cold.
"""

from __future__ import annotations


def clear_perf_caches() -> None:
    """Drop every process-level memo the hot paths maintain.

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
