"""Process-level memos of the hot paths.

The evaluation filters (``repro.eval.protocol``) are memoized for the
life of the process.  :func:`clear_perf_caches` drops them so a timed
pass starts cold.  The encoder kernels of ``repro.nn.ops`` keep no
memo: their scatter and in-degree counts are recomputed on every call.
"""

from __future__ import annotations


def clear_perf_caches() -> None:
    """Drop every process-level memo the hot paths maintain.

    Covers the eval filter memo in ``repro.eval.protocol``.  Benchmarks
    call this between timed passes so both sides start cold.
    """
    from .eval import protocol as _protocol
    _protocol._FILTER_MEMO.clear()
