"""Bounded, instrumented caches over history-derived state.

Two cache families used to live as three divergent implementations —
an unbounded dict on the training ``HistoryContext`` and two hand-rolled
``OrderedDict`` LRUs on the serving engine.  They are now one layer:

* :class:`LRUCache` — a minimal bounded mapping with move-to-front on
  hit and eviction of the least-recently-used entry on overflow;
* :class:`ContextCache` — the history-specific composition every
  consumer shares: one LRU of **precomputed encoder contexts** (keyed by
  query timestamp) and one LRU of **per-batch query subgraphs** (keyed
  by ``(time, array_key(subjects), array_key(relations))`` — the §III-D
  subgraph is seeded from each query's ``(s, r)`` and its historical
  answers, so the forward and inverse phases of one timestamp seed
  *different* subgraphs and may not share one merged edge set).

:func:`array_key` is the shared helper for keying on array contents; it
folds in dtype and length so byte-aliased arrays of different widths
(``int64 [0]`` vs ``int32 [0, 0]``) can never share an entry.

Every get-or-build is instrumented through :mod:`repro.obs`: hits and
misses bump ``context_cache_hits`` / ``context_cache_misses`` /
``subgraph_cache_hits`` / ``subgraph_cache_misses`` counters and each
build runs inside a ``local_state`` / ``subgraph`` span, so the training
and serving paths report cache behaviour through one telemetry schema.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, Optional, Tuple

import numpy as np

from ..obs import NULL_TELEMETRY, Telemetry

# One shared bound for per-batch subgraph caches.  Long multi-split
# evaluations used to grow the training-side dict without limit; the
# serving engine always capped at this size.
DEFAULT_SUBGRAPH_CAPACITY = 512
# Precomputed encoder contexts hold full entity matrices (LogCL's: the
# window's aggregates plus the query-free local matrix every read copies
# its candidates from), so the default bound is small; serving rarely
# needs more than a couple of horizons.
DEFAULT_CONTEXT_CAPACITY = 4


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    ``capacity <= 0`` disables storage entirely (every lookup misses),
    which callers use to switch a memo off without branching.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The stored value (marked most-recent), or None."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting least-recent past capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > max(self.capacity, 0):
            self._entries.popitem(last=False)

    def evict_if(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        stale = [key for key in self._entries if predicate(key)]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


def array_key(arr: np.ndarray) -> Tuple[str, int, bytes]:
    """A collision-safe hashable key for an index array's contents.

    Raw ``tobytes()`` alone is NOT a safe cache key: the byte string
    carries neither dtype nor element count, so e.g. ``int64 [0]`` and
    ``int32 [0, 0]`` serialize identically (a collision the encoder's
    former scatter-matrix memo once had).  Prefixing the dtype
    string and length disambiguates every such pair.  Use this helper —
    not bare ``tobytes()`` — whenever an array's contents become part of
    a cache key.
    """
    arr = np.ascontiguousarray(arr)
    return (arr.dtype.str, arr.shape[0] if arr.ndim else 0, arr.tobytes())


def subgraph_key(query_time: int, subjects: np.ndarray,
                 relations: np.ndarray) -> Tuple:
    """The canonical per-batch subgraph cache key (phase-aware: the query
    arrays are part of the key, not just the timestamp).

    Both query arrays are keyed through :func:`array_key` so that
    callers handing in different index dtypes (the serving engine
    normalizes to ``int32`` fact columns, the training context yields
    ``int64`` ids) can never alias one another's entries.
    """
    return (int(query_time), array_key(subjects), array_key(relations))


class ContextCache:
    """Shared LRU layer over encoder contexts and query subgraphs.

    Parameters
    ----------
    telemetry:
        Hit/miss counters and build spans land here.  Mutable: consumers
        that learn their telemetry late (``evaluate`` receiving one for a
        pre-built context) rebind :attr:`telemetry` in place.
    context_capacity, subgraph_capacity:
        LRU bounds.  The subgraph bound is the one the serving engine
        always enforced; the training context now shares it
        (``tests/history/test_cache.py`` asserts neither cache ever
        exceeds its bound).
    """

    def __init__(self, telemetry: Telemetry = NULL_TELEMETRY,
                 context_capacity: int = DEFAULT_CONTEXT_CAPACITY,
                 subgraph_capacity: int = DEFAULT_SUBGRAPH_CAPACITY):
        self.telemetry = telemetry
        self.contexts = LRUCache(context_capacity)
        self.subgraphs = LRUCache(subgraph_capacity)

    # -- get-or-build ---------------------------------------------------
    def context(self, query_time: int, build: Callable[[], Any]) -> Any:
        """The precomputed encoder context for ``query_time``.

        A miss runs ``build`` inside a ``local_state`` span (flat, not
        nested under enclosing spans — the stage names line up with the
        serving pipeline's regardless of caller).
        """
        cached = self.contexts.get(query_time)
        if cached is not None:
            self.telemetry.incr("context_cache_hits")
            return cached
        self.telemetry.incr("context_cache_misses")
        with self.telemetry.span("local_state", nested=False):
            value = build()
        self.contexts.put(query_time, value)
        return value

    def subgraph(self, query_time: int, subjects: np.ndarray,
                 relations: np.ndarray, build: Callable[[], Any]) -> Any:
        """The merged historical subgraph for one query batch."""
        key = subgraph_key(query_time, subjects, relations)
        cached = self.subgraphs.get(key)
        if cached is not None:
            self.telemetry.incr("subgraph_cache_hits")
            return cached
        self.telemetry.incr("subgraph_cache_misses")
        with self.telemetry.span("subgraph", nested=False):
            value = build()
        self.subgraphs.put(key, value)
        return value

    # -- invalidation ---------------------------------------------------
    def invalidate_after(self, time: int) -> None:
        """Drop entries whose query time exceeds ``time``.

        Called on snapshot ingestion: anything cached for a query time
        beyond the new snapshot now has a stale history; entries at or
        before it are unaffected.
        """
        self.contexts.evict_if(lambda key: key > time)
        self.subgraphs.evict_if(lambda key: key[0] > time)

    def clear(self) -> None:
        """Drop both layers (model changed; nothing remains valid)."""
        self.contexts.clear()
        self.subgraphs.clear()
