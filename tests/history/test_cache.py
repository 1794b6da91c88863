"""LRUCache / ContextCache: bounds, instrumentation, invalidation."""

import numpy as np
import pytest

from repro.datasets import tiny
from repro.history import (DEFAULT_SUBGRAPH_CAPACITY, ContextCache, LRUCache,
                           array_key, subgraph_key)
from repro.obs import Telemetry
from repro.training.context import HistoryContext, iter_timestep_batches


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh "a"
        cache.put("c", 3)                   # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_capacity_zero_stores_nothing(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None

    def test_evict_if(self):
        cache = LRUCache(8)
        for t in range(5):
            cache.put((t, b""), t)
        assert cache.evict_if(lambda key: key[0] > 2) == 2
        assert sorted(key[0] for key in cache) == [0, 1, 2]


class TestContextCache:
    def test_counters_and_spans_reach_telemetry(self):
        telemetry = Telemetry("cache-test")
        cache = ContextCache(telemetry=telemetry)
        s, r = np.array([0]), np.array([1])
        assert cache.subgraph(3, s, r, lambda: ("edges",)) == ("edges",)
        assert cache.subgraph(3, s, r, lambda: ("other",)) == ("edges",)
        assert cache.context(3, lambda: {"state": 1}) == {"state": 1}
        assert cache.context(3, lambda: {"state": 2}) == {"state": 1}
        assert telemetry.counters["subgraph_cache_misses"] == 1
        assert telemetry.counters["subgraph_cache_hits"] == 1
        assert telemetry.counters["context_cache_misses"] == 1
        assert telemetry.counters["context_cache_hits"] == 1
        assert telemetry.stages["subgraph"].count == 1
        assert telemetry.stages["local_state"].count == 1

    def test_subgraph_key_is_phase_aware(self):
        fwd = subgraph_key(5, np.array([0, 1]), np.array([0, 0]))
        inv = subgraph_key(5, np.array([2, 3]), np.array([2, 2]))
        assert fwd != inv


class TestByteAliasedKeys:
    """Regression: keys derived from raw ``tobytes()`` collide across
    dtypes/widths — ``int64 [0]`` and ``int32 [0, 0]`` serialize to the
    same eight zero bytes.  ``array_key`` folds in dtype and length so no
    such pair can ever share a cache entry."""

    # Pairs whose tobytes() are identical but whose contents are not.
    ALIASES = [
        (np.array([0], dtype=np.int64), np.array([0, 0], dtype=np.int32)),
        (np.array([1], dtype=np.int64),
         np.array([1, 0], dtype=np.int32)),  # little-endian alias of 1
        (np.array([], dtype=np.int64), np.array([], dtype=np.int32)),
    ]

    def test_tobytes_actually_collides(self):
        # The precondition that makes this a regression test at all.
        for wide, narrow in self.ALIASES:
            assert wide.tobytes() == narrow.tobytes()

    def test_array_key_disambiguates(self):
        for wide, narrow in self.ALIASES:
            assert array_key(wide) != array_key(narrow)

    def test_subgraph_key_disambiguates(self):
        for wide, narrow in self.ALIASES:
            rel = np.array([0], dtype=np.int64)
            assert (subgraph_key(5, wide, rel)
                    != subgraph_key(5, narrow, rel))

    def test_colliding_arrays_get_distinct_cache_entries(self):
        cache = ContextCache()
        rel = np.array([0], dtype=np.int64)
        wide, narrow = self.ALIASES[0]
        first = cache.subgraph(5, wide, rel, lambda: "wide-entry")
        second = cache.subgraph(5, narrow, rel, lambda: "narrow-entry")
        assert first == "wide-entry" and second == "narrow-entry"

    def test_scatter_cache_key_includes_dtype_and_length(self):
        # Same defect class as the encoder's former scatter memo:
        # scatters over byte-aliased index arrays must differ.
        from repro.nn.ops import _scatter_add_rows
        from repro.perf import clear_perf_caches
        clear_perf_caches()
        wide, narrow = self.ALIASES[0]
        out_wide = _scatter_add_rows(wide, np.ones((1, 2)), 3)
        out_narrow = _scatter_add_rows(narrow, np.ones((2, 2)), 3)
        assert out_wide[0, 0] == 1.0 and out_narrow[0, 0] == 2.0

    def test_bound_never_exceeded(self):
        cache = ContextCache(context_capacity=2, subgraph_capacity=3)
        for t in range(20):
            cache.subgraph(t, np.array([t]), np.array([0]), lambda: (t,))
            cache.context(t, lambda: t)
            assert len(cache.subgraphs) <= 3
            assert len(cache.contexts) <= 2

    def test_retire_outside_horizon_and_snapshot(self):
        def filled():
            cache = ContextCache()
            for t in (1, 5, 9):
                cache.subgraph(t, np.array([0]), np.array([0]), lambda: (t,))
                cache.context(t, lambda: t)
            return cache

        cache = filled()
        assert cache.retire(-1, after=5) == 2
        assert sorted(cache.contexts) == [1, 5]
        assert sorted(key[0] for key in cache.subgraphs) == [1, 5]
        cache = filled()
        assert cache.retire(5) == 2
        assert sorted(cache.contexts) == [5, 9]
        assert sorted(key[0] for key in cache.subgraphs) == [5, 9]
        cache = filled()
        assert cache.retire(5, after=5) == 4
        assert list(cache.contexts) == [5]
        assert [key[0] for key in cache.subgraphs] == [5]


class TestHistoryContextBound:
    """Regression: the training-side subgraph cache used to be an
    unbounded dict — long multi-split evaluations grew memory without
    limit.  It now shares the serving engine's LRU bound."""

    def test_default_bound_matches_serving(self):
        ctx = HistoryContext(tiny(), window=3)
        assert ctx.cache.subgraphs.capacity == DEFAULT_SUBGRAPH_CAPACITY

    def test_cache_never_exceeds_configured_size(self):
        dataset = tiny()
        bound = 4
        ctx = HistoryContext(dataset, window=3, subgraph_cache_size=bound)
        ctx.reset()
        distinct_keys = set()
        for split in ("train", "valid", "test"):
            for batch in iter_timestep_batches(dataset, split, ctx):
                batch.global_edges
                distinct_keys.add(subgraph_key(batch.time, batch.subjects,
                                               batch.relations))
                assert len(ctx.cache.subgraphs) <= bound
        # The walk must actually overflow the bound for this to regress.
        assert len(distinct_keys) > bound

    def test_repeated_batch_still_hits(self):
        ctx = HistoryContext(tiny(), window=3, subgraph_cache_size=4)
        ctx.reset()
        s, r = np.array([0, 1]), np.array([0, 1])
        first = ctx.global_edges(5, s, r)
        assert ctx.global_edges(5, s, r) is first
