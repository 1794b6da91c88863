"""Row-blocked decode + filtered rank, held to the unblocked oracle.

``evaluate`` takes LogCL's Eq. 18 scores as factors (query features and
candidates) and forms, strikes (§IV-B1) and ranks them one row block at
a time; ``batch_ranks_vectorized`` blocks a caller's full matrix the
same way.  On a batch wide enough that the tile budget binds, and with
a time-aware filter that strikes competitors in every block, ranks,
metric rows and per-query records must equal the per-query oracle of
``tests/eval/reference_protocol.py`` bitwise under every filter, and no
stage may allocate a ``(Q, |E|)`` matrix or an ``(E, d)`` per-edge
array.
"""

import tracemalloc

import numpy as np
import pytest

import repro.eval.protocol as protocol_module
import repro.graph.rgcn as rgcn_module
from repro import LogCL, LogCLConfig
from repro.eval.metrics import ranks_of_targets
from repro.eval.protocol import FILTER_SETTINGS, evaluate
from repro.eval.ranking import batch_ranks_vectorized
from repro.interface import ScoreFactors
from repro.nn import ops
from repro.nn.ops import TILE_BYTES, tile_bounds
from repro.tkg.dataset import TKGDataset
from repro.tkg.filtering import TimeAwareFilter
from repro.tkg.quadruples import QuadrupleSet

from tests.eval.reference_protocol import reference_evaluate

NUM_ENTITIES = 3_000
DIM = 32
WINDOW = 2


def _wide_dataset(seed=0, facts_per_step=12_000, steps=4, pairs=200):
    """Random history over 3,000 entities, then one test timestamp whose
    ``pairs`` (s, r) queries each have two true objects, so the
    time-aware filter strikes a competitor of every test query."""
    rng = np.random.default_rng(seed)

    def random_facts(count, t):
        return np.stack([rng.integers(0, NUM_ENTITIES, count),
                         rng.integers(0, 4, count),
                         rng.integers(0, NUM_ENTITIES, count),
                         np.full(count, t)], axis=1)

    train = np.concatenate([random_facts(facts_per_step, t)
                            for t in range(steps)])
    valid = random_facts(200, steps)
    subjects = rng.choice(NUM_ENTITIES, size=pairs, replace=False)
    relations = rng.integers(0, 4, pairs)
    first = rng.integers(0, NUM_ENTITIES, pairs)
    second = (first + rng.integers(1, NUM_ENTITIES, pairs)) % NUM_ENTITIES
    test = np.concatenate([
        np.stack([subjects, relations, objects, np.full(pairs, steps + 1)],
                 axis=1)
        for objects in (first, second)])
    return TKGDataset("wide", QuadrupleSet(train), QuadrupleSet(valid),
                      QuadrupleSet(test), NUM_ENTITIES, 4)


@pytest.fixture(scope="module")
def dataset():
    return _wide_dataset()


@pytest.fixture(scope="module")
def model(dataset):
    return LogCL(LogCLConfig(dim=DIM, window=WINDOW, decoder_kernels=8,
                             seed=3), dataset.num_entities,
                 dataset.num_relations)


def _unblocked_ranks(scores, batch, active):
    """The whole-matrix kernel: copy, strike, one broadcasted rank."""
    scores = scores.copy()
    if active is not None:
        rows, cols = active.mask_indices_for_batch(
            batch.subjects, batch.relations, batch.time, batch.objects)
        scores[rows, cols] = -np.inf
    return ranks_of_targets(scores, batch.objects)


class _Batch:
    def __init__(self, subjects, relations, objects, time):
        self.subjects, self.relations = subjects, relations
        self.objects, self.time = objects, time


class TestBlockedKernel:
    def _case(self, seed, num_q=300, num_e=4_000, dim=16):
        rng = np.random.default_rng(seed)
        # Integer-valued factors: heavy ties in every block.
        factors = ScoreFactors(
            rng.integers(-2, 3, (num_q, dim)).astype(np.float32),
            rng.integers(-2, 3, (num_e, dim)).astype(np.float32))
        facts = np.stack([rng.integers(0, 50, 3_000),
                          rng.integers(0, 3, 3_000),
                          rng.integers(0, num_e, 3_000),
                          np.zeros(3_000, dtype=np.int64)], axis=1)
        batch = _Batch(facts[:num_q, 0], facts[:num_q, 1], facts[:num_q, 2], 0)
        return factors, batch, TimeAwareFilter([QuadrupleSet(facts)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factors_and_matrix_equal_unblocked(self, seed):
        factors, batch, filt = self._case(seed)
        num_q, num_e = factors.shape
        bounds = tile_bounds(num_q, num_e * 4)
        rows, _ = filt.mask_indices_for_batch(
            batch.subjects, batch.relations, batch.time, batch.objects)
        assert len(bounds) > 3
        # Struck entries fall in every block.
        assert all(((rows >= a) & (rows < b)).any()
                   for a, b in zip(bounds[:-1], bounds[1:]))
        full = factors.features @ factors.candidates.T
        untouched = full.copy()
        expected = _unblocked_ranks(full, batch, filt)
        for scores in (factors, full):
            got = batch_ranks_vectorized(scores, batch, filt)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(full, untouched)   # caller's matrix
        raw = batch_ranks_vectorized(factors, batch, None)
        np.testing.assert_array_equal(raw, _unblocked_ranks(full, batch, None))
        assert (raw != expected).any()          # the strike mattered

    def test_nan_error_names_the_batch_row(self):
        factors, batch, _ = self._case(4)
        full = factors.features @ factors.candidates.T
        row = 250                               # in the last block
        full[row, batch.objects[row]] = np.nan
        with pytest.raises(ValueError, match=rf"rows \[{row}\]"):
            batch_ranks_vectorized(full, batch, None)

    def test_misaligned_targets_rejected(self):
        factors, batch, _ = self._case(5)
        batch.objects = batch.objects[:-1]
        with pytest.raises(ValueError):
            batch_ranks_vectorized(factors, batch, None)


class TestEvaluateBlocked:
    @pytest.mark.parametrize("filter_setting", FILTER_SETTINGS)
    def test_rows_and_records_equal_unblocked_oracle(self, dataset, model,
                                                     filter_setting):
        records = []
        row = evaluate(model, dataset, "test", window=WINDOW,
                       filter_setting=filter_setting, records=records)
        ref_row, ref_records = reference_evaluate(
            model, dataset, "test", window=WINDOW,
            filter_setting=filter_setting)
        assert row == ref_row
        assert records == ref_records
        assert len(records) == 2 * len(dataset.test)

    def test_budget_binds_and_filter_strikes(self, dataset):
        queries = len(dataset.test)             # one phase of the batch
        assert len(tile_bounds(queries, NUM_ENTITIES * 4)) > 3
        filt = protocol_module._build_filters(dataset, "time-aware")[0]
        test = dataset.test.array
        rows, _ = filt.mask_indices_for_batch(test[:, 0], test[:, 1],
                                              int(test[0, 3]), test[:, 2])
        assert len(rows) == queries             # one competitor each

    def test_no_query_or_edge_sized_temporaries(self, dataset, model,
                                                monkeypatch):
        """Under tracemalloc, the rank stage stays below one ``(Q, |E|)``
        matrix, no scatter of the pass takes more than one tile of rows,
        and each relational pass over more edges than a tile allocates
        at most three tiles beyond its ``(N, d)`` outputs — an untiled
        pass would hold three ``(E, d)`` arrays."""
        peaks = {"rank": [], "pass": []}

        def traced(key, func, extra=lambda *a: None):
            def wrapper(*args, **kwargs):
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = func(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] - live
                peaks[key].append((peak,) + tuple(extra(*args)))
                return out
            return wrapper

        messages = []

        def spy_scatter(idx, values, num_segments, out=None):
            messages.append(values.nbytes)
            return scatter(idx, values, num_segments, out=out)

        scatter = ops._scatter_add_rows
        monkeypatch.setattr(protocol_module, "batch_ranks_vectorized",
                            traced("rank", batch_ranks_vectorized,
                                   lambda scores, *a: scores.shape))
        monkeypatch.setattr(
            rgcn_module, "fused_relational_pass",
            traced("pass", ops.fused_relational_pass,
                   lambda h, r, wm, ws, src, *a: (len(src),) + h.shape))
        monkeypatch.setattr(ops, "_scatter_add_rows", spy_scatter)
        evaluate(model, dataset, "test", window=WINDOW)      # warm
        for key in peaks:
            peaks[key].clear()
        messages.clear()
        tracemalloc.start()
        try:
            evaluate(model, dataset, "test", window=WINDOW)
        finally:
            tracemalloc.stop()

        assert len(peaks["rank"]) == 2
        for peak, num_q, num_e in peaks["rank"]:
            whole = num_q * num_e * 4
            assert whole > 2 * TILE_BYTES       # the budget binds
            assert peak < whole / 2
        tiled = [(peak, edges, nodes, dim)
                 for peak, edges, nodes, dim in peaks["pass"]
                 if edges * dim * 4 > 2 * TILE_BYTES]
        assert tiled              # the global block, the local snapshots
        for peak, edges, nodes, dim in tiled:
            outputs = 5 * nodes * dim * 4 + 3 * edges * 8
            assert peak < outputs + 3 * TILE_BYTES < outputs + \
                3 * edges * dim * 4
        assert max(messages) <= TILE_BYTES
