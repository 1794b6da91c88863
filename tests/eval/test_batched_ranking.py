"""Parity tests: the vectorized filter+rank kernel vs per-query oracles.

The batched kernel (``mask_indices_for_batch`` + ``ranks_of_targets``)
must agree *bitwise* with the per-query reference of
``tests/eval/reference_protocol.py`` (dict-based filter, one score copy
and ``rank_of_target`` per query) — same ranks, same MRR, same Hits@k —
across all three filter settings, including tied scores and ``-inf``
rows.
"""

import numpy as np
import pytest

from repro.datasets import tiny
from repro.eval.metrics import (RankingAccumulator, rank_of_target,
                                ranks_of_targets, softmax_topk)
from repro.eval.protocol import FILTER_SETTINGS, evaluate
from repro.tkg.filtering import StaticFilter, TimeAwareFilter
from repro.tkg.quadruples import QuadrupleSet

from tests.eval.reference_protocol import reference_evaluate
from tests.tkg.reference_filter import (ReferenceStaticFilter,
                                        ReferenceTimeAwareFilter)


def _tricky_scores(rng, shape):
    """Score matrices with heavy ties, scattered -inf and all--inf rows."""
    scores = rng.integers(0, 6, size=shape).astype(np.float32)
    scores[rng.random(shape) < 0.1] = -np.inf
    if shape[0] > 2:
        scores[shape[0] // 2] = -np.inf      # a fully filtered-out row
    return scores


class _SeededScoreModel:
    """Deterministic pseudo-random scorer exercising ties and -inf."""

    def __init__(self, num_entities, seed=0):
        self.num_entities = num_entities
        self.seed = seed
        self.training = False

    def eval(self):
        self.training = False
        return self

    def train(self):
        self.training = True
        return self

    def predict_on(self, batch):
        phase_salt = 0 if batch.phase == "forward" else 1
        rng = np.random.default_rng(
            self.seed + 31 * batch.time + phase_salt)
        return _tricky_scores(rng, (len(batch), self.num_entities))


class TestRanksOfTargets:
    def test_matches_scalar_rank_on_tricky_scores(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            scores = _tricky_scores(rng, (7, 40))
            targets = rng.integers(0, 40, size=7)
            expected = [rank_of_target(row, int(t))
                        for row, t in zip(scores, targets)]
            np.testing.assert_array_equal(
                ranks_of_targets(scores, targets), expected)

    def test_all_neg_inf_row_mean_tie(self):
        scores = np.full((1, 5), -np.inf)
        assert ranks_of_targets(scores, [3])[0] == 3.0  # mean of 1..5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ranks_of_targets(np.zeros((2, 4)), [0, 1, 2])

    def test_add_batch_matches_per_row_add(self):
        rng = np.random.default_rng(1)
        scores = _tricky_scores(rng, (6, 20))
        targets = rng.integers(0, 20, size=6)
        batched, scalar = RankingAccumulator(), RankingAccumulator()
        batched.add_batch(scores, targets)
        for row, t in zip(scores, targets):
            scalar.add(rank_of_target(row, int(t)))
        assert batched.ranks == scalar.ranks


class TestMaskIndices:
    @pytest.fixture(scope="class")
    def facts(self):
        return [QuadrupleSet.from_quads(
            [(0, 0, 1, 0), (0, 0, 2, 0), (0, 0, 3, 1), (1, 0, 2, 0),
             (1, 1, 0, 1), (2, 1, 3, 1), (2, 1, 4, 1), (2, 1, 5, 1)])]

    @pytest.mark.parametrize("time", [0, 1])
    def test_time_aware_mask_matches_filter_scores(self, facts, time):
        """The packed mask strikes what the oracle's per-query
        ``filter_scores`` strikes, row by row."""
        filt = TimeAwareFilter(facts)
        oracle = ReferenceTimeAwareFilter(facts)
        rng = np.random.default_rng(2)
        subjects = np.array([0, 1, 2, 5])
        relations = np.array([0, 0, 1, 1])
        targets = np.array([1, 2, 3, 0])
        scores = rng.normal(size=(4, 8)).astype(np.float32)
        rows, cols = filt.mask_indices_for_batch(subjects, relations,
                                                 time, targets)
        assert len(rows)        # the fixture has competitors to strike
        masked = scores.copy()
        masked[rows, cols] = -np.inf
        for row, (s, r, o) in enumerate(zip(subjects, relations, targets)):
            np.testing.assert_array_equal(
                masked[row], oracle.filter_scores(scores[row], int(s),
                                                  int(r), time, int(o)))

    def test_static_mask_matches_filter_scores(self, facts):
        filt = StaticFilter(facts)
        oracle = ReferenceStaticFilter(facts)
        rng = np.random.default_rng(3)
        subjects = np.array([0, 2, 3])
        relations = np.array([0, 1, 0])
        targets = np.array([2, 4, 0])
        scores = rng.normal(size=(3, 8)).astype(np.float32)
        rows, cols = filt.mask_indices_for_batch(subjects, relations,
                                                 0, targets)
        assert len(rows)
        masked = scores.copy()
        masked[rows, cols] = -np.inf
        for row, (s, r, o) in enumerate(zip(subjects, relations, targets)):
            np.testing.assert_array_equal(
                masked[row], oracle.filter_scores(scores[row], int(s),
                                                  int(r), int(o)))

    def test_no_competitors_returns_empty(self):
        filt = TimeAwareFilter([QuadrupleSet.from_quads([(0, 0, 1, 0)])])
        rows, cols = filt.mask_indices_for_batch([0], [0], 0, [1])
        assert len(rows) == 0 and len(cols) == 0

    def test_incremental_add_facts_reflected(self):
        filt = TimeAwareFilter([QuadrupleSet.from_quads([(0, 0, 1, 0)])])
        filt.mask_indices_for_batch([0], [0], 0, [1])  # warm the memo
        filt.add_facts(np.array([[0, 0, 2, 0]]))
        rows, cols = filt.mask_indices_for_batch([0], [0], 0, [1])
        assert rows.tolist() == [0] and cols.tolist() == [2]


class TestEvaluateParity:
    @pytest.mark.parametrize("filter_setting", FILTER_SETTINGS)
    def test_batched_matches_legacy_exactly(self, filter_setting):
        """``evaluate`` == the per-query oracle loop, rows and records."""
        ds = tiny()
        model = _SeededScoreModel(ds.num_entities, seed=11)
        records = []
        metrics = evaluate(model, ds, "test", window=2,
                           filter_setting=filter_setting, records=records)
        ref_metrics, ref_records = reference_evaluate(
            model, ds, "test", window=2, filter_setting=filter_setting)
        assert metrics == ref_metrics       # bitwise-identical metric row
        assert records == ref_records
        assert any(r.rank != 1.0 for r in records)

    def test_mode_restored_after_evaluate(self):
        ds = tiny()
        model = _SeededScoreModel(ds.num_entities)
        model.train()
        evaluate(model, ds, "test", window=2)
        assert model.training is True       # trainer keeps training
        model.eval()
        evaluate(model, ds, "test", window=2)
        assert model.training is False      # serving engines stay in eval


class TestSoftmaxTopk:
    def test_matches_manual_softmax(self):
        scores = np.array([1.0, 3.0, 2.0])
        top = softmax_topk(scores, 2)
        exp = np.exp(scores - 3.0)
        probs = exp / exp.sum()
        assert top[0][0] == 1 and top[1][0] == 2
        assert top[0][1] == pytest.approx(probs[1])

    def test_stable_tie_order_is_lowest_id_first(self):
        scores = np.zeros(6)
        assert [e for e, _ in softmax_topk(scores, 4)] == [0, 1, 2, 3]

    def test_neg_inf_gets_zero_probability(self):
        scores = np.array([0.0, -np.inf, 0.0])
        top = softmax_topk(scores, 3)
        assert top[-1] == (1, 0.0)
        assert top[0][1] == pytest.approx(0.5)

    def test_all_neg_inf_uniform(self):
        top = softmax_topk(np.full(4, -np.inf), 4)
        assert all(p == pytest.approx(0.25) for _, p in top)
