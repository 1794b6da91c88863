"""Tests for ranking metrics and the evaluation protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (RankingAccumulator, rank_of_target,
                        ranks_of_targets)
from repro.eval.protocol import FILTER_SETTINGS, evaluate, format_metric_row


class TestRank:
    def test_best_score_rank_one(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert rank_of_target(scores, 1) == 1

    def test_worst_score(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert rank_of_target(scores, 0) == 3

    def test_ties_mean_rank(self):
        scores = np.array([0.5, 0.5, 0.5])
        assert rank_of_target(scores, 2) == 2.0  # mean of positions 1..3

    def test_constant_scorer_not_rewarded(self):
        scores = np.zeros(100)
        assert rank_of_target(scores, 7) == pytest.approx(50.5)

    def test_neg_inf_filtered_candidates_never_outrank(self):
        scores = np.array([-np.inf, 0.3, -np.inf])
        assert rank_of_target(scores, 1) == 1

    def test_nan_target_score_has_no_rank(self):
        """A NaN compares with nothing: it used to rank 0.5 (reciprocal
        rank 2, so MRR could pass 100 %)."""
        scores = np.array([0.1, np.nan, 0.5], dtype=np.float32)
        with pytest.raises(ValueError, match="NaN score for target 1"):
            rank_of_target(scores, 1)
        assert rank_of_target(scores, 2) == 1   # NaN elsewhere: no effect

    def test_nan_target_rows_named(self):
        scores = np.zeros((4, 3), dtype=np.float32)
        scores[1, 2] = scores[3, 0] = np.nan
        scores[2, :] = -np.inf                   # filtered target: legal
        with pytest.raises(ValueError, match=r"query rows \[1, 3\]"):
            ranks_of_targets(scores, [0, 2, 1, 0])
        np.testing.assert_array_equal(
            ranks_of_targets(scores[[0, 2]], [0, 1]), [2.0, 2.0])


class TestAccumulator:
    def test_mrr_percent(self):
        acc = RankingAccumulator()
        for rank in (1, 2, 4):
            acc.add(rank)
        expected = np.mean([1.0, 0.5, 0.25]) * 100
        assert abs(acc.mrr() - expected) < 1e-9

    def test_hits(self):
        acc = RankingAccumulator()
        for rank in (1, 3, 11):
            acc.add(rank)
        assert acc.hits_at(1) == pytest.approx(100 / 3)
        assert acc.hits_at(3) == pytest.approx(200 / 3)
        assert acc.hits_at(10) == pytest.approx(200 / 3)

    def test_empty_is_zero(self):
        acc = RankingAccumulator()
        assert acc.mrr() == 0.0 and acc.hits_at(1) == 0.0

    def test_rejects_rank_zero(self):
        with pytest.raises(ValueError):
            RankingAccumulator().add(0)

    def test_merge(self):
        a, b = RankingAccumulator(), RankingAccumulator()
        a.add(1); b.add(2)
        a.merge(b)
        assert a.count == 2

    def test_add_batch(self):
        acc = RankingAccumulator()
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        acc.add_batch(scores, [0, 1])
        assert acc.ranks == [1, 1]

    def test_summary_keys(self):
        acc = RankingAccumulator()
        acc.add(1)
        summary = acc.summary()
        assert set(summary) == {"mrr", "count", "hits@1", "hits@3", "hits@10"}

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_metric_invariants(self, ranks):
        acc = RankingAccumulator()
        for rank in ranks:
            acc.add(rank)
        assert 0 < acc.mrr() <= 100
        assert acc.hits_at(1) <= acc.hits_at(3) <= acc.hits_at(10) <= 100
        if all(r == 1 for r in ranks):
            assert acc.mrr() == 100.0


class _OracleModel:
    """Scores the gold object highest — protocol sanity check."""

    def __init__(self, num_entities):
        self.num_entities = num_entities
        self.training = False

    def eval(self):
        return self

    def train(self):
        return self

    def predict_on(self, batch):
        scores = np.zeros((len(batch), self.num_entities))
        scores[np.arange(len(batch)), batch.objects] = 1.0
        return scores


class _AntiOracleModel(_OracleModel):
    """Scores all of a query's true objects low, everything else high.

    Raw vs. time-aware filtering must disagree on this model whenever a
    query has multiple true objects at its timestamp.
    """

    def __init__(self, num_entities, truths):
        super().__init__(num_entities)
        self.truths = truths  # (s, r, t) -> set of objects

    def predict_on(self, batch):
        scores = np.ones((len(batch), self.num_entities))
        for row, (s, r) in enumerate(zip(batch.subjects, batch.relations)):
            for o in self.truths.get((int(s), int(r), batch.time), ()):
                scores[row, o] = -1.0
        return scores


class _NaNTargetModel(_OracleModel):
    """The oracle, except that every third query's gold score is NaN."""

    def predict_on(self, batch):
        scores = super().predict_on(batch)
        rows = np.arange(0, len(batch), 3)
        scores[rows, batch.objects[rows]] = np.nan
        return scores


class TestProtocol:
    def test_nan_target_score_raises(self):
        from repro.datasets import tiny
        ds = tiny()
        with pytest.raises(ValueError, match=r"NaN target score in query "
                                             r"rows \[0, 3"):
            evaluate(_NaNTargetModel(ds.num_entities), ds, "test")

    def test_oracle_scores_perfect(self):
        from repro.datasets import tiny
        ds = tiny()
        metrics = evaluate(_OracleModel(ds.num_entities), ds, "test")
        assert metrics["mrr"] == 100.0
        assert metrics["hits@1"] == 100.0

    def test_invalid_filter_setting(self):
        from repro.datasets import tiny
        with pytest.raises(ValueError):
            evaluate(_OracleModel(1), tiny(), "test", filter_setting="bogus")

    def test_time_aware_filter_improves_anti_oracle(self):
        from repro.datasets import tiny
        ds = tiny()
        truths = {}
        for split in ds.splits().values():
            aug = split.with_inverses(ds.num_relations)
            for s, r, o, t in aug.array:
                truths.setdefault((int(s), int(r), int(t)), set()).add(int(o))
        model = _AntiOracleModel(ds.num_entities, truths)
        raw = evaluate(model, ds, "test", filter_setting="raw")
        filtered = evaluate(model, ds, "test", filter_setting="time-aware")
        # filtering removes the model's deliberately-suppressed competitors
        assert filtered["mrr"] >= raw["mrr"]

    def test_phase_subset(self):
        from repro.datasets import tiny
        ds = tiny()
        both = evaluate(_OracleModel(ds.num_entities), ds, "test")
        fwd = evaluate(_OracleModel(ds.num_entities), ds, "test",
                       phases=("forward",))
        assert fwd["count"] * 2 == both["count"]

    def test_format_metric_row(self):
        row = format_metric_row("LogCL", {"mrr": 48.87, "hits@1": 37.76,
                                          "hits@3": 54.71, "hits@10": 70.26})
        assert "LogCL" in row and "48.87" in row
