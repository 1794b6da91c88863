"""``repro.eval`` — MRR / Hits@k and the time-aware filtered protocol."""

from .heuristics import FrequencyHeuristic, RecencyHeuristic
from .metrics import (RankingAccumulator, rank_of_target, ranks_of_targets,
                      softmax_topk)
from .protocol import FILTER_SETTINGS, evaluate, format_metric_row
from .ranking import batch_ranks_vectorized

__all__ = ["RankingAccumulator", "rank_of_target", "ranks_of_targets",
           "softmax_topk", "evaluate", "format_metric_row",
           "FILTER_SETTINGS", "FrequencyHeuristic", "RecencyHeuristic",
           "batch_ranks_vectorized"]
