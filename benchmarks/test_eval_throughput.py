"""Filtered-ranking throughput — batched kernel vs a per-query loop.

The time-aware filtered ranking protocol (§IV-B1) produces every headline
number in the paper, so its cost dominates each benchmark table and the
serving engine's evaluation loop.  A per-query loop pays one full score
row copy plus a ``true_objects`` set difference and a scalar rank per
query; the
batched kernel strikes all competing true objects with one packed
fancy-index assignment per timestamp batch
(``TimeAwareFilter.mask_indices_for_batch``) and ranks every row in one
broadcasted pass (``ranks_of_targets``).

This bench scores the test split once with a trained LogCL checkpoint,
then times the two ranking kernels over the identical score matrices.
It asserts the headline claim — the batched path ranks >= 5x more
filtered queries per second — and that both paths produce the *same*
metric row on the same checkpoint (``evaluate`` itself is held to a
per-query oracle by ``tests/eval/test_batched_ranking.py`` and
``tests/eval/test_dtype_parity.py``).  Results land in
``benchmarks/results`` (table + JSON, picked up by
``aggregate_results.py``) like the serving-latency numbers.
"""

import json
import time

import numpy as np
import pytest

from _harness import (BENCH_WINDOW, RESULTS_DIR, emit, get_trained_model,
                      logcl_overrides, write_result_table)
from repro.eval.metrics import (RankingAccumulator, rank_of_target,
                                ranks_of_targets)
from repro.tkg.filtering import TimeAwareFilter
from repro.training.context import HistoryContext, iter_timestep_batches

DATASET = "icews14_like"
REPEATS = 5          # timing repeats over the precomputed score matrices


def _score_batches(model, dataset):
    """Score every test batch once; ranking kernels reuse the matrices."""
    context = HistoryContext(dataset, window=BENCH_WINDOW)
    batches = []
    for batch in iter_timestep_batches(dataset, "test", context):
        scores = model.predict_on(batch)
        batches.append((batch.subjects, batch.relations, batch.time,
                        batch.objects, scores))
    return batches


def _per_query_pass(time_filter, batches):
    accumulator = RankingAccumulator()
    for subjects, relations, t, targets, scores in batches:
        for row, (s, r, o) in enumerate(zip(subjects, relations, targets)):
            others = time_filter.true_objects(int(s), int(r), t) - {int(o)}
            query_scores = scores[row].copy()
            query_scores[list(others)] = -np.inf
            accumulator.add(rank_of_target(query_scores, int(o)))
    return accumulator


def _batched_pass(time_filter, batches):
    accumulator = RankingAccumulator()
    for subjects, relations, t, targets, scores in batches:
        rows, cols = time_filter.mask_indices_for_batch(
            subjects, relations, t, targets)
        if len(rows):
            scores = scores.copy()
            scores[rows, cols] = -np.inf
        accumulator.add_ranks(ranks_of_targets(scores, targets))
    return accumulator


def _timed(fn, time_filter, batches, repeats):
    summary = fn(time_filter, batches).summary()   # warm-up + metric row
    started = time.perf_counter()
    for _ in range(repeats):
        fn(time_filter, batches)
    return (time.perf_counter() - started) / repeats, summary


def _run():
    model, dataset, _ = get_trained_model(
        "logcl", DATASET, model_overrides=logcl_overrides())
    batches = _score_batches(model, dataset)
    num_queries = sum(len(targets) for _, _, _, targets, _ in batches)
    augmented = [quads.with_inverses(dataset.num_relations)
                 for quads in dataset.splits().values()]
    time_filter = TimeAwareFilter(augmented)

    per_query_s, per_query_metrics = _timed(_per_query_pass, time_filter,
                                            batches, REPEATS)
    batched_s, batched_metrics = _timed(_batched_pass, time_filter,
                                        batches, REPEATS)
    assert batched_metrics == per_query_metrics, (
        "batched and per-query kernels disagree on the metric row")

    return {
        "dataset": DATASET,
        "num_queries": num_queries,
        "num_entities": dataset.num_entities,
        "timing_repeats": REPEATS,
        "per_query_qps": num_queries / per_query_s,
        "batched_qps": num_queries / batched_s,
        "metrics": {k: round(v, 6) for k, v in batched_metrics.items()},
    }


def test_eval_throughput(benchmark):
    record = benchmark.pedantic(_run, rounds=1, iterations=1)
    per_query = record["per_query_qps"]
    batched = record["batched_qps"]
    speedup = batched / per_query
    record["speedup"] = speedup

    lines = [f"## Filtered-ranking throughput — batched vs per-query on "
             f"{record['dataset']} ({record['num_queries']} queries x "
             f"{record['num_entities']} candidates)",
             f"{'path':24s}{'queries/s':>12s}{'speedup':>9s}",
             f"{'per-query loop':24s}{per_query:12.0f}{1.0:9.1f}x",
             f"{'batched kernel':24s}{batched:12.0f}{speedup:9.1f}x",
             "metric rows identical between both paths: yes"]
    emit(lines)
    write_result_table("eval_throughput", lines)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / "eval_throughput.json", "w") as handle:
        json.dump(record, handle, indent=2)

    # Headline claim: the vectorized filter+rank kernel sustains at least
    # 5x the filtered-ranking throughput of the per-query path.
    assert speedup >= 5.0, f"batched speedup only {speedup:.1f}x"
