#!/usr/bin/env python
"""Cold time-aware evaluation passes: wall time, page faults, cProfile.

Runs the ``eval-gdelt`` shape: the dataset comes from the repository
benchmark's own generator (``benchmarks/perf/workloads.py``,
``make_dataset("eval-gdelt", FULL, seed)``: ``gdelt_scale`` with every
track family thinned to 0.1, the test split cut to its first
timestamp), so the two cannot drift apart, and the model is a seeded
LogCL at the benchmark's dim 32, window 3.  It writes the
history to a store file, then runs cold passes.  Each pass opens the
store afresh, builds a new ``HistoryContext`` and runs time-aware
filtered ``evaluate``, so no cache outlives a pass.  The first pass
builds the time-aware filter and is not measured.

Prints the ``write_store`` time (the median of ``--passes`` writes:
the store's triple index is derived there, so a cold pass need not
sort) and the store's bytes per fact; then, for ``--passes``
unprofiled passes, the median wall time and the minor page faults per
pass (``getrusage`` of this process), then for as many passes under
cProfile the cumulative time per stage and the ``--top`` functions by
self time (``tottime``)::

    PYTHONPATH=src python tools/profile_eval.py --passes 10 --top 25
    make profile-eval PASSES=20
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import resource
import statistics
import sys
import tempfile
import time

# The benchmark's workload definitions, read from its directory; it
# imports its sibling ``common`` the same way.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks", "perf"))
from workloads import DIM, FULL, WINDOW, make_dataset  # noqa: E402

SEED = 0

# (stage, source file suffix, function name): the layers a cold pass
# runs, each read as its cumulative time under cProfile.
STAGES = (
    ("open_store", "data/storefile.py", "open_store"),
    ("subgraph (§III-D)", "core/subgraph.py", "subgraph_for_queries"),
    ("local walk (Eq. 4-8)", "core/local_encoder.py", "encode_window"),
    ("local attend (Eq. 9-11)", "core/local_encoder.py", "attend"),
    ("global R-GCN (Eq. 12)", "core/global_encoder.py", "forward"),
    ("decoder (Eq. 18)", "core/model.py", "score_queries"),
    ("filter mask", "tkg/filtering.py", "mask_indices_for_batch"),
    ("rank", "eval/metrics.py", "ranks_of_targets"),
)


def stage_times(stats: pstats.Stats, passes: int):
    """Cumulative milliseconds per pass of each of ``STAGES``."""
    totals = {name: 0.0 for name, _, _ in STAGES}
    for (path, _line, func), (_cc, _nc, _tt, cumtime, _callers) in \
            stats.stats.items():
        for name, suffix, wanted in STAGES:
            if func == wanted and path.replace(os.sep, "/").endswith(suffix):
                totals[name] += cumtime
    return [(name, 1e3 * total / passes) for name, total in totals.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=10,
                        help="cold passes per phase (default 10)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default 25)")
    parser.add_argument("--seed", type=int, default=SEED,
                        help="dataset and model seed (default 0)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    from repro import HistoryContext, LogCL, LogCLConfig, evaluate
    from repro.data import open_store, write_store

    dataset = make_dataset("eval-gdelt", FULL, args.seed)
    model = LogCL(LogCLConfig(dim=DIM, window=WINDOW, seed=args.seed),
                  dataset.num_entities, dataset.num_relations,
                  static_facts=dataset.static_facts)

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "history.hst")
        writes = []
        for _ in range(args.passes):
            begin = time.perf_counter()
            info = write_store(path, dataset)
            writes.append(time.perf_counter() - begin)

        def cold_pass():
            context = HistoryContext(dataset, WINDOW, store=open_store(path))
            return evaluate(model, dataset, "test", context=context,
                            window=WINDOW)

        reference = cold_pass()          # builds the time-aware filter
        times, faults = [], []
        for _ in range(args.passes):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            begin = time.perf_counter()
            row = cold_pass()
            times.append(time.perf_counter() - begin)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            if row != reference:
                raise SystemExit("metric row changed between cold passes")

        profiler = cProfile.Profile()
        for _ in range(args.passes):
            profiler.enable()
            cold_pass()
            profiler.disable()

    print(f"eval-gdelt shape (gdelt_scale {FULL.eval_fraction:g}, first "
          f"test snapshot, {len(dataset.test)} facts, dim {DIM}, window "
          f"{WINDOW}, seed {args.seed}): {args.passes} cold passes")
    print(f"  write_store: median {1e3 * statistics.median(writes):.1f} ms "
          f"over {args.passes} writes, {info.num_facts} augmented facts, "
          f"{info.bytes_per_fact:.2f} bytes per fact")
    print(f"  median wall time per pass: "
          f"{1e3 * statistics.median(times):.1f} ms "
          f"(min {1e3 * min(times):.1f}, max {1e3 * max(times):.1f})")
    print(f"  minor page faults per pass: median "
          f"{statistics.median(faults):.0f}")
    print(f"  metric row: mrr {reference['mrr']:.4f} over "
          f"{reference['count']:.0f} queries")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    print(f"\nper-stage cumulative time under cProfile, ms per pass:")
    for name, ms in stage_times(stats, args.passes):
        print(f"  {name:<24} {ms:8.1f}")
    print()
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
