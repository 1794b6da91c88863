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
is set-up and is not measured.

Like the benchmark's processes, it runs numpy on one BLAS/OpenMP
thread (set before numpy loads), so its stage split is the benchmark's.

Prints the set-up steps in order (``write_store``, ``open_store``, the
time-aware filter's construction, the first pass), each with its time
and the process's peak resident set (``VmHWM``) after it, so a set-up
time or RSS peak can be attributed to its step; then the
``write_store`` time (the median of ``--passes`` writes: the store's
triple index is derived there, so a cold pass need not sort) and the
store's bytes per fact; then, for ``--passes``
unprofiled passes, the median wall time and the minor page faults per
pass (``getrusage`` of this process); then, from one more pass under
``tracemalloc``, each stage's allocation peak above what was live when
it began, and the process's peak resident set (``VmHWM``); then for
``--passes`` passes under cProfile the cumulative time per stage and
the ``--top`` functions by self time (``tottime``)::

    PYTHONPATH=src python tools/profile_eval.py --passes 10 --top 25
    make profile-eval PASSES=20
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in every benchmark process; it must be set
# before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import importlib  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402

# The benchmark's workload definitions, read from its directory; it
# imports its sibling ``common`` the same way.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks", "perf"))
from workloads import DIM, FULL, WINDOW, make_dataset  # noqa: E402

SEED = 0

# (stage, module, qualified function name): the layers a cold pass
# runs, each read as its cumulative time under cProfile and as its
# allocation peak under tracemalloc.
STAGES = (
    ("open_store", "repro.data.storefile", "open_store"),
    ("subgraph (§III-D)", "repro.core.subgraph",
     "GlobalHistoryIndex.subgraph_for_queries"),
    ("local walk (Eq. 4-8)", "repro.core.local_encoder",
     "LocalRecurrentEncoder.encode_window"),
    ("local attend (Eq. 9-11)", "repro.core.local_encoder",
     "LocalRecurrentEncoder.attend"),
    ("global R-GCN (Eq. 12)", "repro.core.global_encoder",
     "GlobalHistoryEncoder.forward"),
    ("decoder features (Eq. 18)", "repro.core.model", "LogCL.score_queries"),
    ("decoder product (Eq. 18)", "repro.interface", "ScoreFactors.rows"),
    ("filter mask", "repro.tkg.filtering",
     "TimeAwareFilter.mask_indices_for_batch"),
    ("rank", "repro.eval.metrics", "ranks_of_targets"),
)


def _stage_target(module: str, qualname: str):
    """``(owner, attribute, function)`` of one stage's entry point, or
    ``None`` when this checkout does not define it."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    func = getattr(owner, "__dict__", {}).get(attr)
    return None if func is None else (owner, attr, func)


def _source_suffix(module: str) -> str:
    return module.split(".", 1)[1].replace(".", "/") + ".py"


def stage_times(stats: pstats.Stats, passes: int):
    """Cumulative milliseconds per pass of each of ``STAGES``."""
    totals = {name: 0.0 for name, _, _ in STAGES}
    for (path, _line, func), (_cc, _nc, _tt, cumtime, _callers) in \
            stats.stats.items():
        for name, module, qualname in STAGES:
            if (func == qualname.rsplit(".", 1)[-1] and path.replace(
                    os.sep, "/").endswith(_source_suffix(module))):
                totals[name] += cumtime
    return [(name, 1e3 * total / passes) for name, total in totals.items()]


@contextmanager
def stage_peaks():
    """Trace allocations; yields ``{stage: bytes}``, filled on exit.

    Each stage's entry point is wrapped: a call records the traced
    peak above what was live when it began, and a stage keeps its
    largest call.  A stage entered inside another still counts toward
    the outer one's peak.
    """
    peaks = {name: 0 for name, _, _ in STAGES}
    active = []                        # [stage, live at entry, peak seen]
    patched = []

    def wrap(name, func):
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            for frame in active:
                frame[2] = max(frame[2], peak)
            tracemalloc.reset_peak()
            frame = [name, current, current]
            active.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                for outer in active:
                    outer[2] = max(outer[2], peak)
                active.pop()
                peaks[name] = max(peaks[name], frame[2] - frame[1])
        return traced

    for name, module, qualname in STAGES:
        target = _stage_target(module, qualname)
        if target is None:
            del peaks[name]
            continue
        owner, attr, func = target
        # ``open_store`` is also re-exported by ``repro.data``.
        owners = [owner] + [mod for mod in list(sys.modules.values())
                            if mod is not owner and getattr(
                                mod, attr, None) is func]
        for target in owners:
            patched.append((target, attr, func))
            setattr(target, attr, wrap(name, func))
    tracemalloc.start()
    try:
        yield peaks
    finally:
        tracemalloc.stop()
        for target, attr, func in reversed(patched):
            setattr(target, attr, func)


def vm_hwm_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


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
    from repro.eval.protocol import _build_filters

    dataset = make_dataset("eval-gdelt", FULL, args.seed)
    model = LogCL(LogCLConfig(dim=DIM, window=WINDOW, seed=args.seed),
                  dataset.num_entities, dataset.num_relations,
                  static_facts=dataset.static_facts)

    setup = [("inputs loaded", 0.0, vm_hwm_mb())]

    def setup_step(name, run):
        begin = time.perf_counter()
        result = run()
        setup.append((name, time.perf_counter() - begin, vm_hwm_mb()))
        return result

    def evaluate_over(store):
        context = HistoryContext(dataset, WINDOW, store=store)
        return evaluate(model, dataset, "test", context=context,
                        window=WINDOW)

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "history.hst")
        info = setup_step("write_store", lambda: write_store(path, dataset))
        # The repeat writes rewrite the file before anything maps it.
        writes = [setup[-1][1]]
        for _ in range(args.passes - 1):
            begin = time.perf_counter()
            write_store(path, dataset)
            writes.append(time.perf_counter() - begin)
        store = setup_step("open_store", lambda: open_store(path))
        setup_step("filter", lambda: _build_filters(dataset, "time-aware"))
        reference = setup_step("first pass", lambda: evaluate_over(store))

        def cold_pass():
            return evaluate_over(open_store(path))

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

        with stage_peaks() as peaks:
            cold_pass()

        profiler = cProfile.Profile()
        for _ in range(args.passes):
            profiler.enable()
            cold_pass()
            profiler.disable()

    print(f"eval-gdelt shape (gdelt_scale {FULL.eval_fraction:g}, first "
          f"test snapshot, {len(dataset.test)} facts, dim {DIM}, window "
          f"{WINDOW}, seed {args.seed}): {args.passes} cold passes")
    print("  set-up, in order (time of the step, VmHWM after it):")
    for name, seconds, hwm in setup:
        print(f"    {name:<14} {1e3 * seconds:8.1f} ms  {hwm:7.1f} MB")
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
    print(f"  peak resident set (VmHWM): {vm_hwm_mb():.1f} MB")
    print("\nper-stage allocation peak under tracemalloc, one pass, MiB "
          "above what was live at the stage's entry:")
    for name, _, _ in STAGES:
        print(f"  {name:<26} " + (f"{peaks[name] / 2**20:8.2f}"
                                  if name in peaks else "     n/a"))
    stats = pstats.Stats(profiler, stream=sys.stdout)
    print(f"\nper-stage cumulative time under cProfile, ms per pass:")
    for name, ms in stage_times(stats, args.passes):
        print(f"  {name:<26} {ms:8.1f}")
    print()
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
