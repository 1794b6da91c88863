"""Workload definitions, seeded input generation and the in-process workers.

Every workload runs LogCL at dim 32, window 3, from a seeded random
initialisation saved with ``save_checkpoint``: timings do not depend on
the weights, and the program only ever sees generated inputs (dataset
arrays, that checkpoint, and request lines).

Run as a script, this file is the worker process of the closed-loop
workloads (``train-icews14``, ``eval-gdelt``): it loads the inputs
``run.py`` wrote, sets up, reports when it is ready, then repeats the
workload's operation through the public library API for the run
length ``run.py`` passes in ``--seconds``, and prints one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import peak_rss_mb, use_library

DIM = 32
WINDOW = 3
TRAIN_PRESET = "icews14_like"


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes and load levels; ``SMOKE`` shrinks them for self-tests."""

    # Measured seconds per run; None takes ``run_seconds`` from
    # BENCHMARK.json, so both sides of a comparison run equally long.
    seconds: Optional[float] = None
    eval_fraction: float = 0.1          # of the gdelt_scale track counts
    stream_fraction: float = 0.1
    replicas_preset: str = "icews14_like"
    setups: int = 3                     # set-ups per run (median reported)
    # Open-loop rate steps (low, mid, high) in requests per second,
    # frozen at about 25/50/75 % of each workload's capacity: the
    # highest paced rate that still meets its latency limit below.
    stream_rates: Tuple[float, float, float] = (5.0, 10.0, 15.0)
    replicas_rates: Tuple[float, float, float] = (300.0, 600.0, 900.0)


FULL = Sizes()
SMOKE = Sizes(seconds=2.0, eval_fraction=0.01, stream_fraction=0.01,
              replicas_preset="tiny", setups=1,
              stream_rates=(4.0, 8.0, 12.0),
              replicas_rates=(20.0, 40.0, 60.0))


# -- inputs -------------------------------------------------------------
def scale_config(fraction: float, seed: int):
    """``gdelt_scale`` with every track family thinned to ``fraction``."""
    from repro.data.scale import ScaleConfig
    base = ScaleConfig()
    return dataclasses.replace(
        base, name=f"gdelt_scale_{fraction:g}",
        markov_tracks=max(1, int(base.markov_tracks * fraction)),
        drift_tracks=max(1, int(base.drift_tracks * fraction)),
        periodic_tracks=max(1, int(base.periodic_tracks * fraction)),
        sparse_tracks=max(1, int(base.sparse_tracks * fraction)),
        noise_per_step=max(1, int(base.noise_per_step * fraction)),
        seed=seed)


def first_test_snapshot(dataset):
    """The dataset with its test split cut to the first test timestamp."""
    from repro.tkg.dataset import TKGDataset
    from repro.tkg.quadruples import QuadrupleSet
    test = dataset.test.array
    first = test[test[:, 3] == test[:, 3].min()]
    return TKGDataset(dataset.name, dataset.train, dataset.valid,
                      QuadrupleSet(first), dataset.num_entities,
                      dataset.num_relations)


def make_dataset(workload: str, sizes: Sizes, seed: int):
    """The seeded dataset a workload runs on."""
    from repro.data.scale import generate_scale
    from repro.datasets import load_preset
    if workload == "train-icews14":
        return load_preset(TRAIN_PRESET, seed=seed)
    if workload == "eval-gdelt":
        return first_test_snapshot(
            generate_scale(scale_config(sizes.eval_fraction, seed)))
    if workload == "serve-stream":
        return generate_scale(scale_config(sizes.stream_fraction, seed))
    if workload == "serve-replicas":
        return load_preset(sizes.replicas_preset, seed=seed)
    raise KeyError(workload)


def write_inputs(dataset, seed: int, directory: str) -> None:
    """Dataset arrays plus a seeded random-init checkpoint."""
    import numpy as np
    from repro.registry import build_model
    from repro.training import save_checkpoint
    np.savez(os.path.join(directory, "dataset.npz"),
             train=dataset.train.array, valid=dataset.valid.array,
             test=dataset.test.array,
             vocab=np.array([dataset.num_entities, dataset.num_relations]))
    model = build_model("logcl", dataset, dim=DIM, seed=seed)
    save_checkpoint(model, os.path.join(directory, "model.npz"),
                    metadata={"model": "logcl", "dim": DIM, "seed": seed})


def read_dataset(directory: str):
    import numpy as np
    from repro.tkg.dataset import TKGDataset
    from repro.tkg.quadruples import QuadrupleSet
    with np.load(os.path.join(directory, "dataset.npz")) as arrays:
        entities, relations = (int(v) for v in arrays["vocab"])
        return TKGDataset("bench", QuadrupleSet(arrays["train"]),
                          QuadrupleSet(arrays["valid"]),
                          QuadrupleSet(arrays["test"]), entities, relations)


def read_model(dataset, seed: int, directory: str):
    from repro.registry import build_model
    from repro.training import load_checkpoint
    model = build_model("logcl", dataset, dim=DIM, seed=seed)
    load_checkpoint(model, os.path.join(directory, "model.npz"))
    return model


def uniform_mrr_percent(num_entities: int) -> float:
    """Expected MRR (in percent) of ranking uniformly at random."""
    return 100.0 * sum(1.0 / k for k in range(1, num_entities + 1)) \
        / num_entities


# -- closed-loop workers --------------------------------------------------
def run_train(dataset, model, seconds: float, ready) -> dict:
    """``Trainer.fit`` one epoch at a time; the model and history context
    are shared across samples as they are across the epochs of one fit."""
    from repro import HistoryContext, TrainConfig, Trainer
    context = HistoryContext(dataset, window=WINDOW)
    trainer = Trainer(TrainConfig(epochs=1, eval_every=1, window=WINDOW))
    # The first epoch builds every subgraph cache entry: it is set-up.
    results = [trainer.fit(model, dataset, context=context)]
    ready()
    times: List[float] = []
    started = time.monotonic()
    while not times or time.monotonic() - started < seconds:
        begin = time.monotonic()
        results.append(trainer.fit(model, dataset, context=context))
        times.append(time.monotonic() - begin)
    window = [started, time.monotonic()]
    losses = [r.train_losses[-1] for r in results]
    valid_mrr = results[-1].valid_mrrs[-1]
    floor = 3.0 * uniform_mrr_percent(dataset.num_entities)
    checks = {
        "losses_finite": all(math.isfinite(x) for x in losses),
        "loss_decreased": losses[-1] < losses[0],
        "valid_mrr_above_3x_uniform": valid_mrr >= floor,
    }
    failed = sum(1 for x in losses[1:] if not math.isfinite(x))
    return {"op_times_s": times, "window": window, "checks": checks,
            "failed": failed, "detail": {"losses": losses,
                                         "valid_mrr": valid_mrr,
                                         "valid_mrr_floor": floor}}


def run_eval(dataset, model, seconds: float, ready, workdir: str) -> dict:
    """Cold passes of time-aware filtered ``evaluate`` over a store file:
    each pass opens the store afresh and builds a new history context."""
    import repro.data as data
    import repro.eval.protocol as protocol
    from repro import HistoryContext

    def cold_pass() -> Dict[str, float]:
        store = data.open_store(path)
        context = HistoryContext(dataset, WINDOW, store=store)
        return protocol.evaluate(model, dataset, "test", context=context,
                                 window=WINDOW)

    path = os.path.join(workdir, "history.hst")
    data.write_store(path, dataset)
    reference = cold_pass()         # also builds the time-aware filter
    ready()
    fault = os.environ.get("PERF_BENCH_FAULT") == "eval-row"
    times: List[float] = []
    mismatches = 0
    started = time.monotonic()
    while not times or time.monotonic() - started < seconds:
        begin = time.monotonic()
        row = cold_pass()
        times.append(time.monotonic() - begin)
        if fault and len(times) == 1:
            row = dict(row, mrr=row["mrr"] + 1e-9)
        mismatches += row != reference
    window = [started, time.monotonic()]
    queries = 2 * len(dataset.test)
    checks = {"rows_identical": mismatches == 0,
              "count_matches": reference["count"] == queries}
    return {"op_times_s": times, "window": window, "checks": checks,
            "failed": mismatches, "detail": {"row": reference}}


def worker_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("train-icews14", "eval-gdelt"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    use_library()
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ready_at: List[float] = []

    def ready() -> None:
        ready_at.append(time.monotonic())
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at[0]}), flush=True)
            sys.exit(0)

    dataset = read_dataset(args.inputs)
    model = read_model(dataset, args.seed, args.inputs)
    if args.workload == "train-icews14":
        result = run_train(dataset, model, args.seconds, ready)
    else:
        result = run_eval(dataset, model, args.seconds, ready, args.inputs)
    result["ready_at"] = ready_at[0]
    result["rss_peak_mb"] = peak_rss_mb(os.getpid())
    if tracer is not None:
        tracer.dump(args.trace_out)
        result["missing_targets"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
