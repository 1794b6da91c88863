#!/usr/bin/env python
"""cProfile of warm LogCL training epochs, top functions by self time.

Trains LogCL at dim 32, window 3 on the ``icews14_like`` preset through
the public API, one ``Trainer.fit`` epoch (with its validation pass) at a
time and sharing one ``HistoryContext`` across epochs, as the epochs of
one longer fit do.  The first epoch fills the subgraph caches and is not
profiled; the next ``--epochs`` epochs are.  Prints the warm epoch times,
then the ``--top`` functions by self time (``tottime``), so a train-step
optimisation can start from where the time actually goes::

    PYTHONPATH=src python tools/profile_train.py --epochs 3 --top 25
    make profile-train EPOCHS=5
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

DIM = 32
WINDOW = 3
PRESET = "icews14_like"
SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=3,
                        help="warm epochs to profile (default 3)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default 25)")
    args = parser.parse_args(argv)
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")

    from repro import HistoryContext, LogCL, LogCLConfig, TrainConfig, Trainer
    from repro.datasets import load_preset

    dataset = load_preset(PRESET, seed=SEED)
    model = LogCL(LogCLConfig(dim=DIM, window=WINDOW, seed=SEED),
                  dataset.num_entities, dataset.num_relations)
    context = HistoryContext(dataset, window=WINDOW)
    trainer = Trainer(TrainConfig(epochs=1, eval_every=1, window=WINDOW))
    trainer.fit(model, dataset, context=context)     # cold epoch: not profiled

    profiler = cProfile.Profile()
    times = []
    for _ in range(args.epochs):
        begin = time.perf_counter()
        profiler.enable()
        trainer.fit(model, dataset, context=context)
        profiler.disable()
        times.append(time.perf_counter() - begin)

    print(f"{PRESET} dim {DIM} window {WINDOW}: {args.epochs} warm epoch(s) "
          f"under cProfile, " + ", ".join(f"{t * 1e3:.0f} ms" for t in times))
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
