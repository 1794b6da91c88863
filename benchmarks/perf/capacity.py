"""Capacity probes for the serving workloads.

    python3 benchmarks/perf/capacity.py --workload serve-stream \\
        --rates 8,12,16,24 [--seed N] [--seconds 9]
    python3 benchmarks/perf/capacity.py --workload serve-replicas \\
        --burst 200

``--rates`` runs the workload's own schedule (reads and writes) at each
fixed rate against a fresh server, started exactly as ``run.py`` starts
it, and reports read p50/p90/p99 and whether every step met the
workload's latency limit.  A workload's capacity is the highest rate
that does; the rate steps frozen in ``workloads.py`` sit at about 25, 50
and 75 % of it.

``--burst N`` instead sends N reads all at once (an unpaced open loop,
no writes) and reports their completion rate and latency percentiles.
That rate overstates what a paced load sustains within the limit, and
burst latencies measure queueing behind the burst, not service time.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import os
import random
import shutil
import sys

from common import RUNS_DIR, quantile, use_library


def percentiles(values) -> str:
    return " ".join(f"p{q} {quantile(values, q / 100):.1f} ms"
                    for q in (50, 90, 99))


def paced(workload: str, inputs: dict, seed: int, workdir: str,
          rate: float, seconds: float, connections: int) -> None:
    from serving import drive, schedule, start_server, summarize
    from workloads import FULL
    sizes = dataclasses.replace(FULL, stream_rates=(rate,) * 3,
                                replicas_rates=(rate,) * 3)
    requests = schedule(workload, sizes, inputs, seed, seconds, connections)
    server, _ = start_server(workload, inputs, seed, workdir)
    try:
        run = asyncio.run(drive(server.address, requests, connections,
                                seconds))
    finally:
        server.stop()
    summary = summarize(requests, run, sizes, workload)
    meets = all(step.get("meets_limit") for step in summary["steps"].values())
    print(f"{rate:g} req/s: {len(summary['reads'])} reads, "
          f"{percentiles(summary['reads'])}, failed {summary['failed']}, "
          f"{'meets' if meets else 'misses'} the limit")


def burst(workload: str, inputs: dict, seed: int, workdir: str,
          count: int, connections: int) -> None:
    from serving import (Request, drive, replica_pool, split_snapshots,
                         start_server, stream_read)
    rng = random.Random(seed)
    first = split_snapshots(inputs["dataset"])[0]
    if workload == "serve-stream":
        bodies = [stream_read(first, rng, i) for i in range(count)]
    else:
        pool = replica_pool(first, rng)
        bodies = [rng.choice(pool) for _ in range(count)]
    requests = [Request(i, 0.0, 0, i % connections, False, body)
                for i, body in enumerate(bodies)]
    server, _ = start_server(workload, inputs, seed, workdir)
    try:
        run = asyncio.run(drive(server.address, requests, connections, 0.0))
    finally:
        server.stop()
    done = [t for t, response in run["received"].values()
            if response.get("ok")]
    elapsed = max(done) - min(run["sent"].values())
    print(f"burst of {count}: {len(done)} ok at {len(done) / elapsed:.1f} "
          f"req/s, {percentiles([(t - run['start']) * 1000.0 for t in done])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("serve-stream", "serve-replicas"))
    parser.add_argument("--seed", type=int, default=0)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rates", type=lambda text: [
        float(r) for r in text.split(",")])
    mode.add_argument("--burst", type=int)
    parser.add_argument("--seconds", type=float, default=9.0)
    args = parser.parse_args(argv)
    use_library()
    from serving import prepare
    from workloads import FULL

    connections = 1 if args.workload == "serve-stream" else min(
        2, os.cpu_count() or 1)
    workdir = str(RUNS_DIR / f"capacity-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = prepare(args.workload, FULL, args.seed, workdir)
        if args.burst:
            burst(args.workload, inputs, args.seed, workdir, args.burst,
                  connections)
        for rate in args.rates or ():
            paced(args.workload, inputs, args.seed, workdir, rate,
                  args.seconds, connections)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
