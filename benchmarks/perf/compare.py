"""Compare a change's benchmark runs against its parent's, metric by metric.

    python3 benchmarks/perf/compare.py PARENT.json[#SET] CHANGE.json[#SET]

Each argument is a results file written by ``run.py --json`` (``#SET``
picks one named set out of a file that holds several, such as
``baseline/seed.json#first``).  Runs pair up by position, so record
them alternating which side runs first.  Every run must have measured
for the same number of seconds.  A workload on which a change run
failed an output check, or the change failed more operations than the
parent, is ``failing`` as a whole.  Otherwise, for every end-to-end
metric of ``BENCHMARK.json`` the verdict is:

``improved``    at least 10 pairs, the change wins at least 9 of every
                10 (ties count for neither side), and the medians differ
                in its favour by more than the parent's inter-quartile
                distance;
``unresolved``  either side's inter-quartile spread, as a share of its
                median, is wider than the metric's bound — unless every
                run of the change beats every run of the parent;
``regressed``   the change's median is worse than the parent's by more
                than the metric's bound;
``no-worse``    otherwise.

The exit code is 1 when any workload is failing or any pairing is
regressed or unresolved, and 2 when the runs differ in length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from common import load_benchmark_spec, median

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(argument: str) -> List[dict]:
    path, _, key = argument.partition("#")
    with open(path) as handle:
        payload = json.load(handle)
    if key:
        payload = payload[key]
    return payload["runs"]


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """The section-8 rule for one workload x metric pairing."""
    sign = 1.0 if better == "lower" else -1.0      # positive = worse
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    gain = sign * (median(parent) - median(change))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > iqr(parent)):
        return "improved"
    spread = max(iqr(parent) / abs(median(parent)),
                 iqr(change) / abs(median(change)))
    every_run_better = all(sign * (b - a) < 0
                           for a in parent for b in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    if -gain / abs(median(parent)) > bound:
        return "regressed"
    return "no-worse"


def by_workload(runs: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        metrics = grouped.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return grouped


def failing(parent: List[dict], change: List[dict], workload: str) -> bool:
    """Whether the change's runs of ``workload`` failed where the
    parent's did not: a gain never counts when more operations fail."""
    mine = [r for r in change if r["workload"] == workload]
    theirs = [r for r in parent if r["workload"] == workload]
    return (not all(r["correct"] for r in mine)
            or sum(r["failed"] for r in mine)
            > sum(r["failed"] for r in theirs))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_benchmark_spec()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    lengths = {r["seconds"] for r in parent_runs + change_runs}
    if len(lengths) > 1:
        print(f"runs of different lengths cannot be compared: "
              f"{sorted(lengths)} s", file=sys.stderr)
        return 2
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    failing_rows = 0
    print(f"{'workload':16s}{'metric':14s}{'pairs':>6s}{'parent':>12s}"
          f"{'change':>12s}{'diff %':>9s}{'bound %':>9s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if failing(parent_runs, change_runs, workload):
            print(f"{workload:16s}{'(all)':14s}  failing")
            failing_rows += 1
            continue
        for metric in spec["end_to_end"]:
            a = parent.get(workload, {}).get(metric["name"], [])
            b = change.get(workload, {}).get(metric["name"], [])
            if not a or not b:
                print(f"{workload:16s}{metric['name']:14s}  (no runs)")
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            failing_rows += result in ("regressed", "unresolved")
            diff = 100.0 * (median(b) / median(a) - 1.0)
            print(f"{workload:16s}{metric['name']:14s}"
                  f"{min(len(a), len(b)):>6d}{median(a):>12.4g}"
                  f"{median(b):>12.4g}{diff:>+9.1f}"
                  f"{100 * metric['bound']:>9.0f}  {result}")
    return 1 if failing_rows else 0


if __name__ == "__main__":
    sys.exit(main())
