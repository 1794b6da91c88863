"""The repository benchmark: one command, every workload, every metric.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT] [--smoke]

Without ``--workload`` each workload runs in a fresh child process, one
after another.  Every metric prints as ``workload metric value unit``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: for one
workload its end-to-end metrics, or with ``--trace 1`` its per-layer
ones; for all workloads every metric measured, keyed ``workload/metric``.
Outputs are checked, and the exit code is non-zero when a check fails
or any operation failed.

``--seed`` fixes the dataset generator, the model initialisation and
the request schedule.  Each run measures for ``run_seconds`` of
``BENCHMARK.json`` (``--smoke`` runs are shorter); ``--seconds``, when
given, must equal it.  ``--trace 1`` first makes the untraced run, then
reruns the workload with the benchmark's span wrappers installed
(``tracer.py``) and reports per-layer metrics from that second run;
end-to-end numbers always come from the untraced run.  ``--json OUT``
appends every run, stamped with a host fingerprint, to a results file
that ``compare.py`` reads.  Metric names, units and bounds live in the
repository's ``BENCHMARK.json``; README.md defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (HERE, ROOT, RUNS_DIR, child_env, last_json_line,
                    library_present, load_benchmark_spec, median,
                    use_library)

WORKER_TIMEOUT_S = 170.0
CHILD_TIMEOUT_S = 900.0
# Layer groups reported as shares of the set-up interval.
SETUP_GROUPS = (("setup.data_pct", ("data.",)),
                ("setup.filter_build_pct", ("tkg.filter_build",)),
                ("setup.history_pct", ("history.",)))


# -- one workload --------------------------------------------------------------
def closed_loop(workload: str, sizes, seed: int, seconds: float,
                setups: int, workdir: str,
                trace_out: Optional[str] = None) -> dict:
    """Run the worker ``setups`` times; the last one also measures."""
    from workloads import make_dataset, write_inputs
    write_inputs(make_dataset(workload, sizes, seed), seed, workdir)
    setup_times: List[float] = []
    for i in range(setups):
        last = i == setups - 1
        command = [sys.executable, str(HERE / "workloads.py"),
                   "--workload", workload, "--inputs", workdir,
                   "--seed", str(seed), "--seconds", str(seconds)]
        if not last:
            command.append("--setup-only")
        elif trace_out:
            command += ["--trace-out", trace_out]
        launched = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=child_env(), timeout=WORKER_TIMEOUT_S)
        result = last_json_line(proc.stdout)
        if proc.returncode or result is None:
            raise RuntimeError(f"{workload} worker failed:\n"
                               f"{proc.stderr[-3000:]}")
        setup_times.append(result["ready_at"] - launched)
    result["setup_times_s"] = setup_times
    result["setup_window"] = [launched, result["ready_at"]]
    result["attempted"] = len(result["op_times_s"])
    return result


def measure(workload: str, sizes, seed: int, seconds: float, setups: int,
            workdir: str, trace_out: Optional[str] = None) -> dict:
    """One run of ``workload``: raw results plus its end-to-end metrics."""
    os.makedirs(workdir, exist_ok=True)
    if workload.startswith("serve-"):
        from serving import run_serving
        raw = run_serving(workload, sizes, seed, seconds, setups, workdir,
                          trace_out)
        op_ms = raw["summary"]["reads"]
        all_ms = op_ms + raw["summary"]["writes"]
    else:
        raw = closed_loop(workload, sizes, seed, seconds, setups, workdir,
                          trace_out)
        op_ms = all_ms = [t * 1000.0 for t in raw["op_times_s"]]
    # A failed operation has no latency to count, so it fails the run
    # instead: no latency can improve by failing requests.
    raw["checks"]["no_failed_ops"] = raw["failed"] == 0
    raw["metrics"] = {"op_p50_ms": median(op_ms) if op_ms else 0.0,
                      "op_mean_ms": statistics.fmean(all_ms) if all_ms
                      else 0.0,
                      "setup_s": median(raw["setup_times_s"]),
                      "rss_peak_mb": raw["rss_peak_mb"]}
    raw["correct"] = all(raw["checks"].values())
    return raw


def per_layer(workload: str, traced: dict, baseline: dict,
              spans: List[dict], absent: List[str]) -> Dict[str, float]:
    """Per-layer metrics of a traced run (see README.md for each)."""
    from tracer import (LAYERS, layer_self_seconds, share_of_ancestor,
                        window_counts)
    start, end = traced["window"]
    span_s = end - start
    own = layer_self_seconds(spans, start, end)
    metrics = {f"{layer}_pct": 100.0 * own.get(layer, 0.0) / span_s
               for layer in LAYERS if layer not in absent}
    metrics["trace.coverage_pct"] = 100.0 * sum(own.values()) / span_s
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["metrics"]["op_p50_ms"] / baseline["metrics"]["op_p50_ms"]
        - 1.0)
    setup_start, setup_end = traced["setup_window"]
    setup = layer_self_seconds(spans, setup_start, setup_end)
    setup_s = setup_end - setup_start
    for name, prefixes in SETUP_GROUPS:
        metrics[name] = 100.0 * sum(
            v for layer, v in setup.items()
            if layer.startswith(prefixes)) / setup_s
    metrics["setup.untraced_pct"] = 100.0 - 100.0 * sum(
        setup.values()) / setup_s

    ops = max(traced["attempted"], 1)
    counts = window_counts(spans, start, end)

    def hit_ratio(name: str) -> float:
        calls, builds = counts.get(name, (0, 0))
        return 1.0 - builds / calls if calls else 0.0
    metrics["history.advance_facts"] = counts.get(
        "GlobalHistoryIndex.advance_to", (0, 0))[1] / ops
    metrics["history.subgraph_edges"] = counts.get(
        "HistoryStore.subgraph", (0, 0))[1] / ops
    metrics["history.subgraph_hit_ratio"] = hit_ratio("ContextCache.subgraph")
    metrics["history.context_hit_ratio"] = hit_ratio("ContextCache.context")
    metrics["serving.predict_core_share"] = share_of_ancestor(
        spans, start, end, "serving.predict", "core.")
    from serving import loadgen_metrics, stats_metrics
    metrics.update(stats_metrics(workload, traced))
    metrics.update(loadgen_metrics(traced))
    return metrics


def collect_spans(trace_out: str) -> List[dict]:
    """The spans of every process of a traced run (one file each)."""
    from tracer import read_spans
    directory, prefix = os.path.split(trace_out)
    return read_spans(sorted(os.path.join(directory, name)
                             for name in os.listdir(directory)
                             if name.startswith(prefix)))


def write_trace(workload: str, spans: List[dict], traced: dict) -> None:
    """``.runs/trace-<workload>.jsonl``: every span, then one summary line
    with the timed window and each layer's self time within it."""
    from tracer import layer_self_seconds
    start, end = traced["window"]
    summary = {"window": traced["window"],
               "setup_window": traced["setup_window"],
               "self_s": layer_self_seconds(spans, start, end)}
    with open(RUNS_DIR / f"trace-{workload}.jsonl", "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
        handle.write(json.dumps({"summary": summary}) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            sizes) -> dict:
    """The record of one ``--workload`` invocation."""
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = str(RUNS_DIR / f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        untraced = measure(workload, sizes, seed, seconds, sizes.setups,
                           os.path.join(workdir, "untraced"))
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "correct": untraced["correct"],
                  "attempted": untraced["attempted"],
                  "failed": untraced["failed"],
                  "metrics": untraced["metrics"], "per_layer": None,
                  "detail": detail(untraced)}
        if trace:
            trace_out = os.path.join(workdir, "spans.jsonl")
            traced = measure(workload, sizes, seed, seconds, 1,
                             os.path.join(workdir, "traced"), trace_out)
            spans = collect_spans(trace_out)
            write_trace(workload, spans, traced)
            from tracer import absent_layers
            missing = traced.get("missing_targets", [])
            absent = absent_layers(missing)
            for dotted in missing:
                print(f"trace: target {dotted} not found", file=sys.stderr)
            record["per_layer"] = per_layer(workload, traced, untraced,
                                            spans, absent)
            record["absent_layers"] = absent
            record["correct"] = record["correct"] and traced["correct"]
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
            record["detail"]["traced"] = detail(traced)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def detail(raw: dict) -> dict:
    """The human-relevant part of a raw result (kept in ``--json``)."""
    keep = ("checks", "setup_times_s", "op_times_s", "detail", "checked",
            "mismatches", "repeat_share")
    out = {key: raw[key] for key in keep if key in raw}
    if "summary" in raw:
        out["summary"] = {k: v for k, v in raw["summary"].items()
                          if k not in ("reads", "writes")}
    return out


# -- reporting -----------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, env=env,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha}


def append_results(path: str, records: List[dict]) -> None:
    """Add records to a results file (created with the host fingerprint)."""
    payload = {"host": host_fingerprint(), "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["runs"].extend(records)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)


def units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_record(record: dict, unit_of: Dict[str, str]) -> None:
    for group in ("metrics", "per_layer"):
        for name, value in (record.get(group) or {}).items():
            print(f"{record['workload']} {name} {float(value)!r} "
                  f"{unit_of[name]}")
    summary = record["detail"].get("summary")
    if summary:
        for step, row in summary["steps"].items():
            print(f"{record['workload']} step {step}: "
                  + " ".join(f"{k}={v:.4g}" if isinstance(v, float)
                             else f"{k}={v}" for k, v in row.items()))
        print(f"{record['workload']} max_ok_rate_rps "
              f"{summary['max_ok_rate_rps']} 1/s; write_p50_ms "
              f"{summary['write_p50_ms']}")
    for name, ok in record["detail"]["checks"].items():
        print(f"{record['workload']} check {name}: "
              f"{'ok' if ok else 'FAILED'}")


def result_line(record: dict, trace: bool, spec: dict) -> dict:
    """The last-line result object of a single-workload run."""
    declared = [m["name"] for m in
                spec["per_layer" if trace else "end_to_end"]]
    source = record["per_layer"] if trace else record["metrics"]
    unit_of = units(spec)
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": source[name], "unit": unit_of[name]}
                        for name in declared if name in source}}


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in a fresh child process; aggregate their records."""
    records = []
    RUNS_DIR.mkdir(exist_ok=True)
    scratch = RUNS_DIR / f"all-{os.getpid()}.json"
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--trace", str(args.trace), "--json", str(scratch)]
            if args.smoke:
                command.append("--smoke")
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, env=child_env())
            sys.stderr.write(proc.stderr)
            for line in proc.stdout.splitlines()[:-1]:
                print(line)
            if not scratch.exists():
                print(f"{workload} failed (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
        with open(scratch) as handle:
            records = json.load(handle)["runs"]
    finally:
        if scratch.exists():
            scratch.unlink()
    if len(records) != len(spec["workloads"]):
        print("some workloads produced no result", file=sys.stderr)
        return 1
    if args.json:
        append_results(args.json, records)
    metrics, unit_of = {}, units(spec)
    for record in records:
        source = dict(record["metrics"], **(record["per_layer"] or {}))
        for name, value in source.items():
            metrics[f"{record['workload']}/{name}"] = {
                "value": value, "unit": unit_of[name]}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds in BENCHMARK.json, "
                             "which sets the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", default=None, metavar="OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, short runs, one set-up "
                             "(self-tests)")
    args = parser.parse_args(argv)

    if not library_present():
        print(f"benchmark: the program under test ({ROOT / 'src'}) is "
              "missing", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds} differs from run_seconds "
                     f"{spec['run_seconds']} in BENCHMARK.json")
    if args.workload is None:
        return run_all(args, spec)

    use_library()
    from workloads import FULL, SMOKE
    sizes = SMOKE if args.smoke else FULL
    record = run_one(args.workload, args.seed,
                     sizes.seconds or float(spec["run_seconds"]),
                     bool(args.trace), sizes)
    if args.json:
        append_results(args.json, [record])
    print_record(record, units(spec))
    print(json.dumps(result_line(record, bool(args.trace), spec)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
