#!/usr/bin/env python
"""In-process replay of the serve-stream schedule: op times and memory.

Builds the repository benchmark's ``serve-stream`` inputs and request
schedule with its own code (``benchmarks/perf/serving.py``:
``prepare`` and ``schedule``, over ``workloads.py``'s sizes), so the
two cannot drift apart, and answers every request in order through
``protocol.handle_request`` on one calibrated engine over the store
file, as the daemon's single executor thread would, without sockets
or pacing.

Like the benchmark's processes, it runs numpy on one BLAS/OpenMP
thread (set before numpy loads).

Prints the set-up steps in order (the dataset directory load a
``serve --dataset DIR`` start pays, ``from_checkpoint`` and
``use_store_file``), each with its time and the process's peak
resident set (``VmHWM``) after it; each op's request count and median
and largest time; after each ``advance``, ``VmHWM``, the entries the
engine's context, subgraph and score caches hold, and glibc's heap
arena and the free bytes inside it (``mallinfo2``); digests of the
responses, the calibration window and the drift series, which must
not change when only performance does.  A second replay on a fresh
engine runs under ``tracemalloc``: it prints the bytes still allocated
after each ``advance`` (above what was live before the first request)
and the ``--top`` source lines holding the most of them at the end::

    PYTHONPATH=src python tools/profile_serve.py --top 15
    make profile-serve

It also runs on an older checkout
(``PYTHONPATH=<old>/src python tools/profile_serve.py``).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in every benchmark process; it must be set
# before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Optional, Tuple  # noqa: E402

# The benchmark's workload definitions, read from its directory; it
# imports its sibling ``common`` the same way.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks", "perf"))
from common import load_benchmark_spec  # noqa: E402
from serving import prepare, schedule  # noqa: E402
from workloads import DIM, FULL, SMOKE, WINDOW  # noqa: E402

WORKLOAD = "serve-stream"


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's ``mallinfo2``, or None where the C library lacks it."""
    try:
        func = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        return None
    func.argtypes = []
    func.restype = _MallInfo2
    return func


MALLINFO2 = _mallinfo2()


def heap_mb() -> Optional[Tuple[float, float]]:
    """``(arena, free)``: glibc's non-mmapped heap and the free bytes
    inside it, in MB (None without ``mallinfo2``)."""
    if MALLINFO2 is None:
        return None
    info = MALLINFO2()
    return info.arena / 2**20, info.fordblks / 2**20


def vm_hwm_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def build_engine(inputs: dict, seed: int, steps: Optional[list] = None):
    """The calibrated engine over the store, set up as ``serve
    --dataset DIR --store ... --calibrate`` does; each step's time and
    ``VmHWM`` are appended to ``steps`` when given."""
    from repro.serving import InferenceEngine
    from repro.serving.ops import CalibrationConfig
    from repro.tkg import load_benchmark_directory

    def step(name, run):
        begin = time.perf_counter()
        result = run()
        if steps is not None:
            steps.append((name, time.perf_counter() - begin, vm_hwm_mb()))
        return result

    dataset = step("load dataset directory",
                   lambda: load_benchmark_directory(inputs["directory"]))
    engine = step("from_checkpoint", lambda: InferenceEngine.from_checkpoint(
        inputs["checkpoint"], "logcl", dataset, window=WINDOW, dim=DIM,
        seed=seed))
    engine.enable_calibration(CalibrationConfig())
    step("use_store_file", lambda: engine.use_store_file(inputs["store"]))
    return engine


def answer(engine, request) -> dict:
    """The response the daemon sends for ``request``."""
    from repro.serving import protocol
    body = dict(request.body, id=request.id)
    try:
        return protocol.handle_request(engine, body)
    except Exception as exc:  # the server answers errors the same way
        return protocol.error_response(exc, body)


def cache_entries(engine) -> str:
    """The cache entry counts the engine reported after its last
    advance (n/a on a checkout that does not report them)."""
    scalars = engine.stats.scalars
    if "context_cache_entries" not in scalars:
        return "entries n/a"
    contexts, subgraphs, memo = (
        int(scalars[f"{name}_cache_entries"].recent[-1])
        for name in ("context", "subgraph", "score"))
    return f"entries {contexts}/{subgraphs}/{memo}"


def digest(value) -> str:
    return hashlib.sha256(value).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset, model and schedule seed (default 0)")
    parser.add_argument("--top", type=int, default=15,
                        help="retained allocation sites to print "
                             "(default 15)")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's self-test sizes: a small "
                             "store and a 2 s schedule")
    args = parser.parse_args(argv)
    sizes = SMOKE if args.smoke else FULL
    seconds = sizes.seconds or float(load_benchmark_spec()["run_seconds"])

    with tempfile.TemporaryDirectory() as workdir:
        inputs = prepare(WORKLOAD, sizes, args.seed, workdir)
        requests = schedule(WORKLOAD, sizes, inputs, args.seed, seconds, 1)
        steps = [("inputs prepared", 0.0, vm_hwm_mb())]
        engine = build_engine(inputs, args.seed, steps)

        op_times = defaultdict(list)
        responses, advances = [], []
        for request in requests:
            begin = time.perf_counter()
            response = answer(engine, request)
            op_times[request.body["op"]].append(time.perf_counter() - begin)
            responses.append(response)
            if request.write:
                advances.append((request.body["time"],
                                 len(request.body["facts"]), vm_hwm_mb(),
                                 cache_entries(engine), heap_mb()))
        window = engine.calibration.calibrator.state_array()
        drift = {name: series for name, series in
                 engine.stats.as_dict()["scalars"].items()
                 if name.startswith("drift/")}
        failed = sum(not response.get("ok") for response in responses)
        del engine

        # The traced replay: a fresh engine, the same requests.
        engine = build_engine(inputs, args.seed)
        tracemalloc.start()
        start = tracemalloc.take_snapshot()
        live = tracemalloc.get_traced_memory()[0]
        retained = []
        for request in requests:
            answer(engine, request)
            if request.write:
                retained.append(tracemalloc.get_traced_memory()[0] - live)
        end = tracemalloc.take_snapshot()
        tracemalloc.stop()

    reads = len(requests) - len(advances)
    print(f"{WORKLOAD} replay (gdelt_scale {sizes.stream_fraction:g}, seed "
          f"{args.seed}, dim {DIM}, window {WINDOW}): {len(requests)} "
          f"requests, {len(advances)} advances and {reads} reads, "
          f"{failed} failed, in one process")
    print("  set-up, in order (time of the step, VmHWM after it):")
    for name, seconds_, hwm in steps:
        print(f"    {name:<24} {1e3 * seconds_:8.1f} ms  {hwm:7.1f} MB")
    print("  per op: requests, median and largest time:")
    for op, values in sorted(op_times.items()):
        print(f"    {op:<10} {len(values):5d}  median "
              f"{1e3 * statistics.median(values):8.2f} ms  max "
              f"{1e3 * max(values):8.2f} ms")
    print("  after each advance: VmHWM, cache entries (contexts/"
          "subgraphs/score memo), glibc heap arena and its free bytes, "
          "bytes retained (traced replay):")
    for (time_, facts, hwm, entries, heap), kept in zip(advances, retained):
        arena = ("arena     n/a" if heap is None
                 else f"arena {heap[0]:7.1f} MB  free {heap[1]:7.1f} MB")
        print(f"    t={time_:<6d} {facts:5d} facts  VmHWM {hwm:7.1f} MB  "
              f"{entries}  {arena}  retained {kept / 2**20:7.2f} MiB")
    print(f"  digests: responses "
          f"{digest(json.dumps(responses, sort_keys=True).encode())}  "
          f"calibration window {digest(window.tobytes())} "
          f"({len(window)} scores)  drift series "
          f"{digest(json.dumps(drift, sort_keys=True).encode())}")
    print(f"\ntop {args.top} source lines by bytes retained at the end of "
          f"the traced replay (allocated since its first request):")
    for stat in end.compare_to(start, "lineno")[:args.top]:
        frame = stat.traceback[0]
        print(f"  {stat.size_diff / 2**20:8.2f} MiB  "
              f"{stat.count_diff:+7d} blocks  "
              f"{os.path.relpath(frame.filename)}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
