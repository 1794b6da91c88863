"""Serving workloads: the real CLI server under a seeded open-loop load.

The server is ``python -m repro serve --listen 127.0.0.1:0 --store ...``
(through the tracer shim in a traced run), so later serving refactors
can change every internal without touching this file.  Load comes from
this one process: a single asyncio thread with at most two connections.
Each request is timed from the moment it was due, so a stall counts
against every request queued behind it, and the generator reports how
late it ran.

Output check: a seeded 10% sample of reads, plus every ``advance``
acknowledgement, must equal bitwise what an in-process serial engine
answers when it replays the send order.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (HERE, ROOT, child_env, descendants, median, quantile,
                    tree_peak_rss_mb)
from workloads import DIM, WINDOW, Sizes, make_dataset, write_inputs

STEPS = ("low", "mid", "high")
START_TIMEOUT_S = 150.0
# How long after the last due time responses may still arrive.
GRACE_S = 10.0
CHECK_SHARE = 0.10
LATE_SEND_MS = 5.0
# serve-stream reads: 60 % predict, 20 % rank, 10 % score, 10 % forecast,
# in a fixed order so every run and seed gets exactly the same mix.
STREAM_CYCLE = ("predict", "rank", "predict", "score", "predict",
                "forecast", "predict", "rank", "predict", "predict")
# serve-replicas hot read set: distinct predict and rank requests.
POOL_PREDICTS, POOL_RANKS = 48, 16
# Latency limit of each workload's tail percentile (see summarize).
LIMIT_MS = {"serve-stream": 100.0, "serve-replicas": 50.0}


@dataclass
class Request:
    id: int
    due: float            # seconds after the schedule starts
    step: int             # index into STEPS
    conn: int
    write: bool
    body: dict

    @property
    def line(self) -> bytes:
        return (json.dumps(dict(self.body, id=self.id)) + "\n").encode()


# -- inputs -----------------------------------------------------------------
def prepare(workload: str, sizes: Sizes, seed: int, workdir: str) -> dict:
    """Dataset directory, store file and checkpoint for the server."""
    from repro.data import write_store_facts
    from repro.tkg import save_benchmark_directory
    dataset = make_dataset(workload, sizes, seed)
    write_inputs(dataset, seed, workdir)
    store = os.path.join(workdir, "history.hst")
    # History up to the end of valid; test snapshots are streamed in.
    write_store_facts(store, dataset.train.concat(dataset.valid).unique(),
                      dataset.num_entities, dataset.num_relations)
    directory = os.path.join(workdir, "dataset")
    save_benchmark_directory(dataset, directory)
    return {"dataset": dataset, "store": store, "directory": directory,
            "checkpoint": os.path.join(workdir, "model.npz")}


def server_argv(workload: str, inputs: dict, seed: int) -> List[str]:
    argv = ["serve", "--model", "logcl", "--dataset", inputs["directory"],
            "--dim", str(DIM), "--window", str(WINDOW), "--seed", str(seed),
            "--checkpoint", inputs["checkpoint"], "--store", inputs["store"],
            "--listen", "127.0.0.1:0"]
    if workload == "serve-stream":
        argv.append("--calibrate")
    else:
        argv += ["--replicas", "2"]
    return argv


def split_snapshots(dataset) -> List[Tuple[int, List[List[int]]]]:
    """``(time, [[s, r, o], ...])`` per test timestamp, ascending."""
    return [(int(t), arr[:, :3].tolist())
            for t, arr in sorted(dataset.test.group_by_time().items())]


def schedule(workload: str, sizes: Sizes, inputs: dict, seed: int,
             seconds: float, connections: int) -> List[Request]:
    """The seeded open-loop request schedule (reads plus timed writes)."""
    rng = random.Random(seed)
    snapshots = split_snapshots(inputs["dataset"])
    stream = workload == "serve-stream"
    rates = sizes.stream_rates if stream else sizes.replicas_rates
    step_s = seconds / len(STEPS)
    timeline: List[Tuple[float, int, bool]] = []
    for step, rate in enumerate(rates):
        count = max(1, round(rate * step_s))
        timeline += [(step * step_s + i / rate, step, False)
                     for i in range(count)]
    if stream:
        # One advance at the midpoint of each step, so every step sees
        # the same write exposure.
        timeline += [((step + 0.5) * step_s, step, True)
                     for step in range(len(STEPS))]
        if len(STEPS) + 1 > len(snapshots):
            raise ValueError("not enough test snapshots for the schedule")
    # Writes sort before reads due at the same instant.
    timeline.sort(key=lambda item: (item[0], not item[2]))
    pool = [] if stream else replica_pool(snapshots[0], rng)
    requests, advanced, reads = [], 0, 0
    for i, (due, step, write) in enumerate(timeline):
        if write:
            time_, facts = snapshots[advanced]
            body = {"op": "advance", "time": time_, "facts": facts}
            advanced += 1
        elif stream:
            body = stream_read(snapshots[advanced], rng, reads)
            reads += 1
        else:
            body = rng.choice(pool)
        requests.append(Request(i, due, step, i % connections, write, body))
    return requests


def stream_read(snapshot, rng: random.Random, index: int) -> dict:
    """The ``index``-th serve-stream read, drawn from the next (not yet
    advanced) snapshot."""
    time_, facts = snapshot
    op = STREAM_CYCLE[index % len(STREAM_CYCLE)]
    if op == "predict":
        s, r, _ = rng.choice(facts)
        return {"op": op, "queries": [[s, r]], "topk": 10, "time": time_}
    if op == "forecast":
        s, r, _ = rng.choice(facts)
        return {"op": op, "queries": [[s, r]], "horizon": 2, "topk": 10}
    sample = [rng.choice(facts) for _ in range(3)]
    if op == "rank":
        return {"op": op, "queries": sample, "time": time_}
    return {"op": op, "facts": sample, "time": time_}


def replica_pool(snapshot, rng: random.Random) -> List[dict]:
    """A small fixed set of distinct reads at the first test time."""
    time_, facts = snapshot
    pairs = sorted({(s, r) for s, r, _ in facts})
    rng.shuffle(pairs)
    pool = [{"op": "predict", "queries": [[s, r]], "topk": 10, "time": time_}
            for s, r in pairs[:POOL_PREDICTS]]
    pool += [{"op": "rank", "queries": rng.sample(facts, min(3, len(facts))),
              "time": time_} for _ in range(POOL_RANKS)]
    return pool


def warmup_requests(workload: str, inputs: dict) -> List[dict]:
    """Reads that build the index and contexts before timing starts.

    One per replica (the router balances round-robin); the query is the
    first fact of the first test snapshot.
    """
    time_, facts = split_snapshots(inputs["dataset"])[0]
    s, r, _ = facts[0]
    body = {"op": "predict", "queries": [[s, r]], "topk": 10, "time": time_}
    return [body] * (1 if workload == "serve-stream" else 2)


# -- the server process -------------------------------------------------------
class Server:
    """One ``repro serve --listen`` process (plus any replica children)."""

    def __init__(self, argv: List[str], workdir: str,
                 trace_out: Optional[str] = None):
        if trace_out:
            command = [sys.executable, str(HERE / "tracer.py"),
                       "--trace-out", trace_out, "--"] + argv
        else:
            command = [sys.executable, "-m", "repro"] + argv
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "ab")
        self.launched_at = time.monotonic()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=child_env(),
                                     cwd=str(ROOT))
        self.address: Optional[Tuple[str, int]] = None

    def wait_listening(self) -> None:
        """Read stdout up to the ``listen`` line; kill a server that
        takes longer than ``START_TIMEOUT_S`` (its stdout then ends)."""
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if message.get("op") == "listen":
                    host, port = message["address"]
                    self.address = (host, int(port))
                    return
        finally:
            watchdog.cancel()
        raise RuntimeError(f"server stopped before listening; "
                           f"see {self.log_path}")

    def request(self, body: dict) -> dict:
        """One blocking request on a fresh connection (outside timing)."""
        with socket.create_connection(self.address, timeout=120) as sock:
            sock.sendall((json.dumps(body) + "\n").encode())
            with sock.makefile("rb") as reader:
                return json.loads(reader.readline())

    def http_stats(self) -> dict:
        url = f"http://{self.address[0]}:{self.address[1]}/stats"
        with urllib.request.urlopen(url, timeout=60) as response:
            return json.loads(response.read())

    def rss_peak_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """Graceful SIGTERM, then SIGKILL for anything still running."""
        children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        # Orphaned replicas are reaped by init; wait until they are gone.
        deadline = time.monotonic() + 10.0
        while (any(os.path.exists(f"/proc/{pid}") for pid in children)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def start_server(workload: str, inputs: dict, seed: int, workdir: str,
                 trace_out: Optional[str] = None) -> Tuple[Server, float]:
    """Launch, wait for the listen line and warm up; returns set-up time."""
    server = Server(server_argv(workload, inputs, seed), workdir, trace_out)
    try:
        server.wait_listening()
        for body in warmup_requests(workload, inputs):
            response = server.request(body)
            if not response.get("ok"):
                raise RuntimeError(f"warm-up failed: {response}")
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - server.launched_at


# -- load generation ------------------------------------------------------------
async def drive(address: Tuple[str, int], requests: List[Request],
                connections: int, seconds: float) -> dict:
    """Send on schedule, collect responses; times are loop (monotonic) time."""
    loop = asyncio.get_running_loop()
    streams = [await asyncio.open_connection(*address)
               for _ in range(connections)]
    received: Dict[int, Tuple[float, dict]] = {}
    all_in = asyncio.Event()

    async def read(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            response = json.loads(line)
            received[response.get("id")] = (now, response)
            if len(received) >= len(requests):
                all_in.set()

    readers = [asyncio.ensure_future(read(reader)) for reader, _ in streams]
    start = loop.time() + 0.05
    sent: Dict[int, float] = {}
    for request in requests:
        delay = start + request.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = streams[request.conn][1]
        writer.write(request.line)
        sent[request.id] = loop.time()
        await writer.drain()
    remaining = start + seconds + GRACE_S - loop.time()
    try:
        await asyncio.wait_for(all_in.wait(), timeout=max(remaining, 0.1))
    except asyncio.TimeoutError:
        pass
    for _, writer in streams:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in streams:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return {"start": start, "sent": sent, "received": received}


def check_sample(requests: List[Request], seed: int) -> List[Request]:
    """Every write plus a seeded share of the reads, in send order."""
    rng = random.Random(seed + 7919)
    return [r for r in requests if r.write or rng.random() < CHECK_SHARE]


def replay(workload: str, inputs: dict, seed: int,
           sample: List[Request]) -> List[dict]:
    """What a serial in-process engine answers for ``sample``, in order."""
    from repro.serving import InferenceEngine, protocol
    from repro.serving.ops import CalibrationConfig
    engine = InferenceEngine.from_checkpoint(
        inputs["checkpoint"], "logcl", inputs["dataset"], window=WINDOW,
        dim=DIM, seed=seed)
    if workload == "serve-stream":
        engine.enable_calibration(CalibrationConfig())
    engine.use_store_file(inputs["store"])
    expected = []
    for request in sample:
        body = dict(request.body, id=request.id)
        try:
            response = protocol.handle_request(engine, body)
        except Exception as exc:  # the server answers errors the same way
            response = protocol.error_response(exc, body)
        expected.append(json.loads(json.dumps(response)))
    return expected


def summarize(requests: List[Request], run: dict, sizes: Sizes,
              workload: str) -> dict:
    """Read and write latencies, failures and per-step detail of one run.

    A step meets its limit when its tail percentile (p90 on serve-stream,
    p99 on serve-replicas) is within the workload's latency limit, at
    most 1 % of its reads failed, and its last read completed within 1 s
    of its due time (the backlog stayed bounded); ``max_ok_rate_rps`` is
    the highest step such that it and every lower step meet the limit.
    """
    stream = workload == "serve-stream"
    limit = LIMIT_MS[workload]
    rates = sizes.stream_rates if stream else sizes.replicas_rates
    start, received = run["start"], run["received"]
    reads: List[float] = []
    writes: List[float] = []
    per_step: List[List[float]] = [[] for _ in STEPS]
    step_failed = [0] * len(STEPS)
    failed = shed = 0
    for request in requests:
        got = received.get(request.id)
        if got is None or not got[1].get("ok"):
            failed += 1
            step_failed[request.step] += 1
            shed += bool(got and got[1].get("shed"))
            continue
        latency_ms = (got[0] - start - request.due) * 1000.0
        if request.write:
            writes.append(latency_ms)
        else:
            reads.append(latency_ms)
            per_step[request.step].append(latency_ms)
    steps, max_ok = {}, 0.0
    for i, name in enumerate(STEPS):
        values = per_step[i]
        row = {"rate_rps": rates[i], "reads": len(values),
               "failed": step_failed[i]}
        if values:
            row.update(p50_ms=quantile(values, 0.5),
                       p90_ms=quantile(values, 0.9),
                       p99_ms=quantile(values, 0.99))
            row["meets_limit"] = (
                quantile(values, 0.9 if stream else 0.99) <= limit
                and step_failed[i] <= 0.01 * (len(values) + step_failed[i])
                and values[-1] <= 1000.0)
            if row["meets_limit"] and max_ok == (rates[i - 1] if i else 0.0):
                max_ok = rates[i]
        steps[name] = row
    lags = [(run["sent"][r.id] - start - r.due) * 1000.0
            for r in requests if r.id in run["sent"]]
    return {
        "reads": reads, "writes": writes, "failed": failed, "shed": shed,
        "steps": steps, "max_ok_rate_rps": max_ok,
        "write_p50_ms": median(writes) if writes else None,
        "late_sends": sum(1 for lag in lags if lag > LATE_SEND_MS),
        "send_lag_p99_ms": quantile(lags, 0.99) if lags else 0.0,
    }


def run_serving(workload: str, sizes: Sizes, seed: int, seconds: float,
                setups: int, workdir: str,
                trace_out: Optional[str] = None) -> dict:
    """Set up ``setups`` times, measure the last server, check, stop."""
    inputs = prepare(workload, sizes, seed, workdir)
    connections = 1 if workload == "serve-stream" else min(
        2, os.cpu_count() or 1)
    requests = schedule(workload, sizes, inputs, seed, seconds, connections)
    setup_times = []
    for i in range(setups):
        last = i == setups - 1
        server, setup_s = start_server(workload, inputs, seed, workdir,
                                       trace_out if last else None)
        setup_times.append(setup_s)
        if not last:
            server.stop()
    setup_window = [server.launched_at, server.launched_at + setup_times[-1]]
    try:
        before = server_stats(server, workload) if trace_out else None
        run = asyncio.run(drive(server.address, requests, connections,
                                seconds))
        after = server_stats(server, workload) if trace_out else None
        rss = server.rss_peak_mb()
    finally:
        code = server.stop()
    fault = os.environ.get("PERF_BENCH_FAULT")
    if fault == "error-response":
        first = next(r.id for r in requests if not r.write)
        at, _ = run["received"][first]
        run["received"][first] = (at, {"id": first, "ok": False,
                                       "error": "injected fault"})
    summary = summarize(requests, run, sizes, workload)
    sample = check_sample(requests, seed)
    got = [run["received"].get(r.id, (0.0, None))[1] for r in sample]
    if fault == "tamper-response":
        reads = [i for i, r in enumerate(sample) if not r.write]
        got[reads[0]] = dict(got[reads[0]] or {}, tampered=True)
    expected = replay(workload, inputs, seed, sample)
    # Missing or failed responses already count in summary["failed"].
    mismatches = sum(1 for a, b in zip(got, expected)
                     if a is not None and a.get("ok") and a != b)
    window = [run["start"], run["start"] + seconds]
    return {
        "setup_times_s": setup_times, "rss_peak_mb": rss,
        "summary": summary, "attempted": len(requests),
        "failed": summary["failed"] + mismatches,
        "checks": {"sample_matches_serial": mismatches == 0,
                   "server_exit_clean": code == 0},
        "checked": len(sample), "mismatches": mismatches,
        "window": window, "setup_window": setup_window,
        "repeat_share": repeat_share(requests),
        "stats": {"before": before, "after": after},
    }


def server_stats(server: Server, workload: str) -> dict:
    """The server's own telemetry (JSONL ``stats`` op or router HTTP)."""
    if workload == "serve-stream":
        return server.request({"op": "stats"})["stats"]
    return server.http_stats()["stats"]


def repeat_share(requests: List[Request]) -> float:
    """Share of reads whose exact body was already sent earlier."""
    seen, repeats, reads = set(), 0, 0
    for request in requests:
        if request.write:
            continue
        key = json.dumps(request.body, sort_keys=True)
        repeats += key in seen
        reads += 1
        seen.add(key)
    return repeats / reads if reads else 0.0


# -- per-layer metrics from the servers' own telemetry ----------------------------
STATS_METRICS = ("serving.score_cache_hit_ratio", "serving.queue_wait_share",
                 "serving.batch_size", "serving.shed",
                 "serving.replica_busy_pct.0", "serving.replica_busy_pct.1",
                 "serving.replica_read_share", "serving.router_overhead_pct")


def stats_metrics(workload: str, raw: dict) -> Dict[str, float]:
    """Deltas of the server's telemetry across the measured window.

    Zero on the closed-loop workloads, which start no server.
    """
    out = dict.fromkeys(STATS_METRICS, 0.0)
    if not workload.startswith("serve-"):
        return out
    before, after = raw["stats"]["before"], raw["stats"]["after"]
    window_ms = (raw["window"][1] - raw["window"][0]) * 1000.0

    def counter(name: str) -> float:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def stage_ms(name: str) -> float:
        return (after["stages"].get(name, {}).get("total_ms", 0.0)
                - before["stages"].get(name, {}).get("total_ms", 0.0))

    def series(name: str) -> Tuple[float, float]:
        """(samples, summed value) added to a scalar series."""
        a = after["scalars"].get(name, {"count": 0, "mean": 0.0})
        b = before["scalars"].get(name, {"count": 0, "mean": 0.0})
        return (a["count"] - b["count"],
                a["count"] * a["mean"] - b["count"] * b["mean"])

    if workload == "serve-stream":
        hits, misses = counter("score_cache_hits"), counter(
            "score_cache_misses")
        out["serving.score_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        summary = raw["summary"]
        latency_ms = sum(summary["reads"]) + sum(summary["writes"])
        _, waited = series("queue_wait_ms")
        out["serving.queue_wait_share"] = (100.0 * waited / latency_ms
                                           if latency_ms else 0.0)
        groups, queries = series("predict_group_size")
        out["serving.batch_size"] = queries / groups if groups else 0.0
        out["serving.shed"] = counter("requests_shed")
        return out
    calls, hits, busy_ms = [], 0.0, []
    for i in range(2):
        prefix = f"replica{i}/"
        hits += counter(prefix + "score_cache_hits")
        calls.append(counter(prefix + "score_cache_hits")
                     + counter(prefix + "score_cache_misses"))
        busy_ms.append(sum(stage_ms(name) for name in after["stages"]
                           if name.startswith(prefix)))
        out[f"serving.replica_busy_pct.{i}"] = 100.0 * busy_ms[i] / window_ms
    out["serving.score_cache_hit_ratio"] = (hits / sum(calls) if sum(calls)
                                            else 0.0)
    out["serving.replica_read_share"] = (calls[0] / sum(calls) if sum(calls)
                                         else 0.0)
    routed_ms = stage_ms("router/router/read")
    out["serving.router_overhead_pct"] = (
        100.0 * (routed_ms - sum(busy_ms)) / routed_ms if routed_ms else 0.0)
    return out


def loadgen_metrics(raw: dict) -> Dict[str, float]:
    """Run-validity figures of the load generator (zero without one)."""
    summary = raw.get("summary")
    return {"loadgen.late_sends": summary["late_sends"] if summary else 0.0,
            "loadgen.repeat_share": raw.get("repeat_share", 0.0)}
