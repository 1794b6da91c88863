"""Replica-set router throughput at 1/2/4 replicas over one store file.

Four clients fire an unpaced open-loop request mix (the daemon
benchmark's own generator) at the router for each replica count; every
response is parity-checked bitwise against a serial store-backed
engine.  Alongside QPS and p50/p99 latency the benchmark records the
**physical-sharing proof**: each forked replica's ``/proc/<pid>/smaps``
entry for the mapped ``.hst`` store, showing

* ``Private_Dirty == 0`` — no replica ever copies the fact buffer
  (the mapping is read-only; writes land in the streamed tail, not the
  file); and
* summed PSS well below summed RSS at >= 2 replicas — the resident
  store pages are the *same physical pages* shared through the OS page
  cache, not N per-process copies.

The >= 1.8x two-replica speedup is asserted only where it can exist
(``os.cpu_count() >= 2``); on smaller machines the measured ratio is
still recorded honestly.  Results land in
``benchmarks/results/serving_replicas.json`` plus a rendered table.
"""

import json
import os
import time

import numpy as np

from _harness import (BENCH_WINDOW, RESULTS_DIR, emit, get_trained_model,
                      logcl_overrides, write_result_table)
from repro.data import write_store_facts
from repro.serving import (InferenceEngine, ReplicaSetRouter, RouterConfig,
                           fork_replicas_available, protocol,
                           serve_in_thread)
from test_serving_daemon import _OpenLoopClient, _request_mix

DATASET = "icews14_like"
REPLICA_COUNTS = (1, 2, 4)
NUM_CLIENTS = 4              # one connection per replica at the widest set
REQUESTS_PER_CLIENT = 50
SEND_INTERVAL_S = 0.0        # unpaced: wall time measures capacity


def _write_bench_store(path, dataset):
    """Pack train+valid into a store file (test facts stay queryable)."""
    facts = dataset.train.concat(dataset.valid).unique()
    return write_store_facts(path, facts, dataset.num_entities,
                             dataset.num_relations)


def _store_engine(model, dataset, store_path):
    engine = InferenceEngine(model, dataset.num_entities,
                             dataset.num_relations, window=BENCH_WINDOW)
    engine.use_store_file(store_path)
    return engine


def _store_mapping_kb(pid, store_path):
    """Sum the smaps fields of one process's mappings of the store file."""
    name = os.path.basename(store_path)
    totals = {"Rss": 0, "Pss": 0, "Shared_Clean": 0, "Shared_Dirty": 0,
              "Private_Clean": 0, "Private_Dirty": 0}
    in_store_mapping = False
    with open(f"/proc/{pid}/smaps") as handle:
        for line in handle:
            first = line.split(None, 1)[0] if line.strip() else ""
            if not first.endswith(":"):          # mapping header line
                in_store_mapping = line.rstrip("\n").endswith(name)
            elif in_store_mapping and first[:-1] in totals:
                totals[first[:-1]] += int(line.split()[1])
    return totals


def _sharing_proof(router, store_path):
    """Per-replica smaps rows for the store mapping (forked sets only)."""
    rows = []
    for replica in router._replicas:
        if replica.kind != "forked" or replica.pid is None:
            continue
        totals = _store_mapping_kb(replica.pid, store_path)
        rows.append({"pid": replica.pid, **{k.lower() + "_kb": v
                                            for k, v in totals.items()}})
    return rows


def _measure(replicas, model, dataset, store_path, serial, t):
    """One sweep point: load a fresh router, parity-check every response."""
    engine = _store_engine(model, dataset, store_path)
    handle = serve_in_thread(ReplicaSetRouter(
        engine, RouterConfig(replicas=replicas)))
    try:
        clients = [
            _OpenLoopClient(handle.address,
                            _request_mix(dataset, t, c, REQUESTS_PER_CLIENT),
                            SEND_INTERVAL_S)
            for c in range(NUM_CLIENTS)]
        wall_start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(300)
        wall_s = time.perf_counter() - wall_start

        latencies, parity_checked = [], 0
        expected_cache = {}
        for client in clients:
            assert client.error is None, f"client failed: {client.error}"
            assert len(client.responses) == REQUESTS_PER_CLIENT, \
                "client lost responses"
            for request in client.requests:
                response = client.responses[request["id"]]
                assert response["ok"], response
                key = json.dumps({k: v for k, v in request.items()
                                  if k != "id"}, sort_keys=True)
                if key not in expected_cache:
                    expected_cache[key] = protocol.handle_request(
                        serial, dict(json.loads(key)))
                got = {k: v for k, v in response.items() if k != "id"}
                assert got == expected_cache[key], \
                    f"router != serial for {request}"
                parity_checked += 1
                latencies.append(client.latencies_ms[request["id"]])

        sharing = _sharing_proof(handle.server, store_path)
    finally:
        handle.stop()

    latencies = np.array(latencies)
    total = NUM_CLIENTS * REQUESTS_PER_CLIENT
    return {
        "replicas": replicas,
        "transport": "forked" if fork_replicas_available() else "local",
        "sustained_qps": round(total / wall_s, 1),
        "p50_ms": round(float(np.percentile(latencies, 50)), 3),
        "p99_ms": round(float(np.percentile(latencies, 99)), 3),
        "parity_checked": parity_checked,
        "store_mapping": sharing,
    }


def _sweep(model, dataset, store_path, serial, t):
    return [_measure(replicas, model, dataset, store_path, serial, t)
            for replicas in REPLICA_COUNTS]


def test_serving_replicas(benchmark, tmp_path):
    model, dataset, _ = get_trained_model(
        "logcl", DATASET, model_overrides=logcl_overrides())
    store_path = str(tmp_path / f"{DATASET}.hst")
    info = _write_bench_store(store_path, dataset)
    serial = _store_engine(model, dataset, store_path)
    t = serial.next_time

    points = benchmark.pedantic(
        _sweep, args=(model, dataset, store_path, serial, t),
        rounds=1, iterations=1)

    by_count = {p["replicas"]: p for p in points}
    speedup_2x = round(by_count[2]["sustained_qps"]
                       / by_count[1]["sustained_qps"], 2)
    record = {
        "dataset": DATASET,
        "clients": NUM_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "store_file_kb": round(os.path.getsize(store_path) / 1024, 1),
        "store_facts": int(info.num_facts),
        "cpu_count": os.cpu_count(),
        "speedup_2_replicas": speedup_2x,
        "points": points,
    }

    lines = [
        f"## Replica-set serving — {NUM_CLIENTS} clients on {DATASET} "
        f"(t={int(t)}, store {record['store_file_kb']:.0f} KB)",
        f"{'replicas':>9s}{'qps':>10s}{'p50 ms':>10s}{'p99 ms':>10s}"
        f"{'parity':>8s}{'priv-dirty KB':>15s}",
    ]
    for point in points:
        private_dirty = sum(row["private_dirty_kb"]
                            for row in point["store_mapping"])
        lines.append(
            f"{point['replicas']:>9d}{point['sustained_qps']:>10.1f}"
            f"{point['p50_ms']:>10.2f}{point['p99_ms']:>10.2f}"
            f"{point['parity_checked']:>8d}{private_dirty:>15d}")
    lines.append(f"2-replica speedup: {speedup_2x}x "
                 f"(cpu_count={record['cpu_count']})")
    emit(lines)
    write_result_table("serving_replicas", lines)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / "serving_replicas.json", "w") as handle:
        json.dump(record, handle, indent=2)

    for point in points:
        assert point["parity_checked"] == NUM_CLIENTS * REQUESTS_PER_CLIENT
        assert point["p99_ms"] >= point["p50_ms"] > 0
        for row in point["store_mapping"]:
            # No replica dirties (= privately copies) any store page.
            assert row["private_dirty_kb"] == 0, row
    if fork_replicas_available():
        shared = [p for p in points if p["replicas"] >= 2]
        assert shared, "sweep must include a multi-replica point"
        for point in shared:
            rss = sum(row["rss_kb"] for row in point["store_mapping"])
            pss = sum(row["pss_kb"] for row in point["store_mapping"])
            # The resident store pages are shared physical pages: with
            # the template engine plus N replicas all mapping the file,
            # proportional-set-size must sit well below resident-set-
            # size (each page's cost is split across its mappers).
            assert rss > 0, "store mapping never became resident"
            assert pss < 0.7 * rss, (pss, rss)
    if (os.cpu_count() or 1) >= 2:
        assert speedup_2x >= 1.8, \
            f"2 replicas gave only {speedup_2x}x on a multi-core host"
