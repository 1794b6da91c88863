"""Out-of-core capacity — the store file at GDELT scale.

``repro.data`` claims the reproduction is no longer bounded by what
fits in one process image: a GDELT-scale event stream (7k+ entities,
over a million facts) writes into a columnar store file at bulk rates,
memory-maps back zero-copy, and answers the evaluation protocol from
the mapped buffer.  This bench measures that claim at three scale
fractions of the ``gdelt_scale`` generator and records, per scale:

* **ingest facts/s** — augmented facts written into the store file per
  second (``write_store``, the bulk path every converted dump takes);
* **bytes/fact** — on-disk footprint from the versioned header, and
  the *resident* delta after touching every mapped column (the real
  per-process cost serving replicas share via the page cache);
* **eval QPS** — queries/s of a full filtered evaluation pass reading
  history through the mapped store.

The TSV parse rate is measured once at the smallest scale (the text
loop is the slow lane; ``convert`` runs it once per dataset, the store
file is what gets reopened).  Asserted: the full scale really crosses
the million-fact bar, the mapped metric row matches the in-memory row
bitwise, and the file stays within 24 bytes/fact (16 B of columns plus
bounded offset/header overhead).
"""

import json
import os
import time

import numpy as np

from _harness import RESULTS_DIR, emit, write_result_table
from repro.data import (export_dataset, ingest_directory, open_store,
                        write_store)
from repro.data.scale import ScaleConfig, generate_scale
from repro.eval.heuristics import FrequencyHeuristic
from repro.eval.protocol import evaluate
from repro.tkg.dataset import TKGDataset
from repro.tkg.quadruples import QuadrupleSet
from repro.training.context import HistoryContext

SCALE_FRACTIONS = (0.1, 0.4, 1.0)
EVAL_QUERY_SLICE = 1000      # queries per QPS measurement
BENCH_WINDOW = 3


def _scaled_config(fraction: float) -> ScaleConfig:
    """``gdelt_scale`` with every track family thinned to ``fraction``."""
    base = ScaleConfig(name=f"gdelt_scale_{fraction:g}")
    return ScaleConfig(
        name=base.name,
        num_entities=base.num_entities,
        num_relations=base.num_relations,
        num_timestamps=base.num_timestamps,
        markov_tracks=max(1, int(base.markov_tracks * fraction)),
        drift_tracks=max(1, int(base.drift_tracks * fraction)),
        periodic_tracks=max(1, int(base.periodic_tracks * fraction)),
        sparse_tracks=max(1, int(base.sparse_tracks * fraction)),
        noise_per_step=max(1, int(base.noise_per_step * fraction)),
        seed=base.seed,
    )


def _sliced_test(dataset: TKGDataset, limit: int) -> TKGDataset:
    """The same dataset with the test split cut to its first ``limit`` rows.

    A chronological prefix keeps the split ordering valid; the slice
    only bounds the QPS measurement, nothing here asserts metrics on it.
    """
    if len(dataset.test) <= limit:
        return dataset
    return TKGDataset(dataset.name, dataset.train, dataset.valid,
                      QuadrupleSet(dataset.test.array[:limit]),
                      dataset.num_entities, dataset.num_relations)


def _rss_kb() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def _touch_columns(store) -> int:
    """Fault every mapped page in; returns a checksum so nothing elides."""
    total = 0
    for snap in store.window_before(int(store.snapshot_times()[-1]) + 1,
                                    len(store.snapshot_times())):
        total += int(snap.src.sum()) + int(snap.rel.sum())
        total += int(snap.dst.sum())
    return total


def _measure_scale(fraction: float, workdir: str) -> dict:
    config = _scaled_config(fraction)
    started = time.perf_counter()
    dataset = generate_scale(config)
    generate_s = time.perf_counter() - started
    total_facts = sum(len(split) for split in dataset.splits().values())

    sliced = _sliced_test(dataset, EVAL_QUERY_SLICE)
    path = os.path.join(workdir, f"{config.name}.hst")
    started = time.perf_counter()
    info = write_store(path, sliced)
    write_s = time.perf_counter() - started

    rss_before = _rss_kb()
    started = time.perf_counter()
    store = open_store(path)
    open_s = time.perf_counter() - started
    open_kb = max(0, _rss_kb() - rss_before)      # zero-copy: ~nothing
    _touch_columns(store)
    touched_kb = max(0, _rss_kb() - rss_before)   # page-cache-backed ceiling

    model = FrequencyHeuristic(sliced.num_entities)
    context = HistoryContext(sliced, BENCH_WINDOW, store=store)
    mapped = evaluate(model, sliced, "test", context=context,
                      window=BENCH_WINDOW)          # warm-up + metric row
    started = time.perf_counter()
    evaluate(model, sliced, "test", context=context, window=BENCH_WINDOW)
    eval_s = time.perf_counter() - started
    queries = len(sliced.test)

    memory = evaluate(model, sliced, "test", window=BENCH_WINDOW)
    assert mapped == memory, (
        f"mapped metric row diverged at fraction {fraction}: "
        f"{mapped} != {memory}")

    return {
        "fraction": fraction,
        "total_facts": total_facts,
        "stored_facts": info.num_facts,          # with inverses
        "snapshots": info.num_snapshots,
        "generate_s": round(generate_s, 3),
        "ingest_facts_per_s": int(info.num_facts / write_s),
        "file_bytes": info.file_bytes,
        "file_bytes_per_fact": round(info.bytes_per_fact, 2),
        "resident_open_bytes_per_fact": round(
            open_kb * 1024 / max(1, info.num_facts), 2),
        "resident_scanned_bytes_per_fact": round(
            touched_kb * 1024 / max(1, info.num_facts), 2),
        "open_s": round(open_s, 4),
        "eval_queries": queries,
        "eval_qps": int(queries / eval_s),
        "metrics": {k: round(v, 6) for k, v in mapped.items()},
    }


def _measure_tsv_parse(workdir: str) -> dict:
    """Text-lane rate: export the smallest scale and re-ingest the TSVs."""
    dataset = generate_scale(_scaled_config(SCALE_FRACTIONS[0]))
    raw = os.path.join(workdir, "raw")
    export_dataset(dataset, raw)
    started = time.perf_counter()
    report = ingest_directory(raw)
    parse_s = time.perf_counter() - started
    return {"facts": report.facts_read,
            "tsv_parse_facts_per_s": int(report.facts_read / parse_s)}


def _run(workdir: str) -> dict:
    rows = [_measure_scale(fraction, workdir)
            for fraction in SCALE_FRACTIONS]
    return {"scales": rows, "tsv_parse": _measure_tsv_parse(workdir),
            "eval_query_slice": EVAL_QUERY_SLICE, "window": BENCH_WINDOW,
            "cpu_count": os.cpu_count()}


def test_data_capacity(benchmark, tmp_path):
    record = benchmark.pedantic(_run, args=(str(tmp_path),),
                                rounds=1, iterations=1)
    lines = ["## Store-file capacity — gdelt_scale fractions "
             f"(eval slice {record['eval_query_slice']} queries, "
             f"window {record['window']})",
             f"{'facts':>10s}{'stored':>10s}{'ingest f/s':>12s}"
             f"{'B/fact':>8s}{'res open':>10s}{'res scan':>10s}"
             f"{'open s':>8s}{'QPS':>8s}"]
    for row in record["scales"]:
        lines.append(f"{row['total_facts']:>10,d}{row['stored_facts']:>10,d}"
                     f"{row['ingest_facts_per_s']:>12,d}"
                     f"{row['file_bytes_per_fact']:>8.1f}"
                     f"{row['resident_open_bytes_per_fact']:>10.1f}"
                     f"{row['resident_scanned_bytes_per_fact']:>10.1f}"
                     f"{row['open_s']:>8.3f}{row['eval_qps']:>8,d}")
    parse = record["tsv_parse"]
    lines.append(f"tsv parse lane: {parse['tsv_parse_facts_per_s']:,d} "
                 f"facts/s over {parse['facts']:,d} facts")
    lines.append("mapped metric rows identical to in-memory at every "
                 "scale: yes")
    emit(lines)
    write_result_table("data_capacity", lines)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / "data_capacity.json", "w") as handle:
        json.dump(record, handle, indent=2)

    full = record["scales"][-1]
    assert full["total_facts"] >= 1_000_000, (
        f"full gdelt_scale produced only {full['total_facts']:,d} facts")
    assert all(np.isfinite(row["file_bytes_per_fact"])
               and row["file_bytes_per_fact"] <= 24.0
               for row in record["scales"]), (
        "store file exceeds 24 bytes/fact (16 B columns + bounded "
        "offset/header overhead)")
