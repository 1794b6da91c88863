#!/usr/bin/env python
"""Aggregate benchmarks/results/*.md into EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only`` to refresh the
paper-vs-measured record.  Keeps a hand-written preamble and per-
experiment expectation notes, then inlines every rendered result table.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
TARGET = Path(__file__).parent.parent / "EXPERIMENTS.md"

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation section (§IV) is
regenerated by a bench under `benchmarks/`; this file records the
measured outcome next to the paper's reported numbers.

**Reading guide.**  The substrate differs from the paper's (synthetic
ICEWS-style presets at ~1/30 scale, numpy CPU training at d=32 instead
of d=200 on GPU — see DESIGN.md §1), so absolute metrics are *not*
comparable.  What is asserted per experiment is the paper's *shape*:
who wins, which component matters, which direction each sweep bends.
Each bench contains the machine-checked assertions; this file is the
human-readable summary.  `paper MRR` columns quote the paper's Table
III/IV values for side-by-side reference.

Regenerate with:

```bash
pytest benchmarks/ --benchmark-only -s
python benchmarks/aggregate_results.py
```

## Outcome summary

| Experiment | Paper claim | Status |
|---|---|---|
| Table III | LogCL beats static/interpolation/encoder-level extrapolation baselines on all 4 datasets; extrapolation > interpolation > static; TiRGN > RE-GCN > CyGNet. LogCL-vs-TiRGN: reported, asserted with tolerance (scale-dependent; see DESIGN.md §4) | asserted in `test_table3_main_results.py` |
| Table IV | every ablation hurts; local-only > global-only; attention matters most | asserted in `test_table4_ablation.py` |
| Table V | aggregator choice secondary; R-GCN competitive | asserted in `test_table5_gnn_variants.py` |
| Table VI | full model ranks repetition answers top-5 more often than w/o-eatt | asserted in `test_table6_case_study.py` |
| Table VII | forward-only >= inverse-only; joint in between | asserted in `test_table7_two_phase.py` |
| Fig. 2 | LogCL degrades least under noise among RE-GCN/TiRGN/LogCL | asserted in `test_fig2_noise_comparison.py` |
| Fig. 5 | contrastive module reduces noise degradation vs w/o-cl | asserted in `test_fig5_noise_ablation.py` |
| Fig. 6 | 2 global R-GCN layers >= 1; 3 adds nothing | asserted in `test_fig6_global_layers.py` |
| Fig. 7 | cross-view contrast (lg/gl) >= within-view (ll/gg) | asserted in `test_fig7_contrast_strategies.py` |
| Fig. 8 | lambda sweep: mixture beats pure-global; optimum near local-heavy | asserted in `test_fig8_lambda.py` |
| Fig. 9 | temperature visibly matters; dataset-dependent optimum | asserted in `test_fig9_temperature.py` |
| Fig. 10 | online >= offline for every model; LogCL stays ahead | asserted in `test_fig10_online.py` |
| Serving latency | (engineering claim, not from the paper) incremental engine answers repeated-horizon queries >= 5x faster than cold recomputation | asserted in `test_serving_latency.py` |
| Eval throughput | (engineering claim, not from the paper) batched filtered-ranking kernel >= 5x the queries/s of a per-query loop (`true_objects`, row copy, `rank_of_target`) with bitwise-identical metric rows | asserted in `test_eval_throughput.py` |
| History layer | (engineering claim, not from the paper) shared subgraph cache turns repeated evaluation passes into ~all hits with bitwise-identical metric rows; epoch rewind >= 3x cheaper than the index rebuild it replaced | asserted in `test_history_cache.py` |
| Data capacity | (engineering claim, not from the paper) the store file ingests a GDELT-scale stream (>= 1M facts) at bulk rate, stays within 24 bytes/fact on disk, opens zero-copy (~0 resident bytes/fact before first touch), and answers filtered evaluation from the mapped buffer with metric rows bitwise-identical to in-memory | asserted in `test_data_capacity.py` |
| Serving daemon | (engineering claim, not from the paper) the socket daemon sustains >= 8 concurrent open-loop clients with recorded QPS and p50/p99 latency, every response bitwise-identical to the serial engine, and sheds (never hangs) requests past the admission-control depth | asserted in `test_serving_daemon.py` |
| Perf pass | (engineering claim, not from the paper) the float32/fused-kernel speed pass trained an icews14_like epoch and ran filtered evaluation >= 3x faster than the float64 pre-pass path, with metric rows bitwise-identical at matched dtype (all filter settings) and within atol 1e-5 of the float64 reference | frozen record in `results/perf_pass.json`; the pre-pass path and its bench are gone, the parity halves live on in `tests/nn/test_fused_kernels.py` and `tests/eval/test_dtype_parity.py` |
| Serving replicas | (engineering claim, not from the paper) the replica-set router serves 1/2/4 forked replicas over one mmap-backed store file with every response bitwise-identical to the serial engine, zero private-dirty store pages per replica and summed PSS well under summed RSS (the fact buffer is physically shared, never copied); recorded QPS and p50/p99 per replica count, >= 1.8x at 2 replicas asserted only on >= 2-core hosts (measured everywhere) | asserted in `test_serving_replicas.py` |
| Anomaly ROC | (engineering claim, not from the paper) the calibrated `score` op separates injected-corruption facts from real ones at ROC-AUC >= 0.85 on a streamed test split, with the corrupted population scoring strictly lower on average | asserted in `test_anomaly_roc.py` |

## Known deviations at bench scale

1. **LogCL vs TiRGN/CEN/RE-NET head-to-head.**  The paper's headline
   (LogCL strictly first everywhere) relies on full-scale data (7k-23k
   entities, d=200).  At 1/30 scale with d=32, (a) an explicit
   output-level history distribution (our simplified TiRGN) is
   near-oracle on small candidate vocabularies, and (b) lightweight
   models (RE-NET-style neighbor GRUs) converge faster than deep
   R-GCN+GRU+attention stacks.  LogCL's asserted claims are therefore the
   family-level ones (beats static/interpolation families, matches its
   RE-GCN backbone, stays within reach of the best model); the strict
   per-model ordering is reported in the tables for inspection.  The
   per-pattern analysis (`test_mechanism_analysis.py`) localizes the gap
   to the sparse/periodic global patterns.
2. **Reduced dataset lists for sensitivity benches** (noted per file) —
   sweeps run on the primary preset to keep the suite CPU-friendly.
3. **Seeds.**  Single-seed runs; adjacent models can swap ranks within
   roughly ±2 MRR between runs.  Assertions carry tolerances sized
   accordingly.

## Measured tables

"""


def telemetry_table(payload: dict) -> str:
    """Render a ``Telemetry.as_dict()`` payload as a markdown table.

    Benches that run instrumented (``test_train_telemetry.py``) embed
    the telemetry summary under a ``"telemetry"`` key; the stage
    breakdown is the part worth reading at a glance.
    """
    lines = [f"### telemetry stages ({payload.get('name', '?')}, "
             f"uptime {payload.get('uptime_s', 0.0):.2f}s)",
             "",
             "| stage | calls | total ms | mean ms | p95 ms |",
             "|---|---:|---:|---:|---:|"]
    for name, stage in sorted(payload.get("stages", {}).items()):
        indent = "&nbsp;&nbsp;" * name.count("/")
        lines.append(f"| {indent}{name} | {stage['count']} "
                     f"| {stage['total_ms']:.1f} | {stage['mean_ms']:.2f} "
                     f"| {stage['p95_ms']:.2f} |")
    counters = payload.get("counters", {})
    if counters:
        lines += ["", "counters: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counters.items()))]
    return "\n".join(lines) + "\n"


def main() -> None:
    sections = []
    for path in sorted(RESULTS_DIR.glob("*.md")):
        sections.append("```\n" + path.read_text().rstrip() + "\n```\n")
    # Machine-readable records (e.g. the serving-latency bench) are
    # inlined as JSON so EXPERIMENTS.md stays the single measured record.
    for path in sorted(RESULTS_DIR.glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "stages" in record.get(
                "telemetry", {}):
            sections.append(telemetry_table(record["telemetry"]))
        sections.append(f"### {path.stem} (raw record)\n\n"
                        "```json\n" + path.read_text().rstrip() + "\n```\n")
    if not sections:
        sections = ["*(no results yet — run the benchmark suite first)*\n"]
    TARGET.write_text(PREAMBLE + "\n".join(sections))
    print(f"wrote {TARGET} with {len(sections)} result section(s)")


if __name__ == "__main__":
    main()
