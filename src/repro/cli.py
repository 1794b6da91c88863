"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``train``      train any registered model on a preset or dataset directory
``evaluate``   evaluate a checkpoint under a chosen filter setting
``noise``      run a Gaussian-noise sweep on a checkpoint (Fig. 2/5)
``online``     online-learning evaluation of a checkpoint (Fig. 10)
``serve``      incremental online inference over a JSONL stdin/stdout loop
``stats``      print Table II-style statistics for datasets
``generate``   write a synthetic preset to disk in the RE-GCN format
``data``       ingest/convert raw benchmark dumps and pack history store
               files (``data convert``, ``data inspect``, ``data export``)
``list``       list registered models and dataset presets

Every command prints a compact, script-friendly report to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import (compute_statistics, format_pattern_table,
                       format_statistics_table, per_pattern_metrics)
from .datasets import load_preset, preset_names
from .eval import evaluate, format_metric_row
from .obs import NULL_TELEMETRY, get_telemetry
from .registry import build_model, model_names
from .robustness import noise_sweep
from .tkg import load_benchmark_directory, save_benchmark_directory
from .training import (OnlineConfig, TrainConfig, Trainer, evaluate_online,
                       load_checkpoint, save_checkpoint)


def _load_dataset(spec: str):
    """A dataset spec is either a preset name or a directory path."""
    if spec in preset_names():
        return load_preset(spec)
    return load_benchmark_directory(spec)


def _add_common_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=model_names())
    parser.add_argument("--dataset", required=True,
                        help="preset name or dataset directory")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--window", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    model = build_model(args.model, dataset, dim=args.dim, seed=args.seed)
    trainer = Trainer(TrainConfig(epochs=args.epochs, lr=args.lr,
                                  window=args.window,
                                  eval_every=args.eval_every,
                                  patience=args.patience,
                                  verbose=not args.quiet))
    telemetry = NULL_TELEMETRY
    if args.trace:
        telemetry = get_telemetry("train")
        telemetry.reset()
        telemetry.attach_trace(args.trace)
    result = trainer.fit(model, dataset, telemetry=telemetry)
    metrics = trainer.test(model, dataset, telemetry=telemetry)
    print(format_metric_row(args.model, metrics))
    if args.trace:
        telemetry.detach_trace()
        print(f"trace written to {args.trace}")
        if not args.quiet:
            for line in telemetry.summary_lines():
                print(line)
    if args.out:
        save_checkpoint(model, args.out, metadata={
            "model": args.model, "dataset": args.dataset, "dim": args.dim,
            "seed": args.seed, "window": args.window,
            "best_valid_mrr": result.best_valid_mrr})
        print(f"checkpoint written to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    model = build_model(args.model, dataset, dim=args.dim, seed=args.seed)
    load_checkpoint(model, args.checkpoint)
    records: Optional[list] = [] if args.per_pattern else None
    telemetry = NULL_TELEMETRY
    if args.trace:
        telemetry = get_telemetry("evaluate")
        telemetry.reset()
        telemetry.attach_trace(args.trace)
    metrics = evaluate(model, dataset, args.split, window=args.window,
                       filter_setting=args.filter, records=records,
                       telemetry=telemetry)
    print(format_metric_row(args.model, metrics))
    if args.trace:
        telemetry.detach_trace()
        print(f"trace written to {args.trace}")
        for line in telemetry.summary_lines():
            print(line)
    if args.per_pattern:
        if dataset.provenance is None:
            print("(dataset has no provenance labels; skipping breakdown)")
        else:
            for line in format_pattern_table(
                    per_pattern_metrics(records, dataset)):
                print(line)
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    model = build_model(args.model, dataset, dim=args.dim, seed=args.seed)
    load_checkpoint(model, args.checkpoint)
    result = noise_sweep(model, dataset, sigmas=tuple(args.sigmas),
                         window=args.window, model_name=args.model)
    print(f"{'sigma':>8s}{'MRR':>8s}{'H@1':>8s}{'H@10':>8s}")
    for point in result.points:
        print(f"{point.sigma:8.2f}{point.mrr:8.2f}{point.hits1:8.2f}"
              f"{point.hits10:8.2f}")
    print(f"relative MRR drop at sigma={args.sigmas[-1]}: "
          f"{result.degradation_percent(args.sigmas[-1]):.1f}%")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    model = build_model(args.model, dataset, dim=args.dim, seed=args.seed)
    load_checkpoint(model, args.checkpoint)
    offline = evaluate(model, dataset, "test", window=args.window)
    online = evaluate_online(model, dataset,
                             OnlineConfig(window=args.window, lr=args.lr))
    print(format_metric_row(f"{args.model} (offline)", offline))
    print(format_metric_row(f"{args.model} (online)", online))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """JSONL request loop: one JSON object per stdin line, one per reply.

    Requests::

        {"op": "advance", "time": 80, "facts": [[s, r, o], ...]}
        {"op": "predict", "queries": [[s, r], ...], "topk": 5}
        {"op": "rank", "queries": [[s, r, o], ...], "filtered": true}
        {"op": "score", "facts": [[s, r, o], ...], "time": 81}
        {"op": "forecast", "queries": [[s, r], ...], "horizon": 3,
         "topk": 10}
        {"op": "stats"}
        {"op": "save", "path": "engine_state.npz"}

    ``--calibrate`` fits the ``score`` op's anomaly threshold on the
    in-stream calibration window (``--calibration-quantile`` /
    ``--calibration-window``) and turns on the drift telemetry of
    :mod:`repro.obs.drift`; see ``docs/ops.md``.

    With ``--listen host:port`` the loop is replaced by the persistent
    socket daemon (:mod:`repro.serving.daemon`): many concurrent TCP
    clients, the same JSONL schema, each request answered on its own in
    arrival order, admission control past ``--max-queue``, and — with
    ``--snapshot`` — graceful-shutdown snapshotting restored on the
    next start (delta-replay for store-file-backed engines).

    ``--listen`` plus ``--replicas N`` (N > 1) serves through the
    replica-set router instead (:mod:`repro.serving.router`): N worker
    engines over one shared read state, round-robin reads, all-replica
    ``advance`` fan-out, and the ``/healthz`` ``/readyz`` ``/stats``
    HTTP surface on the same port.  Replication wants a store-backed
    engine — pass ``--store PATH`` (a ``repro.data`` ``.hst`` file) so
    the replicas share the fact buffer through the page cache instead
    of each re-ingesting ``--preload`` splits.

    The stdin loop ends at EOF (or an ``{"op": "quit"}`` line) and
    prints the serving-stats summary to stderr, keeping stdout pure
    JSONL.
    """
    from .serving import InferenceEngine, protocol

    dataset = _load_dataset(args.dataset)
    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, args.model, dataset, window=args.window,
        dim=args.dim, seed=args.seed)
    if getattr(args, "calibrate", False):
        from .serving.ops import CalibrationConfig

        engine.enable_calibration(CalibrationConfig(
            quantile=args.calibration_quantile,
            reference_size=args.calibration_window))
    if getattr(args, "store", None):
        count = engine.use_store_file(args.store)
        print(json.dumps({"ok": True, "op": "use_store",
                          "path": args.store, "facts_mapped": count,
                          "time": engine.last_time}), flush=True)
    elif args.preload != "none":
        splits = {"train": ("train",), "valid": ("train", "valid"),
                  "all": ("train", "valid", "test")}[args.preload]
        count = engine.preload(dataset, splits=splits)
        print(json.dumps({"ok": True, "op": "preload", "splits": splits,
                          "facts_ingested": count,
                          "time": engine.last_time}), flush=True)

    replicas = getattr(args, "replicas", 1)
    if args.listen is not None:
        host, _, port = args.listen.rpartition(":")
        from .serving.server import run_server

        if replicas > 1:
            from .serving.router import ReplicaSetRouter, RouterConfig

            return run_server(ReplicaSetRouter(engine, RouterConfig(
                host=host or "127.0.0.1", port=int(port),
                replicas=replicas)))
        from .serving.daemon import DaemonConfig, ServingDaemon

        return run_server(ServingDaemon(engine, DaemonConfig(
            host=host or "127.0.0.1", port=int(port),
            max_queue=args.max_queue,
            snapshot_path=args.snapshot)))
    if replicas > 1:
        raise SystemExit("--replicas needs --listen: the stdin loop is "
                         "single-engine by construction")

    stream = args.requests_from or sys.stdin
    for line in stream:
        line = line.strip()
        if not line:
            continue
        request = None
        try:
            request = protocol.decode_line(line)
            if request.get("op") == "quit":
                break
            response = protocol.handle_request(engine, request)
        except Exception as exc:  # serve loops must not die on bad input
            response = protocol.error_response(exc, request)
        print(json.dumps(response), flush=True)

    for stats_line in engine.stats.summary_lines():
        print(stats_line, file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = [compute_statistics(_load_dataset(spec)) for spec in args.datasets]
    for line in format_statistics_table(rows):
        print(line)
    if args.json:
        print(json.dumps({r.name: r.as_dict() for r in rows}, indent=2))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_preset(args.preset, seed=args.seed)
    save_benchmark_directory(dataset, args.out)
    print(f"wrote {dataset.name} ({len(dataset.train)}/{len(dataset.valid)}"
          f"/{len(dataset.test)} facts) to {args.out}")
    return 0


def _cmd_data(args: argparse.Namespace) -> int:
    """Dispatch the ``data`` sub-subcommands (convert/inspect/export)."""
    import os

    from .data import (IngestSpec, convert_directory, export_dataset,
                       ingest_directory, read_info, write_store)

    if args.data_command == "convert":
        spec = IngestSpec(time_granularity=args.granularity,
                          remap_ids=args.remap, name=args.name)
        report = convert_directory(args.source, args.out, spec)
        dataset = report.dataset
        print(f"converted {args.source} -> {args.out}: "
              f"{report.facts_read} lines read, "
              f"{report.dropped_duplicates} duplicates dropped, "
              f"splits {report.split_counts}, "
              f"{dataset.num_entities} entities / "
              f"{dataset.num_relations} relations"
              f"{' (remapped)' if report.entities_remapped else ''}")
        if args.store:
            info = write_store(args.store, dataset)
            print(info.describe())
        return 0
    if args.data_command == "inspect":
        if os.path.isdir(args.path):
            report = ingest_directory(args.path)
            dataset = report.dataset
            print(f"{args.path}: splits {report.split_counts}, "
                  f"{dataset.num_entities} entities / "
                  f"{dataset.num_relations} relations / "
                  f"{dataset.num_timestamps} timestamps")
        else:
            print(read_info(args.path).describe())
        return 0
    if args.data_command == "export":
        dataset = _load_dataset(args.dataset)
        export_dataset(dataset, args.out, named=args.named)
        print(f"exported {dataset.name} "
              f"({len(dataset.train)}/{len(dataset.valid)}"
              f"/{len(dataset.test)} facts) to {args.out}"
              f"{' with vocabulary names' if args.named else ''}")
        if args.store:
            info = write_store(args.store, dataset)
            print(info.describe())
        return 0
    raise ValueError(f"unknown data command {args.data_command!r}")


def _cmd_list(args: argparse.Namespace) -> int:
    print("models:   " + ", ".join(model_names()))
    print("datasets: " + ", ".join(preset_names()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    _add_common_model_args(p_train)
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--lr", type=float, default=2e-3)
    p_train.add_argument("--eval-every", type=int, default=4)
    p_train.add_argument("--patience", type=int, default=4)
    p_train.add_argument("--out", help="checkpoint output path (.npz)")
    p_train.add_argument("--trace",
                         help="write a repro.obs JSONL trace of the run "
                              "(epoch/train/eval spans, grad/param norms)")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    _add_common_model_args(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test",
                        choices=("train", "valid", "test"))
    p_eval.add_argument("--filter", default="time-aware",
                        choices=("time-aware", "raw", "static"))
    p_eval.add_argument("--per-pattern", action="store_true",
                        help="break metrics down by generative pattern")
    p_eval.add_argument("--trace",
                        help="write a repro.obs JSONL trace of the pass "
                             "(forward/rank spans, history-cache hit/miss "
                             "counters)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_noise = sub.add_parser("noise", help="Gaussian-noise sweep")
    _add_common_model_args(p_noise)
    p_noise.add_argument("--checkpoint", required=True)
    p_noise.add_argument("--sigmas", type=float, nargs="+",
                         default=[0.0, 0.5, 1.0, 2.0])
    p_noise.set_defaults(func=_cmd_noise)

    p_online = sub.add_parser("online", help="online-learning evaluation")
    _add_common_model_args(p_online)
    p_online.add_argument("--checkpoint", required=True)
    p_online.add_argument("--lr", type=float, default=1e-3)
    p_online.set_defaults(func=_cmd_online)

    p_serve = sub.add_parser("serve", help="incremental online inference "
                             "(JSONL request loop on stdin/stdout)")
    _add_common_model_args(p_serve)
    p_serve.add_argument("--checkpoint", required=True)
    p_serve.add_argument("--preload", default="train",
                         choices=("none", "train", "valid", "all"),
                         help="history to ingest before serving")
    p_serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                         help="serve as a persistent TCP daemon instead of "
                              "the stdin loop (port 0 picks a free port)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="daemon admission-control depth; requests "
                              "past this are shed as overloaded")
    p_serve.add_argument("--replicas", type=int, default=1, metavar="N",
                         help="with --listen: serve through the replica-set "
                              "router (N worker engines over one shared "
                              "read state) instead of the single daemon")
    p_serve.add_argument("--store", default=None, metavar="PATH",
                         help="adopt a repro.data .hst store file as the "
                              "fact buffer (replaces --preload; replicas "
                              "share its pages through the OS page cache)")
    p_serve.add_argument("--snapshot", default=None, metavar="PATH",
                         help="engine-state snapshot written on graceful "
                              "daemon shutdown and restored on start")
    p_serve.add_argument("--calibrate", action="store_true",
                         help="calibrate the score op on the in-stream "
                              "reference window (enables anomaly flags "
                              "and drift telemetry; see docs/ops.md)")
    p_serve.add_argument("--calibration-quantile", type=float, default=0.05,
                         metavar="Q",
                         help="anomaly threshold position in the reference "
                              "score distribution")
    p_serve.add_argument("--calibration-window", type=int, default=512,
                         metavar="N",
                         help="rolling reference window size (scores)")
    p_serve.set_defaults(func=_cmd_serve, requests_from=None)

    p_stats = sub.add_parser("stats", help="dataset statistics")
    p_stats.add_argument("datasets", nargs="+",
                         help="preset names or directories")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("generate", help="write a preset to disk")
    p_gen.add_argument("--preset", required=True, choices=preset_names())
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_data = sub.add_parser("data", help="ingest, convert and pack datasets")
    data_sub = p_data.add_subparsers(dest="data_command", required=True)
    p_convert = data_sub.add_parser(
        "convert", help="normalize a raw benchmark dump into a canonical "
                        "integer-id directory (plus optional store file)")
    p_convert.add_argument("source", help="raw dump directory "
                                          "(train/valid/test.txt)")
    p_convert.add_argument("out", help="output directory")
    p_convert.add_argument("--granularity", type=int, default=1,
                           help="raw time ticks per snapshot bucket")
    p_convert.add_argument("--remap", default="auto",
                           choices=("auto", "always", "never"),
                           help="id remapping policy (auto keeps ids that "
                                "are already dense)")
    p_convert.add_argument("--name", default=None, help="dataset name")
    p_convert.add_argument("--store",
                           help="also pack the history into a memory-"
                                "mappable store file at this path")
    p_convert.set_defaults(func=_cmd_data)
    p_inspect = data_sub.add_parser(
        "inspect", help="describe a store file or benchmark directory")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=_cmd_data)
    p_export = data_sub.add_parser(
        "export", help="write a dataset (preset or directory) as a raw "
                       "benchmark dump")
    p_export.add_argument("dataset", help="preset name or dataset directory")
    p_export.add_argument("out", help="output directory")
    p_export.add_argument("--named", action="store_true",
                          help="emit vocabulary names instead of integer "
                               "ids (exercises string ingestion)")
    p_export.add_argument("--store",
                          help="also pack the history into a memory-"
                               "mappable store file at this path")
    p_export.set_defaults(func=_cmd_data)

    p_list = sub.add_parser("list", help="list models and datasets")
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
