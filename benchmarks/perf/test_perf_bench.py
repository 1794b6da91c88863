"""Self-test of the benchmark (not part of the tier-1 suite).

    pytest benchmarks/perf -q

Runs every workload at ``--smoke`` sizes, traced and untraced, and
checks the ``BENCHMARK.json`` schema, metric emission, span self
time, tracer robustness, the comparison rule, and that a wrong answer
fails the run.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import BENCHMARK_JSON, ROOT, child_env, last_json_line
import compare
import tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def run_bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/perf/run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=300,
        env=env or child_env())


@pytest.fixture(scope="module")
def spec():
    raw = BENCHMARK_JSON.read_text()
    assert len(raw.encode()) <= 64 * 1024
    return json.loads(raw)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload, untraced then traced, at smoke sizes."""
    out = tmp_path_factory.mktemp("smoke") / "runs.json"
    proc = run_bench("--smoke", "--trace", "--json", str(out))
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(out.read_text())["runs"]


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert not any(part.startswith("/") or ".." in part
                   for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_emitted_with_its_unit(spec, smoke_runs):
    stdout, runs = smoke_runs
    assert [r["workload"] for r in runs] == [w["name"] for w in
                                             spec["workloads"]]
    lines = {tuple(line.split()[:2]): line.split()[2:]
             for line in stdout.splitlines() if len(line.split()) == 4}
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["detail"]
        for group, metrics in (("metrics", spec["end_to_end"]),
                               ("per_layer", spec["per_layer"])):
            for metric in metrics:
                value = run[group][metric["name"]]
                assert math.isfinite(value), (run["workload"], metric)
                value_text, unit = lines[(run["workload"], metric["name"])]
                assert unit == metric["unit"]
                assert float(value_text) == value
        for metric in spec["end_to_end"]:
            assert run["metrics"][metric["name"]] > 0


def test_single_workload_result_line(spec):
    proc = run_bench("--workload", "train-icews14", "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["attempted"] >= 1 and result["correct"]


def test_self_time_of_nested_spans(tmp_path, monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]).__next__
    monkeypatch.setattr(tracer.time, "monotonic", clock)
    t = tracer.Tracer()
    outer = t.enter("outer", "a")          # 0.0
    first = t.enter("inner", "b")          # 1.0
    t.exit(first)                          # 3.0
    second = t.enter("inner", "b")         # 4.0
    t.exit(second)                         # 7.0
    t.exit(outer)                          # 10.0
    t.dump(str(tmp_path / "spans.jsonl"))
    spans = tracer.read_spans([str(tmp_path / "spans.jsonl")])
    assert tracer.layer_self_seconds(spans, 0.0, 11.0) == {"a": 5.0,
                                                           "b": 5.0}
    assert tracer.share_of_ancestor(spans, 0.0, 11.0, "a", "b") == 0.5


def test_renamed_target_is_reported_not_fatal():
    targets = [("core.global", "json.no_such_function"),
               ("core.decoder", "no_such_module.f"),
               ("eval.rank", "json.JSONDecoder.no_such_method"),
               ("eval.rank", "json.dumps")]
    t = tracer.Tracer()
    t.install(targets)
    try:
        assert len(t.missing) == 3
        assert tracer.absent_layers(t.missing, targets) == ["core.global",
                                                            "core.decoder"]
        json.dumps({})
        assert [span[0] for span in t.spans] == ["json.dumps"]
    finally:
        t.uninstall()


@pytest.mark.parametrize("fault", ["tamper-response", "error-response"])
def test_wrong_or_failed_response_fails_the_run(fault):
    env = dict(child_env(), PERF_BENCH_FAULT=fault)
    proc = run_bench("--workload", "serve-replicas", "--smoke", env=env)
    assert proc.returncode != 0
    result = last_json_line(proc.stdout)
    assert not result["correct"] and result["failed"] >= 1


def test_drifting_eval_row_fails_the_run():
    env = dict(child_env(), PERF_BENCH_FAULT="eval-row")
    proc = run_bench("--workload", "eval-gdelt", "--smoke", env=env)
    assert proc.returncode != 0
    result = last_json_line(proc.stdout)
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program(tmp_path, spec):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".runs",
                                                      "__pycache__"))
    proc = run_bench("--workload", "train-icews14", "--seed", "0",
                     "--seconds", str(spec["run_seconds"]), "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert last_json_line(proc.stdout) is None


def test_run_length_comes_from_benchmark_json(spec):
    proc = run_bench("--workload", "train-icews14", "--seconds",
                     str(spec["run_seconds"] + 1))
    assert proc.returncode != 0
    assert last_json_line(proc.stdout) is None


def test_comparison_rule():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [x * 0.8 for x in parent],
                           "lower", 0.1) == "improved"
    assert compare.verdict(parent, [x * 1.2 for x in parent],
                           "lower", 0.1) == "regressed"
    assert compare.verdict(parent, [x * 1.01 for x in parent],
                           "lower", 0.1) == "no-worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    # Fewer than ten pairs can never claim a gain.
    assert compare.verdict(parent[:5], [x * 0.8 for x in parent[:5]],
                           "lower", 0.1) == "no-worse"


def test_comparison_refuses_failures_and_unequal_runs(tmp_path, spec,
                                                      capsys):
    def results(name, op_ms, failed=0, seconds=spec["run_seconds"]):
        runs = [{"workload": "train-icews14", "seconds": seconds,
                 "correct": failed == 0, "failed": failed,
                 "metrics": {"op_p50_ms": op_ms + i % 3}}
                for i in range(10)]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    parent = results("parent.json", 100.0)
    # Half the latency, but one failed operation: not a gain.
    assert compare.main([parent, results("faster.json", 50.0,
                                         failed=1)]) == 1
    assert "failing" in capsys.readouterr().out
    assert compare.main([parent, results("longer.json", 50.0,
                                         seconds=1000)]) == 2
