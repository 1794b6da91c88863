"""Paths, statistics and process helpers shared by the benchmark's files.

The benchmark lives in ``benchmarks/perf`` and drives the library in
``src/`` from outside: it never edits the program, it only generates
inputs, calls the public API or the CLI, and times what comes back.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
# Scratch inputs (removed after each run) and kept outputs (traces).
RUNS_DIR = HERE / ".runs"


def library_present() -> bool:
    """Whether the program under test is there to be benchmarked."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_library() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    # One numpy thread per process: the host has few cores and the
    # benchmark's processes already compete for them.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def load_benchmark_spec() -> dict:
    """The repository's ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


# -- processes ----------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Summed ``VmHWM`` of a process and all its live descendants."""
    return sum(peak_rss_mb(p) for p in [pid] + descendants(pid))


def last_json_line(text: str) -> Optional[dict]:
    """The last line of ``text`` that parses as a JSON object."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    return None
