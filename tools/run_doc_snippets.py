#!/usr/bin/env python
"""Execute every fenced ``python`` block in the project docs.

Documentation drifts the moment nobody runs it.  This harness extracts
each fenced ```python block from ``README.md`` and ``docs/*.md`` and
``exec``s it, so a renamed function or changed signature in a doc
snippet fails CI exactly like a broken test.

Execution model
---------------
* All blocks of one file share a single namespace and run in order, so
  a snippet may use names an earlier snippet in the same file defined
  (the docs read top-to-bottom the same way).
* Each file runs inside a fresh temporary directory; snippets may write
  checkpoints or traces without littering the repo.
* Some snippets reference artifacts a reader would already have (a
  trained ``logcl.npz``, an ICEWS-style benchmark directory, incoming
  fact arrays).  A small per-file *bootstrap* materializes those under
  the documented names before the blocks run — see ``BOOTSTRAPS``.
* By default the harness applies "fast" clamps so the whole doc set
  runs in test time: every dataset preset resolves to the minutes-scale
  ``tiny`` preset and training is capped at one epoch.  ``--full``
  removes the clamps and runs the snippets verbatim.

Run directly (``python tools/run_doc_snippets.py``) or through pytest
(``tests/docs/test_snippets.py``), which shells out here once per doc
file so snippet side effects (registry entries, patched presets) stay
in a subprocess.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


# -- snippet extraction -------------------------------------------------------

def extract_blocks(path: str) -> List[Tuple[int, str]]:
    """Fenced ```python blocks of a markdown file as (start_line, code)."""
    blocks: List[Tuple[int, str]] = []
    lines = open(path, encoding="utf-8").read().splitlines()
    collecting: Optional[List[str]] = None
    start = 0
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if collecting is None:
            if stripped.startswith("```python"):
                collecting, start = [], number + 1
        elif stripped.startswith("```"):
            blocks.append((start, "\n".join(collecting)))
            collecting = None
        else:
            collecting.append(line)
    if collecting is not None:
        raise ValueError(f"{path}: unterminated ```python fence")
    return blocks


# -- fast-mode clamps ---------------------------------------------------------

def apply_fast_clamps() -> None:
    """Make every documented run finish in test time.

    * ``load_preset`` resolves every known preset name to ``tiny`` (the
      docs name the ICEWS-scale presets; the API surface exercised is
      identical).
    * ``Trainer`` clamps its config to one epoch.
    """
    import dataclasses

    import repro.datasets as datasets_pkg
    from repro.datasets import presets
    from repro.training.trainer import Trainer

    def fast_load_preset(name, seed=None):
        if name not in presets.PRESETS:
            raise KeyError(f"unknown preset {name!r}; "
                           f"available: {sorted(presets.PRESETS)}")
        return presets.tiny() if seed is None else presets.tiny(seed=seed)

    presets.load_preset = fast_load_preset
    datasets_pkg.load_preset = fast_load_preset

    original_init = Trainer.__init__

    def fast_init(self, config=None):
        if config is None:
            original_init(self)
            config = self.config
        config = dataclasses.replace(config, epochs=min(config.epochs, 1))
        original_init(self, config)

    Trainer.__init__ = fast_init


# -- per-file bootstraps ------------------------------------------------------
#
# Each bootstrap returns the names a file's snippets assume pre-defined
# and creates any files they assume on disk (relative to the current —
# temporary — working directory).

def _serving_fixture() -> Dict[str, object]:
    """A trained checkpoint plus the documented live-query variables."""
    import numpy as np

    from repro.datasets import load_preset
    from repro.registry import build_model
    from repro.training import save_checkpoint

    dataset = load_preset("tiny")
    model = build_model("logcl", dataset, dim=32)
    save_checkpoint(model, "logcl.npz")

    test = dataset.splits()["test"].array
    first_time = int(test[:, 3].min())
    rows = test[test[:, 3] == first_time]
    return {
        "dataset": dataset,
        "new_facts": rows[:, :3].copy(),     # (s, r, o) rows, one snapshot
        "t": first_time,
        "subjects": rows[:4, 0].copy(),
        "relations": rows[:4, 1].copy(),
        "s": int(rows[0, 0]), "r": int(rows[0, 1]),
        "subject": int(rows[0, 0]), "relation": int(rows[0, 1]),
    }


def _benchmark_directory_fixture() -> Dict[str, object]:
    """The on-disk benchmark layout the data-format doc loads."""
    from repro.datasets import load_preset
    from repro.tkg import save_benchmark_directory

    save_benchmark_directory(load_preset("tiny"), "path/to/ICEWS14")
    return {}


def _dataset_fixture() -> Dict[str, object]:
    from repro.datasets import load_preset

    dataset = load_preset("tiny")
    return {"dataset": dataset, "num_relations": dataset.num_relations}


def _readme_fixture() -> Dict[str, object]:
    # The README trains on `tiny` itself; it additionally loads a
    # benchmark directory and serves from a saved checkpoint.
    namespace = _serving_fixture()
    _benchmark_directory_fixture()
    return namespace


BOOTSTRAPS: Dict[str, Callable[[], Dict[str, object]]] = {
    "README.md": _readme_fixture,
    "serving.md": _serving_fixture,
    "ops.md": _serving_fixture,
    "data_format.md": _benchmark_directory_fixture,
    "data.md": _dataset_fixture,
    "history.md": _dataset_fixture,
}


# -- execution ----------------------------------------------------------------

def run_file(path: str) -> int:
    """Run one doc file's blocks; returns the number executed."""
    rel = os.path.relpath(path, REPO_ROOT)
    blocks = extract_blocks(path)
    if not blocks:
        print(f"{rel}: no python blocks")
        return 0
    bootstrap = BOOTSTRAPS.get(os.path.basename(path))
    previous_dir = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="doc_snippets_") as workdir:
        os.chdir(workdir)
        try:
            namespace: Dict[str, object] = {"__name__": "__doc_snippet__"}
            if bootstrap is not None:
                namespace.update(bootstrap())
            for line, code in blocks:
                started = time.perf_counter()
                exec(compile(code, f"{rel}:{line}", "exec"), namespace)
                print(f"  {rel}:{line} ok "
                      f"({time.perf_counter() - started:.1f}s)")
        finally:
            os.chdir(previous_dir)
    return len(blocks)


def default_files() -> List[str]:
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs = os.path.join(REPO_ROOT, "docs")
    files.extend(os.path.join(docs, name)
                 for name in sorted(os.listdir(docs))
                 if name.endswith(".md"))
    return files


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Execute fenced python blocks from the project docs.")
    parser.add_argument("files", nargs="*",
                        help="markdown files (default: README.md docs/*.md)")
    parser.add_argument("--full", action="store_true",
                        help="run snippets verbatim (no preset/epoch clamps)")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list extracted blocks without running them")
    args = parser.parse_args(argv)

    files = [os.path.abspath(f) for f in args.files] or default_files()
    if args.list_only:
        for path in files:
            rel = os.path.relpath(path, REPO_ROOT)
            for line, code in extract_blocks(path):
                print(f"{rel}:{line} ({len(code.splitlines())} lines)")
        return 0

    if not args.full:
        apply_fast_clamps()

    total = 0
    for path in files:
        try:
            total += run_file(path)
        except Exception:
            rel = os.path.relpath(path, REPO_ROOT)
            print(f"FAILED in {rel}:", file=sys.stderr)
            traceback.print_exc()
            return 1
    print(f"ran {total} snippet blocks from {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
