"""Reading and writing quadruple files.

The on-disk format matches the public ICEWS/GDELT benchmark dumps used by
RE-GCN and successors: one fact per line, tab-separated integer ids
``subject  relation  object  time`` (a trailing fifth column, present in
some dumps, is ignored).  This means a user with the real ICEWS14 files
can drop them in and run every experiment against the genuine data.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

import numpy as np

from .dataset import TKGDataset
from .quadruples import QuadrupleSet


def load_quadruple_file(path: str) -> QuadrupleSet:
    """Parse a tab/space-separated quadruple file into a QuadrupleSet.

    Blank lines and lines starting with ``#`` are skipped, and columns
    past the fourth are ignored.  One vectorized ``np.loadtxt`` call
    parses a well-formed file; it takes ``#`` for data, not comments,
    so any file it cannot parse exactly as the line loop would (a
    comment line, a short row, a token ``int`` reads but it does not)
    goes through :func:`_load_quadruple_lines`, which gives the same
    result or raises the ``path:line`` error.
    """
    try:
        with warnings.catch_warnings():
            # An empty file is no error: it loads as no facts.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, dtype=np.int64, usecols=range(4),
                              ndmin=2, comments=None)
    except (ValueError, OverflowError):
        return _load_quadruple_lines(path)
    return QuadrupleSet(rows)


def _load_quadruple_lines(path: str) -> QuadrupleSet:
    """:func:`load_quadruple_file` one line at a time."""
    rows = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"{path}:{line_no}: expected >=4 columns, "
                                 f"got {len(parts)}")
            rows.append([int(parts[0]), int(parts[1]),
                         int(parts[2]), int(parts[3])])
    if not rows:
        return QuadrupleSet.empty()
    return QuadrupleSet(np.asarray(rows, dtype=np.int64))


def save_quadruple_file(quads: QuadrupleSet, path: str) -> None:
    """Write facts in the standard four-column format."""
    with open(path, "w") as handle:
        for s, r, o, t in quads.array:
            handle.write(f"{s}\t{r}\t{o}\t{t}\n")


def load_benchmark_directory(directory: str, name: Optional[str] = None
                             ) -> TKGDataset:
    """Load an RE-GCN-style dataset directory.

    Expects ``train.txt``, ``valid.txt`` and ``test.txt``; entity/relation
    counts come from ``stat.txt`` (two or three whitespace-separated ints)
    when present, otherwise from the data itself.
    """
    splits = {}
    for split in ("train", "valid", "test"):
        path = os.path.join(directory, f"{split}.txt")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing {path}")
        splits[split] = load_quadruple_file(path)

    stat_path = os.path.join(directory, "stat.txt")
    if os.path.exists(stat_path):
        with open(stat_path) as handle:
            parts = handle.read().split()
        num_entities, num_relations = int(parts[0]), int(parts[1])
    else:
        num_entities, num_relations = _infer_counts(splits)

    return TKGDataset(
        name=name or os.path.basename(os.path.normpath(directory)),
        train=splits["train"], valid=splits["valid"], test=splits["test"],
        num_entities=num_entities, num_relations=num_relations)


def save_benchmark_directory(dataset: TKGDataset, directory: str) -> None:
    """Write a dataset as an RE-GCN-style directory (incl. stat.txt)."""
    os.makedirs(directory, exist_ok=True)
    for split, quads in dataset.splits().items():
        save_quadruple_file(quads, os.path.join(directory, f"{split}.txt"))
    with open(os.path.join(directory, "stat.txt"), "w") as handle:
        handle.write(f"{dataset.num_entities}\t{dataset.num_relations}\n")


def _infer_counts(splits) -> Tuple[int, int]:
    ent_max = rel_max = -1
    for quads in splits.values():
        e, r, _ = quads.max_ids()
        ent_max = max(ent_max, e)
        rel_max = max(rel_max, r)
    return ent_max + 1, rel_max + 1
