"""Per-pattern metric breakdown for synthetic benchmarks.

The synthetic generators tag every fact with the generative pattern that
produced it (``TKGDataset.provenance``).  Joining those tags with the
per-query ranks produced by :func:`repro.eval.evaluate` yields a
decomposition of a model's MRR by pattern — which makes the *mechanism*
of each model visible:

* copy models (CyGNet) should dominate on ``sparse`` repeats,
* recurrent models (RE-GCN) on ``markov`` persistence,
* structure-aware temporal models on ``drift`` succession,
* time-aware/global models on ``periodic`` phase,
* nobody on ``noise``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.metrics import RankingAccumulator
from ..eval.protocol import QueryRecord
from ..tkg.dataset import Snapshot, TKGDataset

PATTERN_LABELS = ("markov", "drift", "transfer", "periodic", "sparse",
                  "storyline", "noise")

# Serving-side provenance classes: which of the paper's two history
# encodings holds supporting evidence for a completion.  "local" means
# the fact recurs inside the m-snapshot local window (the recurrent
# local encoder's input, paper §III-C); "global" means it recurs
# anywhere in the query's historical subgraph (the global repetitive
# history, §III-D); "local+global" both; "none" a completion the model
# ranked up without any literal (s, r, entity) repetition to copy.
EVIDENCE_LABELS = ("local+global", "local", "global", "none")


def evidence_label(local_count: int, global_count: int) -> str:
    """Classify one completion's support into an evidence pattern.

    ``local_count`` facts inside the local window are by construction
    also in the global history, so a local repeat with no *earlier*
    global occurrence still reads ``local+global`` — the label answers
    "which encoder could have seen this", not "which saw it first".
    """
    if local_count > 0:
        return "local+global" if global_count > 0 else "local"
    return "global" if global_count > 0 else "none"


def attribute_completions(entities: Sequence[int], subject: int,
                          relation: int, snapshots: Sequence[Snapshot],
                          answer_counts: Dict[int, int]
                          ) -> List[Dict[str, object]]:
    """Per-entity provenance for candidate completions of one query.

    For each candidate object of ``(subject, relation, ?)`` this joins
    the two history surfaces the paper's encoders consume: the local
    window ``snapshots`` (as served by
    :meth:`repro.serving.InferenceEngine.window_before` — the §III-C
    input) and the global historical answer vocabulary
    ``answer_counts`` (``GlobalHistoryIndex.answer_counts(s, r)`` — the
    §III-D repetitive history; a dict holding only the candidates'
    counts, e.g. from ``GlobalHistoryIndex.fact_counts``, gives the same
    rows).  Returns one dict per entity::

        {"local_count":  #(s, r, e) facts inside the local window,
         "global_count": #(s, r, e) facts in the whole history,
         "last_seen":    newest local-window timestamp with the fact
                         (None when it never appears in the window),
         "evidence":     one of EVIDENCE_LABELS}

    This is the attribution payload the serving ``forecast`` op attaches
    to every completion; ``docs/paper_mapping.md`` maps each field back
    to paper notation.
    """
    entities = [int(e) for e in entities]
    local_counts = {e: 0 for e in entities}
    last_seen: Dict[int, Optional[int]] = {e: None for e in entities}
    wanted = set(entities)
    for snapshot in snapshots:
        mask = (np.asarray(snapshot.src) == int(subject)) \
            & (np.asarray(snapshot.rel) == int(relation))
        if not mask.any():
            continue
        for obj in np.asarray(snapshot.dst)[mask].tolist():
            if obj in wanted:
                local_counts[obj] += 1
                t = int(snapshot.time)
                seen = last_seen[obj]
                last_seen[obj] = t if seen is None else max(seen, t)
    rows: List[Dict[str, object]] = []
    for entity in entities:
        local = local_counts[entity]
        total = int(answer_counts.get(entity, 0))
        rows.append({
            "local_count": local,
            # The global vocabulary indexes every historical occurrence,
            # so it is always at least the local window's count (the
            # max guards stores adopted without index warm-up).
            "global_count": max(total, local),
            "last_seen": last_seen[entity],
            "evidence": evidence_label(local, max(total, local)),
        })
    return rows


def label_of_record(record: QueryRecord, dataset: TKGDataset) -> Optional[str]:
    """Look up the generative pattern of the fact behind one query.

    Inverse-phase queries are mapped back to their original orientation
    before the provenance lookup.
    """
    if dataset.provenance is None:
        return None
    if record.phase == "inverse":
        fact = (record.gold_object, record.relation - dataset.num_relations,
                record.subject, record.time)
    else:
        fact = (record.subject, record.relation, record.gold_object,
                record.time)
    return dataset.provenance.get(fact)


def per_pattern_metrics(records: Iterable[QueryRecord],
                        dataset: TKGDataset) -> Dict[str, Dict[str, float]]:
    """Group query ranks by generative pattern and summarize each group.

    Returns ``{pattern: {"mrr": ..., "hits@1": ..., ...}}``; queries whose
    fact has no provenance entry fall under ``"unknown"``.
    """
    groups: Dict[str, RankingAccumulator] = defaultdict(RankingAccumulator)
    for record in records:
        label = label_of_record(record, dataset) or "unknown"
        groups[label].add(record.rank)
    return {label: acc.summary() for label, acc in sorted(groups.items())}


def format_pattern_table(breakdown: Dict[str, Dict[str, float]],
                         title: str = "per-pattern breakdown") -> List[str]:
    """Render the decomposition as aligned text lines."""
    lines = [title,
             f"{'pattern':12s}{'queries':>9s}{'MRR':>8s}{'H@1':>8s}{'H@10':>8s}"]
    for label, metrics in breakdown.items():
        lines.append(f"{label:12s}{int(metrics['count']):>9d}"
                     f"{metrics['mrr']:8.2f}{metrics['hits@1']:8.2f}"
                     f"{metrics['hits@10']:8.2f}")
    return lines
