"""Reference oracle for LogCL's query-row inference.

The full-|E| composition ``LogCL.encode_queries`` ran before inference
was restricted to the query subjects' rows: the Eq. 9-11 local
attention and the Eq. 12-14 global encoder over every entity, both
normalized, the λ-fusion over every row, and the candidate matrix taken
whole.  Slow, but obviously the paper's equations, so the oracle tests
hold the production path to it.
"""

from typing import Dict

import numpy as np

from repro.nn import no_grad
from repro.nn.ops import fused_blend, l2_normalize


def reference_encode_queries(model, context: Dict, subjects: np.ndarray,
                             relations: np.ndarray, global_edges) -> Dict:
    """Every encoder matrix over all entities, as ``encode_queries`` was."""
    entities0 = context["entities0"]
    relations0 = context["relations0"]
    local = None
    if context["local_state"] is not None:
        local = model.local_encoder.attend(context["local_state"], entities0,
                                           subjects, relations)
    glob = None
    if model.global_encoder is not None:
        src, rel, dst = global_edges
        glob = model.global_encoder(entities0, relations0, src, rel, dst,
                                    subjects, relations)
    local_entities = local.entities if local is not None else None
    global_entities = glob.entities if glob is not None else None
    if model.config.normalize_encodings:
        if local_entities is not None:
            local_entities = l2_normalize(local_entities)
        if global_entities is not None:
            global_entities = l2_normalize(global_entities)
    if local_entities is not None and global_entities is not None:
        fused = fused_blend(local_entities, global_entities,
                            model.config.fusion_lambda)
        rel_matrix = local.relations
    elif local_entities is not None:
        fused = local_entities
        rel_matrix = local.relations
    else:
        fused = global_entities
        rel_matrix = relations0
    candidates = fused
    if (model.config.candidate_source == "local"
            and local_entities is not None):
        candidates = local_entities
    return {"local": local, "global": glob, "fused": fused,
            "candidates": candidates, "relations": rel_matrix,
            "relations0": relations0}


def reference_predict(model, snapshots, query_time: int,
                      subjects: np.ndarray, relations: np.ndarray,
                      global_edges) -> np.ndarray:
    """Scores (Q, |E|) through :func:`reference_encode_queries`."""
    with no_grad():
        context = model.precompute_context(snapshots, query_time)
        encoded = reference_encode_queries(model, context, subjects,
                                           relations, global_edges)
        return model.score_queries(encoded, subjects, relations).data
