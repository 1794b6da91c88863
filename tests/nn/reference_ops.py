"""Reference oracle for the fused encoder kernels of :mod:`repro.nn.ops`.

Each function here has the signature of one fused op and computes the
same thing as a chain of generic autodiff ops (``index_select``,
``segment_sum``, ``concat``, ``@``, ``sigmoid`` ...), one node per step.
Slow, but each line reads like its paper equation, so the fused kernels
are held to it: forwards bitwise (the fused ops replay these numpy
expressions in the same order and draw from the RNG in the same order
and shapes), gradients to float tolerance.

:func:`use_reference_ops` swaps the whole set in at every import site,
which turns a production model into a whole-model oracle.
"""

import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.base import in_degree_norm
from repro.nn import ops as _ops
from repro.nn.dtypes import default_float
from repro.nn.functional import info_nce
from repro.nn.ops import (concat, conv1d_same, dropout, index_select,
                          l2_normalize, log_softmax, rrelu, segment_mean,
                          segment_sum, softmax, stack)
from repro.nn.tensor import Tensor


def fused_relational_pass(h: Tensor, r: Tensor, w_message: Tensor,
                          w_self: Tensor, src: np.ndarray, rel: np.ndarray,
                          dst: np.ndarray, num_nodes: int, *,
                          composition: str = "add", activation: bool = True,
                          training: bool = False, dropout_rate: float = 0.0,
                          rng: Optional[np.random.Generator] = None,
                          lower: float = 1.0 / 8.0,
                          upper: float = 1.0 / 3.0) -> Tensor:
    """One R-GCN (Eq. 4) / CompGCN layer."""
    h_src = index_select(h, src)
    r_edge = index_select(r, rel)
    if composition == "add":
        composed = h_src + r_edge
    elif composition == "sub":
        composed = h_src - r_edge
    elif composition == "mult":
        composed = h_src * r_edge
    else:
        raise ValueError(f"unknown composition '{composition}'")
    messages = composed @ w_message
    norm = in_degree_norm(dst, num_nodes, dtype=messages.data.dtype)
    aggregated = segment_sum(messages, dst, num_nodes) * Tensor(norm[:, None])
    out = aggregated + h @ w_self
    if activation:
        out = rrelu(out, lower, upper, training=training, rng=rng)
    return dropout(out, dropout_rate, training, rng)


def fused_gru_step(x: Tensor, h: Tensor, w_x: Tensor, w_h: Tensor,
                   bias: Tensor, hidden_dim: int) -> Tensor:
    """One GRU cell update (Eq. 5), ``[z | r | n]`` packed weights."""
    d = hidden_dim
    gates_x = x @ w_x + bias
    gates_h = h @ w_h
    z = (gates_x[:, :d] + gates_h[:, :d]).sigmoid()
    r = (gates_x[:, d:2 * d] + gates_h[:, d:2 * d]).sigmoid()
    n = (gates_x[:, 2 * d:] + r * gates_h[:, 2 * d:]).tanh()
    return (1.0 - z) * n + z * h


def fused_time_gate_evolve(entities: Tensor, relations: Tensor,
                           src: np.ndarray, rel: np.ndarray,
                           weight: Tensor, bias: Tensor) -> Tensor:
    """Relation evolution (Eq. 6-8): mean-pool, then time-gate."""
    pooled = segment_mean(index_select(entities, src), rel,
                          relations.shape[0])
    candidate = pooled + relations
    gate = (candidate @ weight + bias).sigmoid()
    return gate * candidate + (1.0 - gate) * relations


def fused_time_fuse(h: Tensor, w_t: Tensor, b_t: Tensor, w_fuse: Tensor,
                    interval: int) -> Tensor:
    """Time-interval fusion (Eq. 2-3): ``[h || cos(d w_t + b_t)] W_0``."""
    time_dim = w_t.shape[0]
    d = Tensor(np.asarray(float(interval), dtype=w_t.dtype))
    phi = (w_t * d + b_t).cos()
    tiled = phi.reshape(1, time_dim).expand(h.shape[0], time_dim)
    return concat([h, tiled], axis=-1) @ w_fuse


def fused_query_key(base: Tensor, relations: Tensor,
                    query_subjects: np.ndarray,
                    query_relations: np.ndarray, w4: Tensor,
                    dim: int) -> Tensor:
    """Query-aware entity key (Eq. 9)."""
    num_entities = base.shape[0]
    if len(query_subjects) > 0:
        rel_rows = index_select(relations, query_relations)
        rel_context = segment_mean(rel_rows, query_subjects, num_entities)
    else:
        rel_context = Tensor(np.zeros((num_entities, dim),
                                      dtype=base.data.dtype))
    return concat([rel_context, base], axis=-1) @ w4


def fused_local_attention(evolved: Tensor, snapshot_aggs: Sequence[Tensor],
                          query_key: Tensor, w5: Tensor) -> Tensor:
    """Additive snapshot attention (Eq. 10-11)."""
    scores = [(agg + query_key) @ w5 for agg in snapshot_aggs]
    alpha = softmax(concat(scores, axis=-1), axis=-1)         # (N, m)
    stacked = stack(list(snapshot_aggs), axis=1)              # (N, m, d)
    weighted = stacked * alpha.reshape(alpha.shape[0], alpha.shape[1], 1)
    return evolved + weighted.sum(axis=1)


def fused_global_gate(global_agg: Tensor, query_key: Tensor,
                      w6: Tensor) -> Tensor:
    """Global attention gate (Eq. 13-14)."""
    beta = ((global_agg + query_key) @ w6).sigmoid()
    return global_agg * beta


def fused_convtranse(subjects: Tensor, relations: Tensor, candidates: Tensor,
                     conv_w: Tensor, conv_b: Tensor, fc_w: Tensor,
                     fc_b: Tensor, *, training: bool = False,
                     dropout_rate: float = 0.0,
                     rng: Optional[np.random.Generator] = None,
                     subject_index: Optional[np.ndarray] = None,
                     relation_index: Optional[np.ndarray] = None) -> Tensor:
    """ConvTransE scores (Eq. 18), with the optional per-query gather."""
    if subject_index is not None:
        subjects = index_select(subjects, subject_index)
    if relation_index is not None:
        relations = index_select(relations, relation_index)
    num_kernels, dim = conv_w.shape[0], subjects.shape[1]
    x = stack([subjects, relations], axis=1)                  # (Q, 2, d)
    x = dropout(x, dropout_rate, training, rng)
    feat = conv1d_same(x, conv_w, conv_b).relu()              # (Q, K, d)
    feat = dropout(feat, dropout_rate, training, rng)
    flat = feat.reshape(feat.shape[0], num_kernels * dim)
    out = (flat @ fc_w + fc_b).relu()
    out = dropout(out, dropout_rate, training, rng)
    return out @ candidates.T


def fused_query_contrast(local_agg: Tensor, local_rel: Tensor,
                         global_agg: Tensor, global_rel: Tensor,
                         query_subjects: np.ndarray,
                         query_relations: np.ndarray,
                         local_head: Sequence[Tensor],
                         global_head: Sequence[Tensor],
                         temperature: float,
                         strategies: Sequence[str]) -> Tensor:
    """Query contrast (Eq. 15-17): project both views, average InfoNCE."""
    if len(query_subjects) < 2:
        return Tensor(np.zeros((), dtype=local_agg.data.dtype))

    def project(agg, rel, head):
        w1, b1, w2, b2 = head
        features = concat([index_select(agg, query_subjects),
                           index_select(rel, query_relations)], axis=-1)
        return l2_normalize(((features @ w1 + b1).tanh()) @ w2 + b2)

    z_local = project(local_agg, local_rel, local_head)       # Eq. 15
    z_global = project(global_agg, global_rel, global_head)   # Eq. 16
    pairs = {"lg": (z_local, z_global), "gl": (z_global, z_local),
             "ll": (z_local, z_local), "gg": (z_global, z_global)}
    total = None
    for name in strategies:
        loss = info_nce(*pairs[name], temperature)
        total = loss if total is None else total + loss
    return total * (1.0 / len(strategies))


def fused_blend(a: Tensor, b: Tensor, weight_a: float) -> Tensor:
    """Eq. 19's lambda-fusion ``a * w + b * (1 - w)``."""
    return a * weight_a + b * (1.0 - weight_a)


def fused_multilabel_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy against normalized multi-hot rows (Eq. 20)."""
    log_p = log_softmax(logits, axis=-1)
    weights = labels / np.maximum(labels.sum(axis=-1, keepdims=True), 1.0)
    return -(log_p * Tensor(weights.astype(logits.dtype))).sum(axis=-1).mean()


def _multihot_labels(subjects: np.ndarray, relations: np.ndarray,
                     objects: np.ndarray, num_entities: int) -> np.ndarray:
    """Eq. 20 labels: row q marks every true object of (s_q, r_q, t)."""
    labels = np.zeros((len(subjects), num_entities), dtype=default_float())
    by_query: Dict[Tuple[int, int], List[int]] = {}
    for s, r, o in zip(subjects, relations, objects):
        by_query.setdefault((int(s), int(r)), []).append(int(o))
    for row, (s, r) in enumerate(zip(subjects, relations)):
        labels[row, by_query[(int(s), int(r))]] = 1.0
    return labels


FUSED_OPS = ("fused_relational_pass", "fused_gru_step",
             "fused_time_gate_evolve", "fused_time_fuse", "fused_query_key",
             "fused_local_attention", "fused_global_gate",
             "fused_convtranse", "fused_query_contrast", "fused_blend",
             "fused_multilabel_loss")


def import_sites(name: str, production) -> List[Tuple[object, str]]:
    """Every loaded ``repro`` module holding ``production`` as ``name``."""
    return [(module, name) for module_name, module in sorted(
                sys.modules.items())
            if module_name.startswith("repro.") and module is not None
            and getattr(module, name, None) is production]


def use_reference_ops(monkeypatch) -> int:
    """Patch every fused op (and ``_multihot_labels``) to its reference.

    Only the modules that *call* the op are patched, not ``repro.nn.ops``
    itself, so tests can still reach the fused originals.  Returns the
    number of patched sites.
    """
    import repro.core.model as model_module
    import repro  # noqa: F401 - loads every call site
    patched = 0
    for name in FUSED_OPS:
        for module, attr in import_sites(name, getattr(_ops, name)):
            if module is _ops:
                continue
            monkeypatch.setattr(module, attr, globals()[name])
            patched += 1
    monkeypatch.setattr(model_module, "_multihot_labels", _multihot_labels)
    return patched + 1
