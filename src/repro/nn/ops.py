"""Functional operations that combine or restructure tensors.

Everything here is expressed in terms of :class:`repro.nn.tensor.Tensor`
primitives plus hand-written backward closures where a fused implementation
is materially faster (softmax, gather/scatter, conv1d).

The gather/scatter pair (:func:`index_select` / :func:`index_add`) is the
workhorse of graph message passing: an R-GCN layer gathers source-entity
rows, transforms them, and scatter-adds the messages onto destination rows.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor, _unbroadcast, is_grad_enabled

try:  # scipy accelerates the scatter primitives; ops degrade gracefully
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy is a soft dependency
    _sparse = None

try:  # direct C entry point — skips ~15µs of `@`-operator dispatch per
    # scatter (format/shape re-validation); output is bitwise identical
    # because `csr_matvecs` is exactly what the dispatch bottoms out in.
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except Exception:  # pragma: no cover - private API; degrade to `@`
    _csr_matvecs = None

IndexLike = Union[Tensor, np.ndarray, Sequence[int]]

# Memo of dtype -> "is integer" (np.issubdtype costs a subclass walk and
# index validation runs on every gather/scatter call).
_INT_DTYPES: dict = {}

# Cache of one-hot scatter matrices keyed by the index array's contents.
# Graph snapshots are re-encoded every epoch with identical edge arrays,
# so the CSR construction cost is paid once per distinct snapshot.
_SCATTER_CACHE: "OrderedDict[tuple, object]" = None
_SCATTER_CACHE_LIMIT = 1024


def _scatter_matrix(idx: np.ndarray, num_segments: int):
    """CSR matrix M with M[idx[e], e] = 1 — scatter-add as a matmul."""
    global _SCATTER_CACHE
    if _sparse is None:
        return None
    if _SCATTER_CACHE is None:
        from collections import OrderedDict
        _SCATTER_CACHE = OrderedDict()
    # dtype + length belong in the key: raw bytes alone collide across
    # widths (int64 [0] and int32 [0, 0] serialize identically).
    key = (idx.dtype.str, len(idx), idx.tobytes(), num_segments)
    cached = _SCATTER_CACHE.get(key)
    if cached is not None:
        _SCATTER_CACHE.move_to_end(key)
        return cached
    num_edges = len(idx)
    mat = _sparse.csr_matrix(
        (np.ones(num_edges, dtype=np.float32),
         (idx, np.arange(num_edges))),
        shape=(num_segments, num_edges))
    _SCATTER_CACHE[key] = mat
    if len(_SCATTER_CACHE) > _SCATTER_CACHE_LIMIT:
        _SCATTER_CACHE.popitem(last=False)
    return mat


def _scatter_add_rows(idx: np.ndarray, values: np.ndarray,
                      num_segments: int) -> np.ndarray:
    """Sum ``values`` rows into ``num_segments`` buckets (fast path)."""
    mat = _scatter_matrix(idx, num_segments)
    if mat is None:  # scipy unavailable: fall back to the ufunc
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        np.add.at(out, idx, values)
        return out
    if _csr_matvecs is not None and values.ndim <= 2:
        vals = values[:, None] if values.ndim == 1 else values
        vals = np.ascontiguousarray(vals)
        n_vecs = vals.shape[1]
        out = np.zeros((num_segments, n_vecs),
                       dtype=np.promote_types(mat.dtype, vals.dtype))
        _csr_matvecs(num_segments, vals.shape[0], n_vecs, mat.indptr,
                     mat.indices, mat.data, vals.ravel(), out.ravel())
        return out.reshape(num_segments) if values.ndim == 1 else out
    if values.ndim == 1:
        return np.asarray(mat @ values[:, None]).reshape(num_segments)
    return np.asarray(mat @ values)


def _index_array(index: IndexLike) -> np.ndarray:
    if isinstance(index, Tensor):
        index = index.data
    arr = np.asarray(index)
    is_int = _INT_DTYPES.get(arr.dtype)
    if is_int is None:
        is_int = bool(np.issubdtype(arr.dtype, np.integer))
        _INT_DTYPES[arr.dtype] = is_int
    if not is_int:
        raise TypeError(f"indices must be integers, got {arr.dtype}")
    return arr


# Cache of per-segment element counts (np.bincount results).  The edge
# arrays of a snapshot are immutable, so the in-degree counts feeding
# mean aggregation and the R-GCN normalizer would otherwise be recomputed
# with identical inputs on every layer of every epoch.
_COUNTS_CACHE: "OrderedDict[tuple, np.ndarray]" = None
_COUNTS_CACHE_LIMIT = 2048


def segment_counts(idx: np.ndarray, num_segments: int) -> np.ndarray:
    """``np.bincount(idx, minlength=num_segments)``, memoized.

    The returned int64 array is shared and read-only when served from
    the cache; callers must copy before mutating.
    """
    global _COUNTS_CACHE
    if _COUNTS_CACHE is None:
        from collections import OrderedDict
        _COUNTS_CACHE = OrderedDict()
    key = (idx.dtype.str, len(idx), idx.tobytes(), num_segments)
    cached = _COUNTS_CACHE.get(key)
    if cached is not None:
        _COUNTS_CACHE.move_to_end(key)
        return cached
    counts = np.bincount(idx, minlength=num_segments)
    counts.setflags(write=False)
    _COUNTS_CACHE[key] = counts
    if len(_COUNTS_CACHE) > _COUNTS_CACHE_LIMIT:
        _COUNTS_CACHE.popitem(last=False)
    return counts


def degree_norm(idx: np.ndarray, num_segments: int, dtype) -> np.ndarray:
    """Per-segment ``1/max(count, 1)`` normalizer (Eq. 4's ``1/c_o``).

    Counts come from the :func:`segment_counts` memo; the (cheap) cast
    and reciprocal stay per-call so every float dtype sees the same
    cached integer counts.
    """
    counts = segment_counts(idx, num_segments)
    return 1.0 / np.maximum(counts.astype(dtype), 1.0)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def where(condition: Union[np.ndarray, Tensor], a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select: ``condition ? a : b`` (differentiable in a, b)."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * cond, a.shape))
        b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def pad2d(t: Tensor, pad: Tuple[int, int, int, int]) -> Tensor:
    """Zero-pad the last two axes: ``pad = (top, bottom, left, right)``."""
    top, bottom, left, right = pad
    widths = [(0, 0)] * (t.ndim - 2) + [(top, bottom), (left, right)]
    out_data = np.pad(t.data, widths)

    def backward(grad: np.ndarray) -> None:
        slicer = [slice(None)] * (t.ndim - 2)
        slicer.append(slice(top, grad.shape[-2] - bottom))
        slicer.append(slice(left, grad.shape[-1] - right))
        t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, (t,), backward)


# ---------------------------------------------------------------------------
# gather / scatter — graph message passing primitives
# ---------------------------------------------------------------------------

def index_select(source: Tensor, index: IndexLike) -> Tensor:
    """Gather rows of ``source`` (axis 0) — the embedding-lookup primitive.

    Equivalent to ``source[index]`` but kept as a named op for clarity at
    message-passing call sites.  ``np.take`` copies the same rows about
    twice as fast as fancy indexing on 2-D sources.
    """
    idx = _index_array(index)
    out_data = np.take(source.data, idx, axis=0)
    num_rows = source.shape[0]

    def backward(grad: np.ndarray) -> None:
        source._accumulate(_scatter_add_rows(idx, grad, num_rows))

    return Tensor._make(out_data, (source,), backward)


def index_add(base: Tensor, index: IndexLike, values: Tensor) -> Tensor:
    """Return ``base`` with ``values`` scatter-added at ``index`` (axis 0).

    Duplicate indices accumulate, which is exactly the sum-aggregation a
    GCN needs when several edges share a destination node.
    """
    idx = _index_array(index)
    out_data = base.data.copy()
    np.add.at(out_data, idx, values.data)

    def backward(grad: np.ndarray) -> None:
        base._accumulate(grad)
        values._accumulate(grad[idx])

    return Tensor._make(out_data, (base, values), backward)


def segment_sum(values: Tensor, segment_ids: IndexLike, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets by ``segment_ids``."""
    idx = _index_array(segment_ids)
    out_data = _scatter_add_rows(idx, values.data, num_segments)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[idx])

    return Tensor._make(out_data, (values,), backward)


def segment_mean(values: Tensor, segment_ids: IndexLike,
                 num_segments: int) -> Tensor:
    """Mean-pool ``values`` rows into buckets; empty buckets stay zero."""
    idx = _index_array(segment_ids)
    counts = segment_counts(idx, num_segments).astype(values.data.dtype)
    counts = np.maximum(counts, 1.0)
    total = segment_sum(values, idx, num_segments)
    return total * Tensor(1.0 / counts[:, None] if values.ndim > 1 else 1.0 / counts)


def segment_softmax(scores: Tensor, segment_ids: IndexLike,
                    num_segments: int) -> Tensor:
    """Softmax over variable-size segments (per-destination edge softmax).

    Used by the KBGAT attention aggregator where each destination node
    normalizes the attention logits of its incoming edges.
    """
    idx = _index_array(segment_ids)
    data = scores.data
    seg_max = np.full(num_segments, -np.inf, dtype=data.dtype)
    np.maximum.at(seg_max, idx, data)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    shifted = data - seg_max[idx]
    exp = np.exp(shifted)
    # CSR scatter beats np.add.at by an order of magnitude on the
    # repeated edge arrays of the encoder; same sums, same order.
    seg_sum = _scatter_add_rows(idx, exp, num_segments)
    out_data = exp / np.maximum(seg_sum[idx], 1e-12)

    def backward(grad: np.ndarray) -> None:
        # d softmax: p * (grad - sum_j p_j grad_j) within each segment
        weighted = out_data * grad
        seg_dot = _scatter_add_rows(idx, weighted, num_segments)
        scores._accumulate(weighted - out_data * seg_dot[idx])

    return Tensor._make(out_data, (scores,), backward)


# ---------------------------------------------------------------------------
# normalizations / softmax family
# ---------------------------------------------------------------------------

def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        t._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (t,), backward)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        t._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (t,), backward)


def logsumexp(t: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    m = t.data.max(axis=axis, keepdims=True)
    exp = np.exp(t.data - m)
    s = exp.sum(axis=axis, keepdims=True)
    out_keep = m + np.log(s)
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    soft = exp / s

    def backward(grad: np.ndarray) -> None:
        g = grad if keepdims else np.expand_dims(grad, axis)
        t._accumulate(soft * g)

    return Tensor._make(out_data, (t,), backward)


def l2_normalize(t: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows onto the unit sphere (used by the contrast module).

    Rows whose norm falls below ``eps`` are flushed to exact zero: a
    clamped denominator alone would leave them at an arbitrary tiny
    scale, which breaks idempotency (normalizing twice would suddenly
    blow the row up once its rescaled norm crosses ``eps``).
    """
    norm = np.sqrt((t.data ** 2).sum(axis=axis, keepdims=True))
    degenerate = norm < eps
    safe_norm = np.maximum(norm, eps)
    out_data = t.data / safe_norm
    _zero_degenerate(out_data, degenerate)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        g = grad - out_data * dot
        g /= safe_norm
        _zero_degenerate(g, degenerate)
        t._accumulate(g)

    return Tensor._make(out_data, (t,), backward)


# ---------------------------------------------------------------------------
# dropout / noise
# ---------------------------------------------------------------------------

def dropout(t: Tensor, rate: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity at eval time or when ``rate == 0``."""
    if not training or rate <= 0.0:
        return t
    rng = rng or np.random.default_rng()
    keep = 1.0 - rate
    mask = (rng.random(t.shape) < keep).astype(t.data.dtype) / keep
    out_data = t.data * mask

    def backward(grad: np.ndarray) -> None:
        t._accumulate(grad * mask)

    return Tensor._make(out_data, (t,), backward)


def rrelu(t: Tensor, lower: float = 1.0 / 8.0, upper: float = 1.0 / 3.0,
          training: bool = False,
          rng: Optional[np.random.Generator] = None) -> Tensor:
    """Randomized leaky ReLU (the paper's sigma_1 in Eq. 4).

    During training the negative-side slope is sampled uniformly from
    ``[lower, upper]`` per element; at eval it is fixed to the mean slope,
    matching PyTorch's ``RReLU`` semantics (one scalar, same products as
    a full slope array).  Requires ``0 < lower <= upper <= 1`` (raises
    ``ValueError`` otherwise): the branch-free kernel below is exact
    only for slopes in that range.
    """
    slope = _rrelu_slope(t.data, lower, upper, training, rng)
    out_data = _rrelu_forward(t.data, slope)

    def backward(grad: np.ndarray) -> None:
        t._accumulate(grad * _rrelu_factor(t.data, slope))

    return Tensor._make(out_data, (t,), backward)


def _rrelu_slope(pre: np.ndarray, lower: float, upper: float,
                 training: bool, rng: Optional[np.random.Generator]):
    """The negative-side slope of :func:`rrelu`: one uniform draw per
    element while training, the mean slope (a scalar) at eval."""
    if not 0.0 < lower <= upper <= 1.0:
        raise ValueError(f"rrelu needs 0 < lower <= upper <= 1, got "
                         f"lower={lower}, upper={upper}")
    if training:
        rng = rng or np.random.default_rng()
        return rng.uniform(lower, upper, size=pre.shape).astype(pre.dtype)
    return pre.dtype.type((lower + upper) / 2.0)


# Branch-free leaky activation.  For a slope in (0, 1], ``slope * x``
# lies between x and 0 (rounding is monotone), so
# ``maximum(x, slope * x)`` is x for x >= 0 and ``slope * x`` below
# zero: bitwise ``where(x >= 0, x, slope * x)``, including ±0, ±inf,
# NaN and subnormals, at a tenth of the cost.  The derivative
# ``where(x >= 0, 1, slope)`` is likewise ``maximum(slope, x >= 0)``.
def _rrelu_forward(pre: np.ndarray, slope) -> np.ndarray:
    act = slope * pre
    return np.maximum(pre, act, out=act)


def _rrelu_factor(pre: np.ndarray, slope) -> np.ndarray:
    return np.maximum(slope, pre >= 0)


def _zero_degenerate(values: np.ndarray, degenerate: np.ndarray) -> None:
    """``values = np.where(degenerate, 0.0, values)`` in place, without a
    second full-size array (``degenerate`` broadcasts to ``values``)."""
    if degenerate.any():
        values[np.broadcast_to(degenerate, values.shape)] = 0.0


# ---------------------------------------------------------------------------
# convolution (for the ConvTransE decoder and ConvE baseline)
# ---------------------------------------------------------------------------

def conv2d_valid(x: Tensor, weight: Tensor,
                 bias: Optional[Tensor] = None) -> Tensor:
    """2-D convolution, no padding ('valid').

    Shapes: ``x (batch, in_ch, H, W)``, ``weight (out_ch, in_ch, kh, kw)``,
    output ``(batch, out_ch, H-kh+1, W-kw+1)``.  Uses an im2col unfold so
    both passes are dense einsums.
    """
    batch, in_ch, height, width = x.shape
    out_ch, in_ch_w, kh, kw = weight.shape
    if in_ch != in_ch_w:
        raise ValueError(f"channel mismatch: x has {in_ch}, weight has {in_ch_w}")
    out_h, out_w = height - kh + 1, width - kw + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("kernel larger than input")
    # windows: (batch, in_ch, out_h, out_w, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw),
                                                       axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, in_ch * kh * kw)
    w2 = weight.data.reshape(out_ch, in_ch * kh * kw)
    out_data = np.einsum("bpf,of->bop", cols, w2).reshape(
        batch, out_ch, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None, None]

    def backward(grad: np.ndarray) -> None:
        g2 = grad.reshape(batch, out_ch, out_h * out_w)
        if weight.requires_grad:
            gw = np.einsum("bop,bpf->of", g2, cols)
            weight._accumulate(gw.reshape(out_ch, in_ch, kh, kw))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = np.einsum("bop,of->bpf", g2, w2)
            gcols = gcols.reshape(batch, out_h, out_w, in_ch, kh, kw)
            gx = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    gx[:, :, i:i + out_h, j:j + out_w] += (
                        gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2))
            x._accumulate(gx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)



def conv1d_same(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """1-D convolution with 'same' zero padding.

    Shapes: ``x (batch, in_ch, width)``, ``weight (out_ch, in_ch, k)``,
    output ``(batch, out_ch, width)``.  Implemented via an im2col unfold so
    both passes are dense matmuls — vital for speed in pure numpy.
    """
    batch, in_ch, width = x.shape
    out_ch, in_ch_w, k = weight.shape
    if in_ch != in_ch_w:
        raise ValueError(f"channel mismatch: x has {in_ch}, weight has {in_ch_w}")
    pad_left = (k - 1) // 2
    pad_right = k - 1 - pad_left
    padded = np.pad(x.data, ((0, 0), (0, 0), (pad_left, pad_right)))
    # unfold: (batch, width, in_ch * k)
    cols = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)
    cols = cols.transpose(0, 2, 1, 3).reshape(batch * width, in_ch * k)
    w2 = weight.data.reshape(out_ch, in_ch * k)
    out_data = (cols @ w2.T).reshape(batch, width, out_ch).transpose(0, 2, 1)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    def backward(grad: np.ndarray) -> None:
        # grad: (batch, out_ch, width) -> (batch*width, out_ch)
        g2 = grad.transpose(0, 2, 1).reshape(batch * width, out_ch)
        if weight.requires_grad:
            weight._accumulate((g2.T @ cols).reshape(out_ch, in_ch, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            gcols = (g2 @ w2).reshape(batch, width, in_ch, k)
            gcols = gcols.transpose(0, 2, 1, 3)
            gpad = np.zeros_like(padded)
            for j in range(k):
                gpad[:, :, j:j + width] += gcols[:, :, :, j]
            x._accumulate(gpad[:, :, pad_left:pad_left + width])

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)

# ---------------------------------------------------------------------------
# fused encoder kernels
# ---------------------------------------------------------------------------
# One graph-layer / recurrent-cell step costs ~20 autodiff nodes on the
# generic op path; at icews14_like scale the per-node Python overhead
# (closure allocation, topo-sort bookkeeping, _unbroadcast checks)
# dominates the arithmetic.  Each fused op below collapses one hot
# sub-graph of the LogCL encoder into a single Tensor node whose forward
# replays the generic path's numpy operations in the same order (in
# place only where that keeps them the same operations) — eval-mode
# outputs are bitwise identical, and the training forward
# draws from the RNG in the same order/shapes so sampled slopes and
# dropout masks match too.  The handwritten backwards are analytically
# equal but may differ in float summation order, so gradients agree to
# ulp-level tolerance rather than bitwise.  The generic compositions
# they replace live on as test oracles (tests/nn/reference_ops.py,
# held to these kernels by tests/nn/test_fused_kernels.py).

def fused_relational_pass(h: Tensor, r: Tensor, w_message: Tensor,
                          w_self: Tensor, src: np.ndarray, rel: np.ndarray,
                          dst: np.ndarray, num_nodes: int, *,
                          composition: str = "add", activation: bool = True,
                          training: bool = False, dropout_rate: float = 0.0,
                          rng: Optional[np.random.Generator] = None,
                          lower: float = 1.0 / 8.0,
                          upper: float = 1.0 / 3.0) -> Tensor:
    """One R-GCN/CompGCN layer as a single autodiff node.

    Computes ``dropout(rrelu(mean_by_dst(compose(h[src], r[rel]) @
    W_msg) + h @ W_self))`` with ``compose`` one of ``add`` (RE-GCN
    message), ``sub`` or ``mult`` (CompGCN compositions).  Equivalent to
    the chain of index_select/segment ops in
    ``repro.graph.{rgcn,compgcn}`` but with one backward closure and no
    intermediate Tensor nodes.
    """
    hd, rd = h.data, r.data
    h_src = np.take(hd, src, axis=0)
    r_edge = np.take(rd, rel, axis=0)
    # Add and sub compose in place into the fresh gather; the backward
    # of mult still needs ``h_src``.
    if composition == "add":
        composed = np.add(h_src, r_edge, out=h_src)
    elif composition == "sub":
        composed = np.subtract(h_src, r_edge, out=h_src)
    elif composition == "mult":
        composed = h_src * r_edge
    else:
        raise ValueError(f"unknown composition '{composition}'")
    messages = composed @ w_message.data
    norm = degree_norm(dst, num_nodes, messages.dtype)
    aggregated = _scatter_add_rows(dst, messages, num_nodes)
    aggregated *= norm[:, None]
    pre = hd @ w_self.data
    pre += aggregated            # IEEE addition commutes: same bits
    if activation:
        slope = _rrelu_slope(pre, lower, upper, training, rng)
        act = _rrelu_forward(pre, slope)
    else:
        slope = None
        act = pre
    if training and dropout_rate > 0.0:
        rng = rng or np.random.default_rng()
        keep = 1.0 - dropout_rate
        mask = (rng.random(act.shape) < keep).astype(act.dtype) / keep
        act *= mask              # fresh array; the backward keeps ``pre``
    else:
        mask = None
    out_data = act

    def backward(grad: np.ndarray) -> None:
        g = grad * mask if mask is not None else grad
        if activation:
            g = g * _rrelu_factor(pre, slope)
        if w_self.requires_grad:
            w_self._accumulate(hd.T @ g)
        g_messages = np.take(g * norm[:, None], dst, axis=0)
        if w_message.requires_grad:
            w_message._accumulate(composed.T @ g_messages)
        g_composed = g_messages @ w_message.data.T
        if composition == "mult":
            g_hsrc = g_composed * r_edge
            g_redge = g_composed * h_src
        else:
            g_hsrc = g_composed
            g_redge = -g_composed if composition == "sub" else g_composed
        if h.requires_grad:
            h._accumulate(g @ w_self.data.T
                          + _scatter_add_rows(src, g_hsrc, hd.shape[0]))
        if r.requires_grad:
            r._accumulate(_scatter_add_rows(rel, g_redge, rd.shape[0]))

    return Tensor._make(out_data, (h, r, w_message, w_self), backward)


def _sigmoid_inplace(pre: np.ndarray) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-pre))``, the same operations in the same
    order, written into the fresh array ``pre``."""
    np.negative(pre, out=pre)
    np.exp(pre, out=pre)
    pre += 1.0
    return np.divide(1.0, pre, out=pre)


def fused_gru_step(x: Tensor, h: Tensor, w_x: Tensor, w_h: Tensor,
                   bias: Tensor, hidden_dim: int) -> Tensor:
    """One GRU cell update as a single autodiff node.

    Same gate math and ``[z | r | n]`` packed-weight layout as
    ``repro.nn.recurrent.GRUCell.forward``; the sigmoids/tanh run its
    numpy operations in the same order, in place on fresh buffers, so
    forward outputs are bitwise identical.
    """
    d = hidden_dim
    xd, hd = x.data, h.data
    gx = xd @ w_x.data
    gx += bias.data
    gh = hd @ w_h.data
    z = _sigmoid_inplace(np.add(gx[:, :d], gh[:, :d]))
    rr = _sigmoid_inplace(np.add(gx[:, d:2 * d], gh[:, d:2 * d]))
    n = rr * gh[:, 2 * d:]
    n += gx[:, 2 * d:]
    np.tanh(n, out=n)
    out_data = 1.0 - z
    out_data *= n
    out_data += z * hd

    def backward(grad: np.ndarray) -> None:
        pre_n = grad * (1.0 - z) * (1.0 - n * n)
        g_r = pre_n * gh[:, 2 * d:]
        pre_r = g_r * rr * (1.0 - rr)
        pre_z = grad * (hd - n) * z * (1.0 - z)
        g_gx = np.concatenate([pre_z, pre_r, pre_n], axis=1)
        g_gh = np.concatenate([pre_z, pre_r, pre_n * rr], axis=1)
        if w_x.requires_grad:
            w_x._accumulate(xd.T @ g_gx)
        if bias.requires_grad:
            bias._accumulate(g_gx.sum(axis=0))
        if x.requires_grad:
            x._accumulate(g_gx @ w_x.data.T)
        if w_h.requires_grad:
            w_h._accumulate(hd.T @ g_gh)
        if h.requires_grad:
            h._accumulate(grad * z + g_gh @ w_h.data.T)

    return Tensor._make(out_data, (x, h, w_x, w_h, bias), backward)


def fused_time_gate_evolve(entities: Tensor, relations: Tensor,
                           src: np.ndarray, rel: np.ndarray,
                           weight: Tensor, bias: Tensor) -> Tensor:
    """Relation evolution (Eq. 6-7) as a single autodiff node.

    ``pooled = segment_mean(entities[src], rel); cand = pooled +
    relations; out = gate * cand + (1 - gate) * relations`` with ``gate
    = sigmoid(cand @ W + b)`` — ``segment_mean`` pooling followed by
    the :class:`repro.nn.recurrent.TimeGate` update, in one node.
    """
    num_rel = relations.data.shape[0]
    ed, reld = entities.data, relations.data
    vals = ed[src]
    counts = np.maximum(
        segment_counts(rel, num_rel).astype(vals.dtype), 1.0)
    inv = 1.0 / counts
    pooled = _scatter_add_rows(rel, vals, num_rel) * inv[:, None]
    cand = pooled + reld
    gate = 1.0 / (1.0 + np.exp(-(cand @ weight.data + bias.data)))
    out_data = gate * cand + (1.0 - gate) * reld

    def backward(grad: np.ndarray) -> None:
        pre = grad * (cand - reld) * gate * (1.0 - gate)
        if weight.requires_grad:
            weight._accumulate(cand.T @ pre)
        if bias.requires_grad:
            bias._accumulate(pre.sum(axis=0))
        g_cand = grad * gate + pre @ weight.data.T
        if relations.requires_grad:
            relations._accumulate(grad * (1.0 - gate) + g_cand)
        if entities.requires_grad:
            g_vals = (g_cand * inv[:, None])[rel]
            entities._accumulate(_scatter_add_rows(src, g_vals, ed.shape[0]))

    return Tensor._make(out_data, (entities, relations, weight, bias),
                        backward)

def fused_time_fuse(h: Tensor, w_t: Tensor, b_t: Tensor, w_fuse: Tensor,
                    interval: int) -> Tensor:
    """Time-interval fusion (Eq. 2-3) as a single autodiff node.

    ``cos(d * w_t + b_t)`` tiled over rows, concatenated with ``h`` and
    projected by ``w_fuse`` (``repro.core.time_encoding.TimeEncoding``).
    """
    hd = h.data
    num_rows, ent_dim = hd.shape
    time_dim = w_t.data.shape[0]
    dval = np.asarray(float(interval), dtype=w_t.data.dtype)
    pre = w_t.data * dval + b_t.data
    phi = np.cos(pre)
    tiled = np.broadcast_to(phi.reshape(1, time_dim), (num_rows, time_dim))
    cat = np.concatenate([hd, tiled], axis=-1)
    out_data = cat @ w_fuse.data

    def backward(grad: np.ndarray) -> None:
        if w_fuse.requires_grad:
            w_fuse._accumulate(cat.T @ grad)
        g_cat = grad @ w_fuse.data.T
        if h.requires_grad:
            h._accumulate(g_cat[:, :ent_dim])
        g_phi = g_cat[:, ent_dim:].sum(axis=0)
        g_pre = -np.sin(pre) * g_phi
        if w_t.requires_grad:
            w_t._accumulate(g_pre * dval)
        if b_t.requires_grad:
            b_t._accumulate(g_pre)

    return Tensor._make(out_data, (h, w_t, b_t, w_fuse), backward)


def fused_query_key(base: Tensor, relations: Tensor,
                    query_subjects: np.ndarray,
                    query_relations: np.ndarray, w4: Tensor,
                    dim: int) -> Tensor:
    """Query-aware entity key (Eq. 9) as a single autodiff node.

    ``W_4 [segment_mean(r[q_rel] by q_subj) || h]``
    (``repro.core.attention.QueryKeyBuilder``).
    """
    bd, rd = base.data, relations.data
    num_entities = bd.shape[0]
    num_queries = len(query_subjects)
    if num_queries > 0:
        rel_rows = rd[query_relations]
        counts = np.maximum(
            segment_counts(query_subjects, num_entities).astype(rd.dtype), 1.0)
        inv = 1.0 / counts
        total = _scatter_add_rows(query_subjects, rel_rows, num_entities)
        rel_context = total * inv[:, None]
    else:
        inv = None
        rel_context = np.zeros((num_entities, dim), dtype=bd.dtype)
    cat = np.concatenate([rel_context, bd], axis=-1)
    out_data = cat @ w4.data

    def backward(grad: np.ndarray) -> None:
        if w4.requires_grad:
            w4._accumulate(cat.T @ grad)
        g_cat = grad @ w4.data.T
        if base.requires_grad:
            base._accumulate(g_cat[:, dim:])
        if relations.requires_grad and num_queries > 0:
            g_rows = (g_cat[:, :dim] * inv[:, None])[query_subjects]
            relations._accumulate(
                _scatter_add_rows(query_relations, g_rows, rd.shape[0]))

    return Tensor._make(out_data, (base, relations, w4), backward)


def fused_local_attention(evolved: Tensor, snapshot_aggs: Sequence[Tensor],
                          query_key: Tensor, w5: Tensor) -> Tensor:
    """Additive snapshot attention (Eq. 10-11) as a single autodiff node.

    Scores every snapshot aggregate against the query key, softmaxes
    across the window and adds the weighted sum to ``evolved``
    (``LocalEntityAwareAttention`` with the additive score; the
    dot-score variant stays on the generic ops).
    """
    keyd = query_key.data
    aggs = [a.data for a in snapshot_aggs]
    sums = [a + keyd for a in aggs]
    score_mat = np.concatenate([s @ w5.data for s in sums], axis=-1)
    shifted = score_mat - score_mat.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    alpha = exp / exp.sum(axis=-1, keepdims=True)
    # ``(stack(aggs, 1) * alpha[:, :, None]).sum(axis=1)`` without the
    # (N, m, d) stack: numpy reduces that axis from zero in order, which
    # the running ``total`` repeats product by product.
    total = np.zeros(aggs[0].shape, dtype=np.result_type(aggs[0], alpha))
    product = np.empty_like(total)
    for i, agg in enumerate(aggs):
        total += np.multiply(agg, alpha[:, i:i + 1], out=product)
    out_data = np.add(evolved.data, total, out=total)

    def backward(grad: np.ndarray) -> None:
        stacked = np.stack(aggs, axis=1)
        if evolved.requires_grad:
            evolved._accumulate(grad)
        g_stacked = alpha[:, :, None] * grad[:, None, :]
        g_alpha = (stacked * grad[:, None, :]).sum(axis=-1)
        dot = (g_alpha * alpha).sum(axis=-1, keepdims=True)
        g_score = alpha * (g_alpha - dot)                       # (N, m)
        if w5.requires_grad:
            w5._accumulate(np.einsum("nid,ni->d", np.stack(sums, axis=1),
                                     g_score)[:, None])
        g_pre = g_score[:, :, None] * w5.data[:, 0][None, None, :]
        if query_key.requires_grad:
            query_key._accumulate(g_pre.sum(axis=1))
        for i, agg in enumerate(snapshot_aggs):
            if agg.requires_grad:
                agg._accumulate(g_stacked[:, i, :] + g_pre[:, i, :])

    parents = (evolved, query_key, w5) + tuple(snapshot_aggs)
    return Tensor._make(out_data, parents, backward)


def fused_global_gate(global_agg: Tensor, query_key: Tensor,
                      w6: Tensor) -> Tensor:
    """Global attention gate (Eq. 13-14) as a single autodiff node.

    ``beta = sigmoid((agg + key) @ w6); out = agg * beta`` — the fused
    form of ``GlobalEntityAwareAttention.forward``.
    """
    aggd, keyd = global_agg.data, query_key.data
    summed = aggd + keyd
    beta = 1.0 / (1.0 + np.exp(-(summed @ w6.data)))
    out_data = aggd * beta

    def backward(grad: np.ndarray) -> None:
        g_beta = (grad * aggd).sum(axis=-1, keepdims=True)
        g_pre = g_beta * beta * (1.0 - beta)
        if w6.requires_grad:
            w6._accumulate(summed.T @ g_pre)
        g_sum = g_pre @ w6.data.T
        if global_agg.requires_grad:
            global_agg._accumulate(grad * beta + g_sum)
        if query_key.requires_grad:
            query_key._accumulate(g_sum)

    return Tensor._make(out_data, (global_agg, query_key, w6), backward)


def fused_convtranse(subjects: Tensor, relations: Tensor, candidates: Tensor,
                     conv_w: Tensor, conv_b: Tensor, fc_w: Tensor,
                     fc_b: Tensor, *, training: bool = False,
                     dropout_rate: float = 0.0,
                     rng: Optional[np.random.Generator] = None,
                     subject_index: Optional[np.ndarray] = None,
                     relation_index: Optional[np.ndarray] = None) -> Tensor:
    """The whole ConvTransE scoring chain (Eq. 18) as one autodiff node.

    stack -> dropout -> conv1d(same) -> relu -> dropout -> fc -> relu ->
    dropout -> candidate dot products, replicating
    ``repro.core.decoder.ConvTransE.transform(...) @ candidates.T``
    (including its three dropout RNG draws, in order) with one backward
    closure.  When
    ``subject_index`` / ``relation_index`` are given, ``subjects`` /
    ``relations`` are full embedding matrices and the per-query row
    gather (plus its scatter-add backward) folds into this node too.
    """
    sd, rd = subjects.data, relations.data
    if subject_index is not None:
        sd = sd[subject_index]
    if relation_index is not None:
        rd = rd[relation_index]
    num_q, dim = sd.shape
    num_k, _, kw = conv_w.shape
    drop = training and dropout_rate > 0.0
    keep = 1.0 - dropout_rate
    if drop:
        rng = rng or np.random.default_rng()

    # Stack the two rows straight into the zero-padded conv input.
    pad_left = (kw - 1) // 2
    padded = np.zeros((num_q, 2, dim + kw - 1), dtype=np.result_type(sd, rd))
    x = padded[:, :, pad_left:pad_left + dim]                  # (Q, 2, d)
    x[:, 0] = sd
    x[:, 1] = rd
    if drop:
        mask1 = (rng.random(x.shape) < keep).astype(x.dtype) / keep
        x *= mask1
    cols = np.lib.stride_tricks.sliding_window_view(padded, kw, axis=2)
    cols = cols.transpose(0, 2, 1, 3).reshape(num_q * dim, 2 * kw)
    w2 = conv_w.data.reshape(num_k, 2 * kw)
    # The bias add reads the (Q, d, K) conv output through a transposed
    # view and writes C-order (Q, K, d) memory in the same pass (cheaper
    # than any separate transpose copy); ReLU and the feature-map dropout
    # then run in place, ``flat`` is a free reshape and the backward's
    # masks are contiguous.  Same values as the strided-view
    # expressions.  The conv output is dropped before the (Q, |E|)
    # scores are allocated.
    act1 = np.add((cols @ w2.T).reshape(num_q, dim, num_k).transpose(0, 2, 1),
                  conv_b.data[:, None], order="C")             # (Q, K, d)
    np.maximum(act1, 0.0, out=act1)
    if drop:
        mask2 = (rng.random(act1.shape) < keep).astype(act1.dtype) / keep
        act1 *= mask2
    flat = act1.reshape(num_q, num_k * dim)
    pre2 = flat @ fc_w.data                                    # (Q, d)
    pre2 += fc_b.data
    act2 = np.maximum(pre2, 0.0)
    if drop:
        mask3 = (rng.random(act2.shape) < keep).astype(act2.dtype) / keep
        act2 *= mask3
    out_data = act2 @ candidates.data.T                        # (Q, |E|)

    def backward(grad: np.ndarray) -> None:
        if candidates.requires_grad:
            candidates._accumulate(grad.T @ act2)
        g = grad @ candidates.data
        if drop:
            g = g * mask3
        g = g * (pre2 > 0)
        if fc_w.requires_grad:
            fc_w._accumulate(flat.T @ g)
        if fc_b.requires_grad:
            fc_b._accumulate(g.sum(axis=0))
        g = (g @ fc_w.data.T).reshape(num_q, num_k, dim)      # fresh array
        if drop:
            g *= mask2
        # ReLU derivative: act1 > 0 exactly where the pre-activation is
        # (a dropout scale is positive, and dropped entries are zero in g).
        g *= act1 > 0
        if conv_b.requires_grad:
            conv_b._accumulate(g.sum(axis=(0, 2)))
        g2 = g.transpose(0, 2, 1).reshape(num_q * dim, num_k)
        if conv_w.requires_grad:
            conv_w._accumulate((g2.T @ cols).reshape(num_k, 2, kw))
        gcols = (g2 @ w2).reshape(num_q, dim, 2, kw).transpose(0, 2, 1, 3)
        gpad = np.zeros_like(padded)
        for j in range(kw):
            gpad[:, :, j:j + dim] += gcols[:, :, :, j]
        gx = gpad[:, :, pad_left:pad_left + dim]
        if drop:
            gx = gx * mask1
        if subjects.requires_grad:
            g_subj = gx[:, 0]
            if subject_index is not None:
                g_subj = _scatter_add_rows(subject_index, g_subj,
                                           subjects.data.shape[0])
            subjects._accumulate(g_subj)
        if relations.requires_grad:
            g_rel = gx[:, 1]
            if relation_index is not None:
                g_rel = _scatter_add_rows(relation_index, g_rel,
                                          relations.data.shape[0])
            relations._accumulate(g_rel)

    return Tensor._make(out_data, (subjects, relations, candidates, conv_w,
                                   conv_b, fc_w, fc_b), backward)


def _l2_rows(z: np.ndarray, eps: float = 1e-12):
    """Forward of :func:`l2_normalize` on raw arrays (+ backward state)."""
    norm = np.sqrt((z ** 2).sum(axis=-1, keepdims=True))
    degenerate = norm < eps
    safe = np.maximum(norm, eps)
    out = z / safe
    _zero_degenerate(out, degenerate)
    return out, degenerate, safe


def _l2_rows_backward(grad, out, degenerate, safe):
    dot = (grad * out).sum(axis=-1, keepdims=True)
    g = grad - out * dot
    g /= safe
    _zero_degenerate(g, degenerate)
    return g


def fused_query_contrast(local_agg: Tensor, local_rel: Tensor,
                         global_agg: Tensor, global_rel: Tensor,
                         query_subjects: np.ndarray,
                         query_relations: np.ndarray,
                         local_head: Sequence[Tensor],
                         global_head: Sequence[Tensor],
                         temperature: float,
                         strategies: Sequence[str]) -> Tensor:
    """The full query-contrast loss (Eq. 15-17) as one autodiff node.

    Projects both query views through their two-layer tanh MLP heads,
    L2-normalizes, and averages the enabled InfoNCE strategies
    (``repro.nn.functional.info_nce``) — the loss of
    ``QueryContrastModule``.  ``local_head`` / ``global_head`` are the
    flattened ``(w1, b1, w2, b2)`` parameters of each projection MLP.
    """
    lw1, lb1, lw2, lb2 = local_head
    gw1, gb1, gw2, gb2 = global_head
    num_q = len(query_subjects)
    dim = local_agg.data.shape[1]
    if num_q < 2:
        return Tensor(np.zeros((), dtype=local_agg.data.dtype))

    def project(agg, rel, w1, b1, w2, b2):
        feats = np.concatenate([agg.data[query_subjects],
                                rel.data[query_relations]], axis=-1)
        t1 = np.tanh(feats @ w1.data + b1.data)
        z = t1 @ w2.data + b2.data
        zn, degenerate, safe = _l2_rows(z)
        return feats, t1, zn, degenerate, safe

    feats_l, t1_l, z_l, deg_l, safe_l = project(local_agg, local_rel,
                                                lw1, lb1, lw2, lb2)
    feats_g, t1_g, z_g, deg_g, safe_g = project(global_agg, global_rel,
                                                gw1, gb1, gw2, gb2)

    pairs = {"lg": (z_l, z_g), "gl": (z_g, z_l),
             "ll": (z_l, z_l), "gg": (z_g, z_g)}
    inv_temp = np.asarray(1.0 / temperature, dtype=z_l.dtype)
    diag = np.arange(num_q)
    terms = []
    total = None
    for name in strategies:
        anchor, cand = pairs[name]
        sims = (anchor @ cand.T) * inv_temp
        shifted = sims - sims.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_p = shifted - log_sum
        loss = -(log_p[diag, diag].mean())
        terms.append((name, np.exp(log_p)))
        total = loss if total is None else total + loss
    scale = np.asarray(1.0 / len(strategies), dtype=total.dtype)
    out_data = total * scale

    def backward(grad: np.ndarray) -> None:
        factor = grad * scale * inv_temp / num_q
        g_zl = np.zeros_like(z_l)
        g_zg = np.zeros_like(z_g)
        grads = {"l": g_zl, "g": g_zg}
        views = {"l": z_l, "g": z_g}
        for name, soft in terms:
            g_sims = soft * factor
            g_sims[diag, diag] -= factor
            grads[name[0]] += g_sims @ views[name[1]]
            grads[name[1]] += g_sims.T @ views[name[0]]

        def unproject(g_z, zn, degenerate, safe, t1, feats,
                      agg, rel, w1, b1, w2, b2):
            g = _l2_rows_backward(g_z, zn, degenerate, safe)
            if w2.requires_grad:
                w2._accumulate(t1.T @ g)
            if b2.requires_grad:
                b2._accumulate(g.sum(axis=0))
            g_h = (g @ w2.data.T) * (1.0 - t1 * t1)
            if w1.requires_grad:
                w1._accumulate(feats.T @ g_h)
            if b1.requires_grad:
                b1._accumulate(g_h.sum(axis=0))
            g_f = g_h @ w1.data.T
            if agg.requires_grad:
                agg._accumulate(_scatter_add_rows(
                    query_subjects, g_f[:, :dim], agg.data.shape[0]))
            if rel.requires_grad:
                rel._accumulate(_scatter_add_rows(
                    query_relations, g_f[:, dim:], rel.data.shape[0]))

        unproject(g_zl, z_l, deg_l, safe_l, t1_l, feats_l,
                  local_agg, local_rel, lw1, lb1, lw2, lb2)
        unproject(g_zg, z_g, deg_g, safe_g, t1_g, feats_g,
                  global_agg, global_rel, gw1, gb1, gw2, gb2)

    return Tensor._make(out_data, (local_agg, local_rel, global_agg,
                                   global_rel, lw1, lb1, lw2, lb2,
                                   gw1, gb1, gw2, gb2), backward)


def fused_blend(a: Tensor, b: Tensor, weight_a: float) -> Tensor:
    """``a * w + b * (1 - w)`` (Eq. 19's λ-fusion) as one autodiff node."""
    wa = np.asarray(weight_a, dtype=a.data.dtype)
    wb = np.asarray(1.0 - weight_a, dtype=a.data.dtype)
    out_data = a.data * wa + b.data * wb

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * wa)
        if b.requires_grad:
            b._accumulate(grad * wb)

    return Tensor._make(out_data, (a, b), backward)


def fused_multilabel_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy against normalized multi-hot rows (Eq. 20).

    One autodiff node for the log-softmax / weight / reduce chain
    behind ``repro.nn.functional.multilabel_soft_loss``.
    """
    data = logits.data
    shifted = data - data.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_sum
    weights = labels / np.maximum(labels.sum(axis=-1, keepdims=True), 1.0)
    weights = weights.astype(data.dtype)
    out_data = -((log_p * weights).sum(axis=-1).mean())

    def backward(grad: np.ndarray) -> None:
        g_logp = weights * (-grad / data.shape[0])
        soft = np.exp(log_p)
        logits._accumulate(g_logp - soft * g_logp.sum(axis=-1, keepdims=True))

    return Tensor._make(out_data, (logits,), backward)
