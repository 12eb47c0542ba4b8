"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every op is a module function (a Tensor has no arithmetic operators) and
validates that its output is finite; a NaN/Inf anywhere raises
FloatingPointError at the op boundary rather than propagating silently.
Gradients are accumulated into ``Tensor.grad`` numpy buffers by ``backward``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_GRAD_ENABLED = True

MASK_VALUE = -1e30  # additive attention mask; exp underflows to exactly 0
LN_EPS = 1e-5  # added to the variance in layer_norm

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class no_grad:
    """Context manager that disables graph recording (forward values unchanged)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _assert_finite(arr: np.ndarray, ctx: str) -> None:
    # single-pass check: the sum is finite iff every entry is finite
    # (magnitudes in this codebase never overflow a float64 sum)
    if not math.isfinite(arr.sum()):
        raise FloatingPointError(f"non-finite values in {ctx}")


class Tensor:
    """Dense float64 array plus an optional backward closure linking parents."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _assert_finite(self.data, "tensor constructor")
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into t's grad buffer.

    fresh=True promises g is a newly allocated array owned by the caller, so
    the first accumulation can adopt it without a defensive copy; pass-through
    gradients (views or aliases of an upstream buffer) must copy.
    """
    if t.grad is None:
        t.grad = g if fresh else np.array(g)
    else:
        t.grad += g


def _from_op(data: np.ndarray, parents, backward_fn, ctx: str) -> Tensor:
    _assert_finite(data, ctx)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    # an op's output needs a gradient iff a parent does, and then it has a
    # closure; so requires_grad alone says whether backward must reach a node
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a broadcasted gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise binary ops ------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga, fresh=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            _accum(b, gb, fresh=gb is not g)

    return _from_op(a.data + b.data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga, fresh=ga is not g)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape), fresh=True)

    return _from_op(a.data - b.data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _from_op(a.data * b.data, (a, b), bw, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape), fresh=True)

    return _from_op(a.data / b.data, (a, b), bw, "div")


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * take_a, a.data.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * ~take_a, b.data.shape), fresh=True)

    return _from_op(np.where(take_a, a.data, b.data), (a, b), bw, "minimum")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    a = as_tensor(a)
    inner = (a.data > lo) & (a.data < hi)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * inner, fresh=True)

    return _from_op(np.clip(a.data, lo, hi), (a,), bw, "clip")


# -- elementwise unary ops --------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * out_data, fresh=True)

    return _from_op(out_data, (a,), bw, "exp")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * 0.5 / out_data, fresh=True)

    return _from_op(out_data, (a,), bw, "sqrt")


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """The Gaussian CDF Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), one new buffer
    updated in place."""
    phi = x * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF (not the tanh approximation)."""
    a = as_tensor(a)
    x = a.data
    phi = normal_cdf(x)

    def bw(g):
        if a.requires_grad:
            # g * (phi + x * pdf(x)), pdf(x) = exp(-x^2 / 2) / sqrt(2 pi)
            t = x * -0.5
            t *= x
            np.exp(t, out=t)
            t *= _INV_SQRT2PI
            t *= x
            t += phi
            t *= g
            _accum(a, t, fresh=True)

    return _from_op(x * phi, (a,), bw, "gelu")


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(old))

    return _from_op(a.data.reshape(shape), (a,), bw, "reshape")


def take_rows(a, idx: np.ndarray) -> Tensor:
    """Gather rows along the first axis by an integer index array."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _from_op(a.data[idx], (a,), bw, "take_rows")


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(p, g[tuple(sl)])

    return _from_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw, "concat")


# -- reductions --------------------------------------------------------------


def sum_(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shp = a.data.shape

    def bw(g):
        if a.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, shp).copy(), fresh=True)

    return _from_op(np.sum(a.data, axis=axis), (a,), bw, "sum")


def mean_(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shp = a.data.shape
    n = a.data.size if axis is None else np.prod([shp[ax] for ax in np.atleast_1d(axis)])

    def bw(g):
        if a.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g / n, shp).copy(), fresh=True)

    return _from_op(np.mean(a.data, axis=axis), (a,), bw, "mean")


# -- neural-net primitives ---------------------------------------------------


def row_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for rows a [n, d], each row equal to the bits it has in any other
    row count.  numpy runs a 1-row product as a GEMV, which sums in another
    order than a GEMM row does, so a 1-row a goes through a 2-row GEMM: a
    stream then decodes to the same bits alone, in a group, or in a chunk."""
    if len(a) == 1:
        return (np.concatenate((a, a)) @ w)[:1]
    return a @ w


def affine(x, w, b=None) -> Tensor:
    """Fused x @ w + b for a [d, n] matrix w (b, if given, broadcast over the
    leading axes).

    The leading axes of x are folded into rows, so the product and the input
    gradient are one GEMM each rather than one per batch entry.
    """
    x, w = as_tensor(x), as_tensor(w)
    rows = x.data.reshape(-1, x.data.shape[-1])
    out = row_product(rows, w.data)
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        out += b.data
        parents = (x, w, b)

    def bw(g):
        if x.requires_grad:
            _accum(x, (g.reshape(len(rows), -1) @ w.data.T).reshape(x.data.shape), fresh=True)
        if w.requires_grad:
            # one product per batch entry, summed after: folding the rows here
            # would change the order in which the weight gradient is summed
            _accum(w, _unbroadcast(x.data.swapaxes(-1, -2) @ g, w.data.shape), fresh=True)
        if b is not None and b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape), fresh=True)

    return _from_op(out.reshape(x.data.shape[:-1] + out.shape[1:]), parents, bw, "affine")


def mixed_embed(table, pos_table, ids: np.ndarray, text_mask: np.ndarray,
                latents: np.ndarray, start: int = 0) -> Tensor:
    """Fused sequence embedding: token rows where text_mask is set, raw latent
    vectors elsewhere, plus position-table rows start..start+L."""
    table, pos_table = as_tensor(table), as_tensor(pos_table)
    L = ids.shape[-1]
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError("token id outside the embedding table")
    m = text_mask[..., None]
    out_data = table.data[ids] * m + latents + pos_table.data[start : start + L]

    def bw(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.ravel(), (g * m).reshape(-1, table.data.shape[1]))
        if pos_table.requires_grad:
            if pos_table.grad is None:
                pos_table.grad = np.zeros_like(pos_table.data)
            pos_table.grad[start : start + L] += g.reshape(-1, L, g.shape[-1]).sum(axis=0)

    return _from_op(out_data, (table, pos_table), bw, "mixed_embed")


# Scores per block of the batch axis in attention: forward and backward run
# block by block so that one block's [heads, L, start + L] score arrays stay in
# L2 cache instead of streaming the whole batch's through memory each pass.
ATTN_BLOCK = 1 << 18

_MASKS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _masks(n: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Additive causal mask [n, start + n] and its 0/1 keep-mask."""
    m = _MASKS.get((n, start))
    if m is None:
        add = np.triu(np.full((n, start + n), MASK_VALUE), k=start + 1)
        m = _MASKS[(n, start)] = (add, (add == 0.0).astype(np.float64))
    return m


def _split_heads(qkv: np.ndarray, heads: int) -> np.ndarray:
    """[B, L, 3d] q|k|v rows -> [3, B, heads, L, hd]."""
    B, L, d3 = qkv.shape
    return np.ascontiguousarray(qkv.reshape(B, L, 3, heads, d3 // (3 * heads)).transpose(2, 0, 3, 1, 4))


def attention(qkv, heads: int, prefix=None, start: int = 0):
    """Fused causal multi-head attention over the [B, L, 3d] q|k|v projection.

    Returns the context [B, L, d] (heads side by side) and the post-softmax
    weights [B, heads, L, start + L] as a plain array.  The queries may
    attend over a prefix of earlier positions, in one of two forms:

    - a Tensor [B, P, 3d], the q|k|v rows of an earlier call over
      positions 0..P (start is then P).  Backward sends the key and value
      gradients of those positions into it.
    - one layer's decode-cache buffers (transposed keys [B, heads, hd,
      max_len], values [B, heads, max_len, hd]).  This call's keys and values
      are written at positions start..start+L and its queries attend over
      0..start+L.  Cached positions are constants: backward reaches only
      this call's rows.

    Forward and backward run over blocks of ATTN_BLOCK scores along the
    batch axis; each block makes the same per-matrix products and per-row
    reductions as the whole batch would, so the values do not depend on it.
    """
    qkv = as_tensor(qkv)
    B, L, d3 = qkv.data.shape
    hd = d3 // (3 * heads)
    q, k, v = _split_heads(qkv.data, heads)
    parents = (qkv,)
    if prefix is None:
        kt, vals = np.ascontiguousarray(k.swapaxes(-1, -2)), v
    elif isinstance(prefix, Tensor):
        parents = (qkv, prefix)
        start = prefix.data.shape[1]
        _, pk, pv = _split_heads(prefix.data, heads)
        kt = np.concatenate([pk.swapaxes(-1, -2), k.swapaxes(-1, -2)], axis=-1)
        vals = np.concatenate([pv, v], axis=-2)
    else:
        kt_buf, v_buf = prefix
        kt_buf[..., start : start + L] = k.swapaxes(-1, -2)
        v_buf[:, :, start : start + L] = v
        kt, vals = kt_buf[..., : start + L], v_buf[:, :, : start + L]
    scale = 1.0 / np.sqrt(hd)
    mask, keep = _masks(L, start)
    per = max(1, ATTN_BLOCK // max(heads * L * (start + L), 1))  # examples per block
    blocks = [slice(b0, b0 + per) for b0 in range(0, B, per)]
    s = np.empty((B, heads, L, start + L))
    ctx = np.empty((B, L, heads, hd))
    for blk in blocks:
        sb = s[blk]
        np.matmul(q[blk], kt[blk], out=sb)
        sb *= scale
        sb += mask
        sb -= np.max(sb, axis=-1, keepdims=True)
        # masked entries go -0.0 -> exp 1.0 -> +0.0, which is exp(MASK_VALUE),
        # without the slow path np.exp takes on huge negative inputs
        sb *= keep
        np.exp(sb, out=sb)
        sb *= keep
        sb /= np.sum(sb, axis=-1, keepdims=True)
        ctx[blk] = (sb @ vals[blk]).swapaxes(1, 2)

    def bw(g):
        gh = g.reshape(B, L, heads, hd).swapaxes(1, 2)
        to_qkv = qkv.requires_grad
        to_prefix = len(parents) == 2 and prefix.requires_grad
        if to_qkv:
            out = np.empty((B, L, 3, heads, hd))
        if to_prefix:
            pout = np.zeros((B, start, 3, heads, hd))
        for blk in blocks:
            sb, ghb = s[blk], gh[blk]
            gs = ghb @ vals[blk].swapaxes(-1, -2)
            gv = sb.swapaxes(-1, -2) @ ghb
            gs -= np.sum(gs * sb, axis=-1, keepdims=True)
            gs *= sb
            gs *= scale
            gkt = q[blk].swapaxes(-1, -2) @ gs
            if to_qkv:
                out[blk, :, 0] = (gs @ kt[blk].swapaxes(-1, -2)).swapaxes(1, 2)
                out[blk, :, 1] = gkt[..., start:].transpose(0, 3, 1, 2)
                out[blk, :, 2] = gv[:, :, start:].swapaxes(1, 2)
            if to_prefix:
                pout[blk, :, 1] = gkt[..., :start].transpose(0, 3, 1, 2)
                pout[blk, :, 2] = gv[:, :, :start].swapaxes(1, 2)
        if to_qkv:
            _accum(qkv, out.reshape(B, L, d3), fresh=True)
        if to_prefix:
            _accum(prefix, pout.reshape(B, start, d3), fresh=True)

    return _from_op(ctx.reshape(B, L, d3 // 3), parents, bw, "attention"), s


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    # add.reduce / n is np.mean's arithmetic without its per-call overhead;
    # the passes below update two [..., n] buffers in place
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xhat = x.data - mu
    out = xhat * xhat
    r = np.add.reduce(out, axis=-1, keepdims=True)
    r /= n
    r += LN_EPS
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)
    xhat *= r
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def bw(g):
        t = None
        if gamma.requires_grad:
            t = g * xhat
            _accum(gamma, t.reshape(-1, n).sum(axis=0), fresh=True)
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, n).sum(axis=0), fresh=True)
        if x.requires_grad:
            # r * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gamma
            gx = g * gamma.data
            t = np.multiply(gx, xhat, out=t)
            m = np.add.reduce(t, axis=-1, keepdims=True)
            m /= n
            np.multiply(xhat, m, out=t)
            m = np.add.reduce(gx, axis=-1, keepdims=True)
            m /= n
            gx -= m
            gx -= t
            gx *= r
            _accum(x, gx, fresh=True)

    return _from_op(out, (x, gamma, beta), bw, "layer_norm")


def cross_entropy(logits, targets) -> Tensor:
    """Per-row negative log-likelihood of integer targets; shape [...] from [..., V]."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    m = np.max(logits.data, axis=-1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    logp = z - lse
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]

    def bw(g):
        if logits.requires_grad:
            p = np.exp(logp)
            np.put_along_axis(p, targets[..., None], np.take_along_axis(p, targets[..., None], axis=-1) - 1.0, axis=-1)
            _accum(logits, p * g[..., None], fresh=True)

    return _from_op(-picked, (logits,), bw, "cross_entropy")


# -- reverse pass -------------------------------------------------------------


def _spent(g):
    """Stands in for the closure of a node that backward has consumed."""
    raise RuntimeError("backward through a graph that an earlier backward consumed")


def backward(loss: Tensor, store=None) -> None:
    """Reverse-propagate from a scalar loss; optionally zero-fill untouched params.

    The walk consumes the graph: once a node's closure has run, the node
    lets go of the closure (and the activations it saved), of its parent
    links and, unless it is the loss or a leaf, of its gradient.  So the
    memory of each intermediate is freed as soon as backward is done with
    it, and only the leaves' and the loss's gradients remain.  A consumed
    node raises RuntimeError when a later backward reaches it, whether from
    the same loss or from a new graph built on top of it.

    When ``store`` (a ParamStore) is given, every requires_grad entry that the
    graph never reached gets an all-zero grad buffer.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _spent:
            _spent(None)  # refuse before any gradient moves
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                stack.append((p, False))
    leaves = [node for node in topo if node._backward is None]
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()  # post-order, so the loss comes first
        if node._backward is None:
            continue
        node._backward(node.grad)
        node._backward = _spent
        node._parents = ()
        if node is not loss:
            node.grad = None
    # NaN/Inf anywhere upstream necessarily reaches a leaf, so checking leaves
    # catches every non-finite reverse-pass value with a single pass
    for node in leaves:
        if node.grad is not None and not np.isfinite(np.sum(node.grad)):
            raise FloatingPointError("NaN encountered during reverse pass")
    if store is not None:
        for t in store.entries.values():
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)
