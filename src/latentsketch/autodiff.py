"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every op validates that its output is finite; a NaN/Inf anywhere raises
FloatingPointError at the op boundary rather than propagating silently.
Gradients are accumulated into ``Tensor.grad`` numpy buffers by ``backward``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_GRAD_ENABLED = True

MASK_VALUE = -1e30  # additive attention mask; exp underflows to exactly 0

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

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])


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


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _from_op(data: np.ndarray, parents, backward_fn, ctx: str) -> Tensor:
    _assert_finite(data, ctx)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED and any(_needs(p) for p in parents):
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
        if _needs(a):
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga, fresh=ga is not g)
        if _needs(b):
            gb = _unbroadcast(g, b.data.shape)
            _accum(b, gb, fresh=gb is not g)

    return _from_op(a.data + b.data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if _needs(a):
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga, fresh=ga is not g)
        if _needs(b):
            _accum(b, _unbroadcast(-g, b.data.shape), fresh=True)

    return _from_op(a.data - b.data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
        if _needs(b):
            _accum(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _from_op(a.data * b.data, (a, b), bw, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g / b.data, a.data.shape), fresh=True)
        if _needs(b):
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape), fresh=True)

    return _from_op(a.data / b.data, (a, b), bw, "div")


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g * take_a, a.data.shape), fresh=True)
        if _needs(b):
            _accum(b, _unbroadcast(g * ~take_a, b.data.shape), fresh=True)

    return _from_op(np.where(take_a, a.data, b.data), (a, b), bw, "minimum")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    a = as_tensor(a)
    inner = (a.data > lo) & (a.data < hi)

    def bw(g):
        if _needs(a):
            _accum(a, g * inner, fresh=True)

    return _from_op(np.clip(a.data, lo, hi), (a,), bw, "clip")


# -- elementwise unary ops --------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        if _needs(a):
            _accum(a, g * out_data, fresh=True)

    return _from_op(out_data, (a,), bw, "exp")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def bw(g):
        if _needs(a):
            _accum(a, g * 0.5 / out_data, fresh=True)

    return _from_op(out_data, (a,), bw, "sqrt")


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF (not the tanh approximation)."""
    a = as_tensor(a)
    phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))

    def bw(g):
        if _needs(a):
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
            _accum(a, g * (phi + a.data * pdf), fresh=True)

    return _from_op(a.data * phi, (a,), bw, "gelu")


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def bw(g):
        if _needs(a):
            _accum(a, g.reshape(old))

    return _from_op(a.data.reshape(shape), (a,), bw, "reshape")


def getitem(a, key) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if _needs(a):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, key, g)

    return _from_op(np.array(a.data[key]), (a,), bw, "getitem")


def take_rows(a, idx: np.ndarray) -> Tensor:
    """Gather rows along the first axis by an integer index array."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        if _needs(a):
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
            if _needs(p):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(p, g[tuple(sl)])

    return _from_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw, "concat")


# -- reductions --------------------------------------------------------------


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shp = a.data.shape

    def bw(g):
        if _needs(a):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, shp).copy(), fresh=True)

    return _from_op(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), bw, "sum")


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shp = a.data.shape
    n = a.data.size if axis is None else np.prod([shp[ax] for ax in np.atleast_1d(axis)])

    def bw(g):
        if _needs(a):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g / n, shp).copy(), fresh=True)

    return _from_op(np.mean(a.data, axis=axis, keepdims=keepdims), (a,), bw, "mean")


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires operands of rank >= 2")

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape), fresh=True)
        if _needs(b):
            _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape), fresh=True)

    return _from_op(a.data @ b.data, (a, b), bw, "matmul")


# -- neural-net primitives ---------------------------------------------------


def affine(x, w, b) -> Tensor:
    """Fused x @ w + b (b broadcast over the leading axes)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def bw(g):
        if _needs(x):
            _accum(x, _unbroadcast(g @ w.data.swapaxes(-1, -2), x.data.shape), fresh=True)
        if _needs(w):
            _accum(w, _unbroadcast(x.data.swapaxes(-1, -2) @ g, w.data.shape), fresh=True)
        if _needs(b):
            _accum(b, _unbroadcast(g, b.data.shape), fresh=True)

    return _from_op(x.data @ w.data + b.data, (x, w, b), bw, "affine")


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
        if _needs(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.ravel(), (g * m).reshape(-1, table.data.shape[1]))
        if _needs(pos_table):
            if pos_table.grad is None:
                pos_table.grad = np.zeros_like(pos_table.data)
            pos_table.grad[start : start + L] += g.reshape(-1, L, g.shape[-1]).sum(axis=0)

    return _from_op(out_data, (table, pos_table), bw, "mixed_embed")


_MASKS: dict[tuple[int, int], np.ndarray] = {}


def causal_mask(n: int, start: int = 0) -> np.ndarray:
    """Additive mask [n, start + n]: query row j sees key columns 0..start + j."""
    m = _MASKS.get((n, start))
    if m is None:
        m = _MASKS[(n, start)] = np.triu(np.full((n, start + n), MASK_VALUE), k=start + 1)
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
    s = q @ kt
    s *= scale
    s += causal_mask(L, start)
    s -= np.max(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.sum(s, axis=-1, keepdims=True)

    def bw(g):
        gh = g.reshape(B, L, heads, hd).swapaxes(1, 2)
        gs = gh @ vals.swapaxes(-1, -2)
        gv = s.swapaxes(-1, -2) @ gh
        gs = scale * (s * (gs - np.sum(gs * s, axis=-1, keepdims=True)))
        gkt = q.swapaxes(-1, -2) @ gs
        if _needs(qkv):
            out = np.empty((B, L, 3, heads, hd))
            out[:, :, 0] = (gs @ kt.swapaxes(-1, -2)).swapaxes(1, 2)
            out[:, :, 1] = gkt[..., start:].transpose(0, 3, 1, 2)
            out[:, :, 2] = gv[:, :, start:].swapaxes(1, 2)
            _accum(qkv, out.reshape(B, L, d3), fresh=True)
        if len(parents) == 2 and _needs(prefix):
            out = np.zeros((B, start, 3, heads, hd))
            out[:, :, 1] = gkt[..., :start].transpose(0, 3, 1, 2)
            out[:, :, 2] = gv[:, :, :start].swapaxes(1, 2)
            _accum(prefix, out.reshape(B, start, d3), fresh=True)

    ctx = (s @ vals).swapaxes(1, 2).reshape(B, L, d3 // 3)
    return _from_op(ctx, parents, bw, "attention"), s


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    # add.reduce / n is np.mean's arithmetic without its per-call overhead
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    r = 1.0 / np.sqrt(var + eps)
    xhat = xc * r

    def bw(g):
        if _needs(gamma):
            _accum(gamma, (g * xhat).reshape(-1, n).sum(axis=0), fresh=True)
        if _needs(beta):
            _accum(beta, g.reshape(-1, n).sum(axis=0), fresh=True)
        if _needs(x):
            gx = g * gamma.data
            _accum(x, r * (gx - np.add.reduce(gx, axis=-1, keepdims=True) / n
                           - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n)), fresh=True)

    return _from_op(xhat * gamma.data + beta.data, (x, gamma, beta), bw, "layer_norm")


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
        if _needs(logits):
            p = np.exp(logp)
            np.put_along_axis(p, targets[..., None], np.take_along_axis(p, targets[..., None], axis=-1) - 1.0, axis=-1)
            _accum(logits, p * g[..., None], fresh=True)

    return _from_op(-picked, (logits,), bw, "cross_entropy")


def mse(pred, target) -> Tensor:
    """Mean over all entries of the squared difference."""
    pred, target = as_tensor(pred), as_tensor(target)
    diff = pred.data - target.data
    n = diff.size

    def bw(g):
        scaled = (2.0 / n) * diff * g
        if _needs(pred):
            _accum(pred, scaled, fresh=True)
        if _needs(target):
            _accum(target, -scaled, fresh=True)

    return _from_op(np.array(np.mean(diff * diff)), (pred, target), bw, "mse")


# -- reverse pass -------------------------------------------------------------


def backward(loss: Tensor, store=None) -> None:
    """Reverse-propagate from a scalar loss; optionally zero-fill untouched params.

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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None or p.requires_grad:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None:
            continue
        node._backward(node.grad)
    # NaN/Inf anywhere upstream necessarily reaches a leaf, so checking leaves
    # catches every non-finite reverse-pass value with a single pass
    for node in topo:
        if node.requires_grad and node._backward is None and node.grad is not None:
            if not np.isfinite(np.sum(node.grad)):
                raise FloatingPointError("NaN encountered during reverse pass")
    if store is not None:
        for t in store.entries.values():
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)
