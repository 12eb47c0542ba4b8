"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every op is a module function (a Tensor has no arithmetic operators) and
validates that its output is finite; a NaN/Inf anywhere raises
FloatingPointError at the op boundary rather than propagating silently.
Gradients are accumulated into ``Tensor.grad`` numpy buffers by ``backward``.

The ops whose rows are independent (affine, gelu, layer_norm and attention)
run through split_rows: inside helper_thread(), an array's second half is
computed on one helper thread while the caller computes the first, and every
row gets the bits it has when the whole array is computed at once.
"""

from __future__ import annotations

import contextlib
import math
import queue
import threading

import numpy as np
from scipy.special import erf

from .util import usable_cores

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


def _assert_finite(arr: np.ndarray, ctx: str, sums=None) -> None:
    # single-pass check: the sum is finite iff every entry is finite
    # (magnitudes in this codebase never overflow a float64 sum); a split op
    # passes the sums of the parts that tile arr, each taken where it was made
    if not math.isfinite(arr.sum() if sums is None else sum(sums)):
        raise FloatingPointError(f"non-finite values in {ctx}")


# -- row splitting ------------------------------------------------------------

# Elements an array needs before split_rows hands half of it to the helper:
# below this, waking the helper costs more than the half it would compute.
SPLIT_MIN = 1 << 14

# (thread id of the caller, task queue, result queue) of the open helper, else None
_HELPER: tuple[int, queue.SimpleQueue, queue.SimpleQueue] | None = None


def _serve(tasks: queue.SimpleQueue, results: queue.SimpleQueue) -> None:
    """The helper thread's loop: run each (fn, rows) task and send back
    (True, its result), until a None task.  A task that raises sends
    (False, the exception) and ends the helper."""
    while (task := tasks.get()) is not None:
        fn, rows = task
        try:
            results.put((True, fn(rows)))
        except BaseException as e:
            results.put((False, e))
            raise


@contextlib.contextmanager
def helper_thread():
    """Open the helper thread that split_rows gives second halves to, for the
    length of the block, where at least two cores are usable; elsewhere, or
    when one is open already, the block runs with none added.  The helper is
    joined on every exit, so no thread outlives the block."""
    global _HELPER
    if _HELPER is not None or usable_cores() < 2:
        yield
        return
    tasks, results = queue.SimpleQueue(), queue.SimpleQueue()
    thread = threading.Thread(target=_serve, args=(tasks, results), name="autodiff-helper", daemon=True)
    thread.start()
    _HELPER = (threading.get_ident(), tasks, results)
    try:
        yield
    finally:
        _HELPER = None
        tasks.put(None)
        thread.join()


def split_rows(fn, a: np.ndarray) -> list:
    """[fn(first half), fn(second half)] of the slices of a's leading axis, the
    second computed on the helper thread; [fn(all rows)] when no helper is
    open, on any thread but the one that opened it, or when a has fewer than
    SPLIT_MIN elements or fewer than four rows (so each half is a GEMM of at
    least two rows).  fn writes its rows of preallocated outputs; it must
    give each row the same bits whatever slice holds it.

    The slice that starts at row 0 always runs on the calling thread, and
    exactly once, so fn does there its share of work that reads every row
    (a bias or a norm's scale gradient): one whole reduction, on the caller,
    while the helper computes the second half."""
    global _HELPER
    n = len(a)
    helper = _HELPER
    if helper is None or a.size < SPLIT_MIN or n < 4 or threading.get_ident() != helper[0]:
        return [fn(slice(0, n))]
    _, tasks, results = helper
    tasks.put((fn, slice(n // 2, n)))
    try:
        first = fn(slice(0, n // 2))
    finally:
        ok, second = results.get()  # never leave the helper writing into an output
        if not ok:
            _HELPER = None  # the helper has ended: the rest of the block runs serially
            raise second
    return [first, second]


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


def _from_op(data: np.ndarray, parents, backward_fn, ctx: str, sums=None) -> Tensor:
    _assert_finite(data, ctx, sums)
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


def _normal_cdf_into(x: np.ndarray, phi: np.ndarray) -> None:
    np.multiply(x, _INV_SQRT2, out=phi)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """The Gaussian CDF Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), one new buffer
    updated in place."""
    phi = np.empty(x.shape)
    _normal_cdf_into(x, phi)
    return phi


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF (not the tanh approximation)."""
    a = as_tensor(a)
    x = a.data.reshape(-1, a.data.shape[-1])
    phi, out = np.empty(x.shape), np.empty(x.shape)

    def fw(r):
        _normal_cdf_into(x[r], phi[r])
        return np.multiply(x[r], phi[r], out=out[r]).sum()

    def bw(g):
        if a.requires_grad:
            g = g.reshape(x.shape)
            gx = np.empty(x.shape)

            def x_grad(r):
                # g * (phi + x * pdf(x)), pdf(x) = exp(-x^2 / 2) / sqrt(2 pi)
                xr, t = x[r], gx[r]
                np.multiply(xr, -0.5, out=t)
                t *= xr
                np.exp(t, out=t)
                t *= _INV_SQRT2PI
                t *= xr
                t += phi[r]
                t *= g[r]

            split_rows(x_grad, gx)
            _accum(a, gx.reshape(a.data.shape), fresh=True)

    sums = split_rows(fw, x)
    return _from_op(out.reshape(a.data.shape), (a,), bw, "gelu", sums)


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


def row_product(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ w for rows a [n, d], each row equal to the bits it has in any other
    row count.  numpy runs a 1-row product as a GEMV, which sums in another
    order than a GEMM row does, so a 1-row a goes through a 2-row GEMM: a
    stream then decodes to the same bits alone, in a group, or in a chunk.
    Written into out when given."""
    if len(a) == 1:
        prod = (np.concatenate((a, a)) @ w)[:1]
        if out is None:
            return prod
        out[...] = prod
        return out
    return np.matmul(a, w, out=out)


def affine(x, w, b=None) -> Tensor:
    """Fused x @ w + b for a [d, n] matrix w (b, if given, broadcast over the
    leading axes).

    The leading axes of x are folded into rows, so the product and the input
    gradient are one GEMM each rather than one per batch entry, split by rows
    (split_rows).  The weight gradient is one product per batch entry, split
    by batch entry, and their sum.
    """
    x, w = as_tensor(x), as_tensor(w)
    rows = x.data.reshape(-1, x.data.shape[-1])
    out = np.empty((len(rows), w.data.shape[1]))
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        parents = (x, w, b)

    def fw(r):
        o = row_product(rows[r], w.data, out[r])
        if b is not None:
            o += b.data
        return o.sum()

    def bw(g):
        # per batch entry: the input-gradient GEMM of its rows, and the weight
        # product x^T g, summed over the entries after: folding the rows into
        # one weight product would change the order of that sum
        g_rows = g.reshape(len(rows), -1)
        L = x.data.shape[-2] if x.data.ndim > 1 else 1  # the rows of one batch entry
        xs = rows.reshape(-1, L, rows.shape[1]).swapaxes(-1, -2)
        gs = g_rows.reshape(-1, L, g_rows.shape[1])
        gx = np.empty(rows.shape) if x.requires_grad else None
        prods = np.empty((len(xs),) + w.data.shape) if w.requires_grad else None

        def grads(e):
            if gx is not None:
                np.matmul(g_rows[e.start * L : e.stop * L], w.data.T, out=gx[e.start * L : e.stop * L])
            if prods is not None:
                np.matmul(xs[e], gs[e], out=prods[e])
            if e.start == 0 and b is not None and b.requires_grad:  # the caller's share
                _accum(b, _unbroadcast(g, b.data.shape), fresh=True)

        split_rows(grads, gs)
        if gx is not None:
            _accum(x, gx.reshape(x.data.shape), fresh=True)
        if prods is not None:
            _accum(w, prods.sum(axis=0) if x.data.ndim > 2 else prods[0], fresh=True)

    sums = split_rows(fw, out)
    return _from_op(out.reshape(x.data.shape[:-1] + out.shape[1:]), parents, bw, "affine", sums)


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


def _masks(n: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Additive causal mask [n, start + n] and its 0/1 keep-mask."""
    add = np.triu(np.full((n, start + n), MASK_VALUE), k=start + 1)
    return add, (add == 0.0).astype(np.float64)


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

    Forward and backward split the batch in two halves (split_rows); each
    half makes the same per-matrix products and per-row reductions as the
    whole batch would, so the values do not depend on the split.
    """
    qkv = as_tensor(qkv)
    B, L, d3 = qkv.data.shape
    hd = d3 // (3 * heads)
    parents = (qkv,)
    if isinstance(prefix, Tensor):
        parents = (qkv, prefix)
        start = prefix.data.shape[1]
    T = start + L
    # keys are laid out as they always were, since a GEMM's bits depend on its
    # operands' layout: transposed rows without a prefix, rows (read
    # transposed) after a Tensor prefix, the cache's own buffers in a decode
    q = np.empty((B, heads, L, hd))
    if prefix is None:
        kt, vals = np.empty((B, heads, hd, T)), np.empty((B, heads, T, hd))
    elif isinstance(prefix, Tensor):
        kt, vals = np.empty((B, heads, T, hd)).swapaxes(-1, -2), np.empty((B, heads, T, hd))
    else:
        kt_buf, v_buf = prefix
        kt, vals = kt_buf[..., :T], v_buf[:, :, :T]
    scale = 1.0 / np.sqrt(hd)
    mask, keep = _masks(L, start)
    s = np.empty((B, heads, L, T))
    ctx = np.empty((B, L, heads, hd))

    def fw(e):
        # [b, L, 3d] q|k|v rows -> [b, heads, L, hd] queries, keys written
        # transposed and values, at positions start..T
        rows = qkv.data[e]
        parts = rows.reshape(len(rows), L, 3, heads, hd)
        q[e] = parts[:, :, 0].swapaxes(1, 2)
        kt[e, ..., start:] = parts[:, :, 1].transpose(0, 2, 3, 1)
        vals[e, :, start:] = parts[:, :, 2].swapaxes(1, 2)
        if len(parents) == 2:
            pre = prefix.data[e].reshape(len(rows), start, 3, heads, hd)
            kt[e, ..., :start] = pre[:, :, 1].transpose(0, 2, 3, 1)
            vals[e, :, :start] = pre[:, :, 2].swapaxes(1, 2)
        se = s[e]
        np.matmul(q[e], kt[e], out=se)
        se *= scale
        se += mask
        se -= np.max(se, axis=-1, keepdims=True)
        # masked entries go -0.0 -> exp 1.0 -> +0.0, which is exp(MASK_VALUE),
        # without the slow path np.exp takes on huge negative inputs
        se *= keep
        np.exp(se, out=se)
        se *= keep
        se /= np.sum(se, axis=-1, keepdims=True)
        ctx[e] = (se @ vals[e]).swapaxes(1, 2)
        return ctx[e].sum()

    def bw(g):
        gh = g.reshape(B, L, heads, hd).swapaxes(1, 2)
        to_qkv = qkv.requires_grad
        to_prefix = len(parents) == 2 and prefix.requires_grad
        if to_qkv:
            out = np.empty((B, L, 3, heads, hd))
        if to_prefix:
            pout = np.zeros((B, start, 3, heads, hd))

        def grads(e):
            se, ghe = s[e], gh[e]
            gs = ghe @ vals[e].swapaxes(-1, -2)
            gv = se.swapaxes(-1, -2) @ ghe
            gs -= np.sum(gs * se, axis=-1, keepdims=True)
            gs *= se
            gs *= scale
            gkt = q[e].swapaxes(-1, -2) @ gs
            if to_qkv:
                out[e, :, 0] = (gs @ kt[e].swapaxes(-1, -2)).swapaxes(1, 2)
                out[e, :, 1] = gkt[..., start:].transpose(0, 3, 1, 2)
                out[e, :, 2] = gv[:, :, start:].swapaxes(1, 2)
            if to_prefix:
                pout[e, :, 1] = gkt[..., :start].transpose(0, 3, 1, 2)
                pout[e, :, 2] = gv[:, :, :start].swapaxes(1, 2)

        split_rows(grads, s)
        if to_qkv:
            _accum(qkv, out.reshape(B, L, d3), fresh=True)
        if to_prefix:
            _accum(prefix, pout.reshape(B, start, d3), fresh=True)

    sums = split_rows(fw, s)
    return _from_op(ctx.reshape(B, L, d3 // 3), parents, bw, "attention", sums), s


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    rows = x.data.reshape(-1, n)
    xhat, out, r = np.empty(rows.shape), np.empty(rows.shape), np.empty((len(rows), 1))

    def fw(i):
        # add.reduce / n is np.mean's arithmetic without its per-call overhead;
        # the passes below update the rows' buffers in place
        mu = np.add.reduce(rows[i], axis=-1, keepdims=True)
        mu /= n
        xh, o, ri = xhat[i], out[i], r[i]
        np.subtract(rows[i], mu, out=xh)
        np.multiply(xh, xh, out=o)
        np.add.reduce(o, axis=-1, keepdims=True, out=ri)
        ri /= n
        ri += LN_EPS
        np.sqrt(ri, out=ri)
        np.divide(1.0, ri, out=ri)
        xh *= ri
        np.multiply(xh, gamma.data, out=o)
        o += beta.data
        return o.sum()

    def bw(g):
        g = g.reshape(-1, n)
        gx = np.empty(rows.shape) if x.requires_grad else None

        def grads(i):
            if i.start == 0:  # the caller's share
                if gamma.requires_grad:
                    _accum(gamma, (g * xhat).sum(axis=0), fresh=True)
                if beta.requires_grad:
                    _accum(beta, g.sum(axis=0), fresh=True)
            if gx is not None:
                # r * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gamma
                gxi = np.multiply(g[i], gamma.data, out=gx[i])
                t = gxi * xhat[i]
                m = np.add.reduce(t, axis=-1, keepdims=True)
                m /= n
                np.multiply(xhat[i], m, out=t)
                m = np.add.reduce(gxi, axis=-1, keepdims=True)
                m /= n
                gxi -= m
                gxi -= t
                gxi *= r[i]

        split_rows(grads, g)
        if gx is not None:
            _accum(x, gx.reshape(x.data.shape), fresh=True)

    sums = split_rows(fw, rows)
    return _from_op(out.reshape(x.data.shape), (x, gamma, beta), bw, "layer_norm", sums)


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
