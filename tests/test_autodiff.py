import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import sft
from latentsketch import toyvision as tv
from latentsketch.model import ModelConfig, build_model

from conftest import gradcheck, rel_error


def randt(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


def test_backward_sum_is_ones():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.backward(ad.sum_(x))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_quadratic():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.backward(ad.sum_(ad.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=0, rtol=0)


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, 2.0))


def test_non_finite_forward_raises():
    x = ad.Tensor([1.0, 0.0])
    with pytest.raises(FloatingPointError):
        ad.div(1.0, x)


def test_non_finite_reverse_raises():
    # 1/x near zero is huge but finite; its derivative -1/x^2 overflows in reverse
    x = ad.Tensor([1e-300], requires_grad=True)
    y = ad.div(1.0, x)
    with pytest.raises(FloatingPointError):
        ad.backward(ad.sum_(y))


def test_no_grad_disables_recording():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, 3.0)
    assert y._backward is None and not y.requires_grad


def test_unreachable_params_get_zero_grad():
    from latentsketch.optim import ParamStore

    store = ParamStore()
    a = store.add("backbone/a", np.ones(3), "backbone")
    b = store.add("backbone/b", np.ones(2), "backbone")
    ad.backward(ad.sum_(a), store)
    assert np.array_equal(a.grad, np.ones(3))
    assert np.array_equal(b.grad, np.zeros(2))


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_and_reduction_grads(seed):
    rng = np.random.default_rng(seed)
    a = randt(rng, 4, 3)
    b = randt(rng, 4, 3)
    c = randt(rng, 3)

    def f():
        x = ad.add(ad.mul(a, b), c)          # broadcast add
        y = ad.div(ad.sub(x, 0.5), ad.add(ad.mul(b, b), 1.0))
        z = ad.gelu(ad.mul(y, 0.7))
        return ad.add(ad.mean_(z), ad.mul(ad.sum_(ad.exp(ad.mul(a, 0.1))), 0.01))

    gradcheck(f, [a, b, c])


@pytest.mark.parametrize("seed", range(5))
def test_matmul_grads(seed):
    """The matrix product is affine, with and without its bias."""
    rng = np.random.default_rng(seed)
    a = randt(rng, 5, 4)
    b = randt(rng, 4, 3)
    c = randt(rng, 3)
    gradcheck(lambda: ad.sum_(ad.affine(a, b)), [a, b])
    gradcheck(lambda: ad.sum_(ad.gelu(ad.affine(a, b, c))), [a, b, c])


def test_softmax_rows_normalized():
    """The attention weights are softmax rows, with or without a cached prefix."""
    rng = np.random.default_rng(1)
    _, s = ad.attention(ad.Tensor(rng.normal(size=(2, 5, 12))), 2)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    kt, v = np.zeros((1, 2, 2, 9)), np.zeros((1, 2, 9, 2))
    ad.attention(ad.Tensor(rng.normal(size=(1, 3, 12))), 2, (kt, v))
    _, s = ad.attention(ad.Tensor(rng.normal(size=(1, 4, 12))), 2, (kt, v), 3)
    assert s.shape == (1, 2, 4, 7)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_grads(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 4, 6)
    g = randt(rng, 6)
    b = randt(rng, 6)
    w = ad.Tensor(rng.normal(size=(4, 6)))
    gradcheck(lambda: ad.sum_(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])


@pytest.mark.parametrize("seed", range(5))
def test_gelu_grads(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 4, 5)
    gradcheck(lambda: ad.sum_(ad.gelu(x)), [x])


@pytest.mark.parametrize("seed", range(5))
def test_embedding_grads(seed):
    """mixed_embed at a position offset: repeated ids accumulate into one table
    row, and only position rows start..start+L receive gradient."""
    rng = np.random.default_rng(seed)
    table = randt(rng, 7, 4)
    pos = randt(rng, 9, 4)
    ids = rng.integers(0, 7, size=(3, 5))
    text_mask = np.ones((3, 5))
    w = ad.Tensor(rng.normal(size=(3, 5, 4)))
    start = int(rng.integers(0, 5))
    gradcheck(lambda: ad.sum_(ad.mul(ad.mixed_embed(table, pos, ids, text_mask, np.zeros((3, 5, 4)),
                                                    start), w)), [table, pos])
    outside = np.ones(9, dtype=bool)
    outside[start : start + 5] = False
    assert np.all(pos.grad[outside] == 0.0)


def test_embedding_range_check():
    table = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        ad.mixed_embed(table, ad.Tensor(np.zeros((3, 2))), np.array([[4]]), np.ones((1, 1)),
                       np.zeros((1, 1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_grads(seed):
    rng = np.random.default_rng(seed)
    logits = randt(rng, 6, 5)
    targets = rng.integers(0, 5, size=6)
    gradcheck(lambda: ad.mean_(ad.cross_entropy(logits, targets)), [logits])


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 5))
    targets = np.array([0, 3, 2, 4])
    got = ad.cross_entropy(ad.Tensor(logits), targets).data
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    want = -np.log(p[np.arange(4), targets])
    assert rel_error(got, want) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_fused_affine_grads(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 2, 4, 3)
    w = randt(rng, 3, 5)
    b = randt(rng, 5)
    gradcheck(lambda: ad.mean_(ad.affine(x, w, b)), [x, w, b], rng=rng)


def attention_reference(qkv: np.ndarray, heads: int) -> np.ndarray:
    """Causal multi-head attention written out per batch row and head."""
    B, L, d3 = qkv.shape
    d = d3 // 3
    hd = d // heads
    out = np.zeros((B, L, d))
    for b in range(B):
        for h in range(heads):
            q, k, v = (qkv[b, :, j * d + h * hd : j * d + (h + 1) * hd] for j in range(3))
            s = q @ k.T / np.sqrt(hd) + np.triu(np.full((L, L), -np.inf), k=1)
            w = np.exp(s - s.max(axis=-1, keepdims=True))
            out[b, :, h * hd : (h + 1) * hd] = (w / w.sum(axis=-1, keepdims=True)) @ v
    return out


@pytest.mark.parametrize("seed", range(3))
def test_fused_scaled_masked_softmax_grads(seed):
    """The fused attention op against a per-head reference and central
    differences with respect to its q|k|v input."""
    rng = np.random.default_rng(seed)
    qkv = randt(rng, 2, 5, 12)
    w = ad.Tensor(rng.normal(size=(2, 5, 4)))
    ctx, _ = ad.attention(qkv, 2)
    assert np.max(np.abs(ctx.data - attention_reference(qkv.data, 2))) < 1e-12
    gradcheck(lambda: ad.sum_(ad.mul(ad.attention(qkv, 2)[0], w)), [qkv])


@pytest.mark.parametrize("seed", range(5))
def test_attention_grads_with_cached_prefix(seed):
    """Rows appended after a cached prefix equal the matching rows of one
    cache-free call, and their gradient treats the prefix as constant."""
    rng = np.random.default_rng(seed)
    heads, hd, n_pre, n = 2, 2, 1 + seed, 3
    prefix = rng.normal(size=(1, n_pre, 3 * heads * hd))
    qkv = randt(rng, 1, n, 3 * heads * hd)
    kt = np.zeros((1, heads, hd, 12))
    v = np.zeros((1, heads, 12, hd))
    ad.attention(ad.Tensor(prefix), heads, (kt, v))
    ctx, _ = ad.attention(qkv, heads, (kt, v), n_pre)
    full = attention_reference(np.concatenate([prefix, qkv.data], axis=1), heads)
    assert np.max(np.abs(ctx.data - full[:, n_pre:])) < 1e-12
    w = ad.Tensor(rng.normal(size=(1, n, heads * hd)))
    gradcheck(lambda: ad.sum_(ad.mul(ad.attention(qkv, heads, (kt, v), n_pre)[0], w)), [qkv])


@pytest.mark.parametrize("seed,batch", [(0, 1), (1, 1), (2, 2), (3, 2)])
def test_attention_grads_with_tensor_prefix(seed, batch):
    """Rows attending over a Tensor prefix (the q|k|v of an earlier call)
    equal the matching rows of one full-sequence call, and their gradient
    reaches both the prefix and their own q|k|v."""
    rng = np.random.default_rng(seed)
    heads, hd, n_pre, n = 2, 2, 2 + seed, 3
    prefix = randt(rng, batch, n_pre, 3 * heads * hd)
    qkv = randt(rng, batch, n, 3 * heads * hd)
    ctx, s = ad.attention(qkv, heads, prefix)
    assert s.shape == (batch, heads, n, n_pre + n)
    full = attention_reference(np.concatenate([prefix.data, qkv.data], axis=1), heads)
    assert np.max(np.abs(ctx.data - full[:, n_pre:])) < 1e-13
    w = ad.Tensor(rng.normal(size=(batch, n, heads * hd)))
    gradcheck(lambda: ad.sum_(ad.mul(ad.attention(qkv, heads, prefix)[0], w)), [qkv, prefix])
    # the prefix's query columns feed nothing in this call
    assert np.all(prefix.grad.reshape(batch, n_pre, 3, -1)[:, :, 0] == 0.0)


def test_fused_softmax_masked_entries_exactly_zero():
    rng = np.random.default_rng(0)
    _, s = ad.attention(ad.Tensor(rng.normal(size=(1, 5, 6))), 1)
    assert np.all(s[0, 0][np.triu_indices(5, k=1)] == 0.0)
    kt, v = np.zeros((1, 1, 2, 8)), np.zeros((1, 1, 8, 2))
    ad.attention(ad.Tensor(rng.normal(size=(1, 3, 6))), 1, (kt, v))
    _, s = ad.attention(ad.Tensor(rng.normal(size=(1, 4, 6))), 1, (kt, v), 3)
    assert np.all(s[0, 0][np.triu_indices(4, k=4, m=7)] == 0.0)
    assert np.all(s[0, 0][np.tril_indices(4, k=3, m=7)] > 0.0)


def attention_unblocked(qkv, heads, g, prefix=None, start=0):
    """The attention formula over the whole batch at once: the additive mask
    alone, np.exp over the masked scores, and the backward written out.
    Returns (context, weights, q|k|v gradient, Tensor-prefix gradient)."""
    B, L, d3 = qkv.shape
    hd = d3 // (3 * heads)

    def split(a):
        return np.ascontiguousarray(a.reshape(a.shape[0], a.shape[1], 3, heads, hd).transpose(2, 0, 3, 1, 4))

    q, k, v = split(qkv)
    if prefix is None:
        kt, vals = np.ascontiguousarray(k.swapaxes(-1, -2)), v
    elif isinstance(prefix, np.ndarray):
        start = prefix.shape[1]
        _, pk, pv = split(prefix)
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
    s += np.triu(np.full((L, start + L), ad.MASK_VALUE), k=start + 1)
    s -= np.max(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.sum(s, axis=-1, keepdims=True)
    ctx = (s @ vals).swapaxes(1, 2).reshape(B, L, d3 // 3)
    gh = g.reshape(B, L, heads, hd).swapaxes(1, 2)
    gs = gh @ vals.swapaxes(-1, -2)
    gv = s.swapaxes(-1, -2) @ gh
    gs = scale * (s * (gs - np.sum(gs * s, axis=-1, keepdims=True)))
    gkt = q.swapaxes(-1, -2) @ gs
    gq = np.empty((B, L, 3, heads, hd))
    gq[:, :, 0] = (gs @ kt.swapaxes(-1, -2)).swapaxes(1, 2)
    gq[:, :, 1] = gkt[..., start:].transpose(0, 3, 1, 2)
    gq[:, :, 2] = gv[:, :, start:].swapaxes(1, 2)
    gp = np.zeros((B, start, 3, heads, hd))
    gp[:, :, 1] = gkt[..., :start].transpose(0, 3, 1, 2)
    gp[:, :, 2] = gv[:, :, :start].swapaxes(1, 2)
    return ctx, s, gq.reshape(B, L, d3), gp.reshape(B, start, d3)


# one example has heads * L * (P + L) = 2 * 4 * 7 = 56 scores: blocks of 1, of
# 2 (5 = 2 + 2 + 1, a ragged last block) and one block of the whole batch
@pytest.mark.parametrize("block", [1, 112, 1 << 30])
@pytest.mark.parametrize("form", ["none", "tensor", "cache"])
def test_blocked_attention_equals_unblocked(monkeypatch, block, form):
    """attention over blocks of the batch axis gives bit for bit the values and
    gradients of the formula over the whole batch; masked weights are +0.0."""
    monkeypatch.setattr(ad, "ATTN_BLOCK", block)
    rng = np.random.default_rng(block % 97)
    B, heads, hd, P, L = 5, 2, 3, 3, 4
    qkv = randt(rng, B, L, 3 * heads * hd)
    g = rng.normal(size=(B, L, heads * hd))
    prefix_rows = rng.normal(size=(B, P, 3 * heads * hd))
    if form == "none":
        prefix = ref_prefix = None
        start = 0
    elif form == "tensor":
        prefix, ref_prefix = ad.Tensor(prefix_rows, requires_grad=True), prefix_rows
        start = P
    else:
        kt, v = np.zeros((B, heads, hd, 10)), np.zeros((B, heads, 10, hd))
        ad.attention(ad.Tensor(prefix_rows), heads, (kt, v))
        prefix, ref_prefix = (kt, v), (kt.copy(), v.copy())
        start = P
    ctx, s = ad.attention(qkv, heads, prefix, start)
    ad.backward(ad.sum_(ad.mul(ctx, ad.Tensor(g))))
    ref_ctx, ref_s, ref_gq, ref_gp = attention_unblocked(qkv.data, heads, g, ref_prefix, start)
    assert np.array_equal(ctx.data, ref_ctx)
    assert np.array_equal(s, ref_s)
    assert np.array_equal(qkv.grad, ref_gq)
    if form == "tensor":
        assert np.array_equal(prefix.grad, ref_gp)
    if form == "cache":
        assert np.array_equal(prefix[0], ref_prefix[0]) and np.array_equal(prefix[1], ref_prefix[1])
    masked = np.triu(np.ones((L, start + L), dtype=bool), k=start + 1)
    assert np.all(s[..., masked] == 0.0) and not np.any(np.signbit(s))


def gelu_old(x, g):
    """GELU forward and backward as whole-array expressions."""
    phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * phi, g * (phi + x * pdf)


def layer_norm_old(x, gamma, beta, g, eps=1e-5):
    """Layer norm forward and backward as whole-array expressions."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    r = 1.0 / np.sqrt(var + eps)
    xhat = xc * r
    gx = g * gamma
    dx = r * (gx - np.add.reduce(gx, axis=-1, keepdims=True) / n
              - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n))
    dgamma = (g * xhat).reshape(-1, n).sum(axis=0)
    dbeta = g.reshape(-1, n).sum(axis=0)
    return xhat * gamma + beta, dx, dgamma, dbeta


@pytest.mark.parametrize("shape", [(3, 7, 16), (3, 1, 16)])
def test_in_place_gelu_and_layer_norm_equal_array_expressions(shape):
    rng = np.random.default_rng(len(shape) + shape[1])
    x, g = randt(rng, *shape), rng.normal(size=shape)
    out = ad.gelu(x)
    ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g))))
    ref_out, ref_dx = gelu_old(x.data, g)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(x.grad, ref_dx)

    x, gamma, beta = randt(rng, *shape), randt(rng, shape[-1]), randt(rng, shape[-1])
    out = ad.layer_norm(x, gamma, beta)
    ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g))))
    for got, want in zip((out.data, x.grad, gamma.grad, beta.grad),
                         layer_norm_old(x.data, gamma.data, beta.data, g)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d, n", [(16, 24), (32, 96), (128, 384)])
def test_row_product_gives_each_row_its_bits_at_every_row_count(d, n):
    """A row's product has the same bits alone, as one of two rows, or as one
    of 24; a plain 1-row numpy product (a GEMV) need not."""
    rng = np.random.default_rng(d)
    a, w = rng.normal(size=(24, d)), rng.normal(size=(d, n))
    full = ad.row_product(a, w)
    for i in range(24):
        assert np.array_equal(ad.row_product(a[i : i + 1], w), full[i : i + 1])
        assert np.array_equal(ad.row_product(a[i : i + 2], w), full[i : i + 2])
    assert np.array_equal(ad.affine(a[:1], w).data, full[:1])


@pytest.mark.parametrize("shape", [(3, 7, 16), (3, 1, 16), (5, 16)])
def test_affine_one_gemm_matches_batched_matmul(shape):
    """affine folds the leading axes into one GEMM; it agrees with a batched
    np.matmul to rounding."""
    rng = np.random.default_rng(shape[0])
    x, w, b = randt(rng, *shape), randt(rng, 16, 24), randt(rng, 24)
    g = rng.normal(size=shape[:-1] + (24,))
    out = ad.affine(x, w, b)
    ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g))))
    assert out.shape == shape[:-1] + (24,)
    assert rel_error(out.data, np.matmul(x.data, w.data) + b.data) < 1e-12
    assert rel_error(x.grad, np.matmul(g, w.data.T)) < 1e-12
    xm, gm = x.data.reshape(-1, 1, 16), g.reshape(-1, 1, 24)
    assert rel_error(w.grad, np.matmul(xm.swapaxes(-1, -2), gm).sum(axis=0)) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_mixed_embed_grads(seed):
    rng = np.random.default_rng(seed)
    table = randt(rng, 9, 4)
    pos = randt(rng, 6, 4)
    ids = rng.integers(0, 9, size=(2, 5))
    text_mask = (rng.random((2, 5)) < 0.6).astype(np.float64)
    latents = rng.normal(size=(2, 5, 4)) * (1.0 - text_mask)[..., None]
    w = ad.Tensor(rng.normal(size=(2, 5, 4)))
    gradcheck(lambda: ad.sum_(ad.mul(ad.mixed_embed(table, pos, ids, text_mask, latents), w)),
              [table, pos])


def test_minimum_ties_route_to_first():
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    b = ad.Tensor([1.0, 5.0], requires_grad=True)
    ad.backward(ad.sum_(ad.minimum(a, b)))
    assert np.array_equal(a.grad, [1.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 0.0])


def test_clip_gradient_zero_outside_bounds():
    x = ad.Tensor([0.5, 1.0, 1.5], requires_grad=True)
    ad.backward(ad.sum_(ad.clip(x, 0.8, 1.2)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("seed", range(3))
def test_getitem_take_rows_concat_grads(seed):
    """Row reads: a gather with a repeated row, a concatenation, and the
    slice [1:5] of it read as take_rows."""
    rng = np.random.default_rng(seed)
    x = randt(rng, 6, 4)
    y = randt(rng, 3, 4)
    idx = np.array([0, 2, 2, 5])

    def f():
        parts = ad.concat([ad.take_rows(x, idx), y], axis=0)
        return ad.sum_(ad.mul(ad.take_rows(parts, np.arange(1, 5)), 0.5))

    gradcheck(f, [x, y])


def test_two_identical_graph_runs_bitwise_identical():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 4))

    def run():
        x = ad.Tensor(data, requires_grad=True)
        r = ad.sub(ad.gelu(ad.affine(x, x)), ad.Tensor(np.eye(4)))
        loss = ad.mean_(ad.mul(r, r))
        ad.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


# -- backward consumes the graph -----------------------------------------------


def joint_batch():
    """A default model and one default-size joint SFT batch: 8 grid_rotation
    examples."""
    model = build_model(ModelConfig(), seed=3)
    traces = tv.generate_dataset("grid_rotation", 8, 3)
    return model, [sft.build_example(t, model, model.cfg.k_latent) for t in traces]


def joint_total(model, examples):
    total, _, _ = sft.joint_loss(examples, model, 1.0, np.random.default_rng(0))
    model.store.zero_grad()
    return total


def retaining_backward(loss, store):
    """The reverse walk without freeing anything: every node keeps its
    closure, its parent links and its gradient."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p._backward is not None or p.requires_grad)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
    for t in store.entries.values():
        if t.requires_grad and t.grad is None:
            t.grad = np.zeros_like(t.data)


def test_backward_peak_memory_stays_near_the_graph_size():
    """backward frees each intermediate's saved arrays and gradient once it
    is done with it, so the gradients it makes do not pile up on top of the
    graph: the traced peak stays within 10% of the memory at its start (a
    walk that keeps everything reaches about 1.65 times)."""
    model, examples = joint_batch()
    tracemalloc.start()
    try:
        total = joint_total(model, examples)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(total, model.store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * start, f"backward peak {peak / start:.3f} x its starting memory"


def test_backward_frees_intermediates_once_the_caller_drops_them(monkeypatch):
    """After backward(total), only the caller's own references keep an
    intermediate alive; the loss it still holds does not.  A Tensor holds its
    data array, so the array's weakref dying shows the Tensor is gone too."""
    model, examples = joint_batch()
    refs = []

    def spy(*args, **kwargs):
        hidden, logits, attn = forward_batch(*args, **kwargs)
        refs.extend(weakref.ref(t.data) for t in (hidden, logits))
        return hidden, logits, attn

    forward_batch = bb.forward_batch
    monkeypatch.setattr(bb, "forward_batch", spy)
    total = joint_total(model, examples)
    assert len(refs) == 2 and all(r() is not None for r in refs)
    ad.backward(total, model.store)
    assert total.grad is not None
    assert all(r() is None for r in refs)


def test_consuming_backward_gives_the_retaining_walks_leaf_gradients():
    model, examples = joint_batch()
    retaining_backward(joint_total(model, examples), model.store)
    ref = {name: t.grad.copy() for name, t in model.store.entries.items()}
    ad.backward(joint_total(model, examples), model.store)
    for name, t in model.store.entries.items():
        assert np.array_equal(t.grad, ref[name]), name


def test_second_backward_through_a_consumed_graph_raises():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = ad.sum_(ad.mul(ad.exp(x), x))
    ad.backward(loss)
    g = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(loss)
    assert np.array_equal(x.grad, g)


def test_new_graph_over_a_consumed_intermediate_raises():
    """A new graph that reads a consumed intermediate cannot reach the leaves
    behind it, so backward refuses it before any gradient moves."""
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    w = ad.Tensor([0.5, -1.0, 2.0], requires_grad=True)
    y = ad.exp(x)
    loss = ad.sum_(ad.mul(y, x))
    ad.backward(loss)
    # the loss and the leaves keep their gradients, an intermediate does not
    assert loss.grad == 1.0 and y.grad is None
    g = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(ad.sum_(ad.mul(y, w)))
    assert np.array_equal(x.grad, g) and w.grad is None
