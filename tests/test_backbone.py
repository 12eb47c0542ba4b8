import numpy as np
import pytest
from scipy.special import erf

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import diffusion as df
from latentsketch import sequence as sq
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model
from latentsketch.util import seeded_rng


def make_seq(model, n_text=3, n_latent=0, rng=None):
    rng = rng or seeded_rng(0, "seq")
    items = [sq.MixedItem.ctrl(sq.BOS)]
    for _ in range(n_latent):
        items.append(sq.MixedItem.latent(rng.normal(size=model.cfg.d)))
    for _ in range(n_text):
        items.append(sq.MixedItem.text(int(rng.integers(5, vocab.VOCAB_SIZE))))
    return sq.MixedSequence(items)


def arrays(model, seq):
    ids, text_mask, latents = sq.to_arrays(seq, model.cfg.d)
    return ids[None], text_mask[None], latents[None]


def forward(model, seq):
    """forward_batch over one sequence: (hidden [L, d], logits [L, V]) arrays."""
    with ad.no_grad():
        hidden, logits, _ = bb.forward_batch(model.store, model.cfg, *arrays(model, seq))
    return hidden.data[0], logits.data[0]


def embed(model, seq):
    with ad.no_grad():
        return bb.embed_batch(model.store, model.cfg, *arrays(model, seq)).data[0]


@pytest.fixture(scope="module")
def model():
    return build_model(ModelConfig(layers=2, heads=2, d=16, max_len=64, k_latent=2), seed=9)


def test_forward_shapes_length_one(model):
    seq = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS)])
    hidden, logits = forward(model, seq)
    assert hidden.shape == (1, 16)
    assert logits.shape == (1, vocab.VOCAB_SIZE)


def test_embed_single_bos_is_token_plus_position(model):
    seq = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS)])
    emb = embed(model, seq)
    want = model.store["backbone/tok_emb"].data[vocab.BOS_ID] + model.store["backbone/pos_emb"].data[0]
    assert np.array_equal(emb[0], want)


def test_latent_identity_injection_with_zeroed_positions():
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=32, k_latent=2), seed=1)
    m.store["backbone/pos_emb"].data[:] = 0.0
    vec = seeded_rng(3, "v").normal(size=8)
    seq = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.latent(vec)])
    assert np.array_equal(embed(m, seq)[1], vec)


def test_embedding_prefix_locality(model):
    seq3 = make_seq(model, n_text=2, n_latent=1)
    seq2 = sq.MixedSequence(seq3.items[:2])
    assert np.array_equal(embed(model, seq3)[:2], embed(model, seq2))


def test_forward_causality_bitwise(model):
    rng = seeded_rng(1, "caus")
    seq = make_seq(model, n_text=5, n_latent=2, rng=rng)
    h1, l1 = forward(model, seq)
    j = 5
    perturbed = sq.MixedSequence(list(seq.items))
    perturbed.items[j] = sq.MixedItem.text(int(rng.integers(5, vocab.VOCAB_SIZE)))
    h2, l2 = forward(model, perturbed)
    assert np.array_equal(h1[:j], h2[:j])
    assert np.array_equal(l1[:j], l2[:j])
    assert not np.array_equal(h1[j:], h2[j:])


def test_forward_overflow_and_bad_token(model):
    too_long = make_seq(model, n_text=model.cfg.max_len + 1)
    with pytest.raises(ValueError, match="max_len"):
        forward(model, too_long)
    ids, text_mask, latents = arrays(model, make_seq(model, n_text=2))
    ids[0, 1] = model.cfg.vocab
    with pytest.raises(IndexError, match="embedding table"):
        bb.forward_batch(model.store, model.cfg, ids, text_mask, latents)


def straight_line_forward(store, cfg, ids, text_mask, latents):
    """Independent re-implementation: explicit per-position loops, no autodiff."""
    L = len(ids)
    d, h = cfg.d, cfg.heads
    hd = d // h

    def ln(v, g, b):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    x = np.zeros((L, d))
    for i in range(L):
        if text_mask[i]:
            x[i] = store["backbone/tok_emb"].data[ids[i]]
        else:
            x[i] = latents[i]
        x[i] = x[i] + store["backbone/pos_emb"].data[i]
    for li in range(cfg.layers):
        p = f"backbone/layer{li}"
        a_in = np.stack([ln(x[i], store[f"{p}/ln1/g"].data, store[f"{p}/ln1/b"].data) for i in range(L)])
        qkv = a_in @ store[f"{p}/attn/wqkv"].data + store[f"{p}/attn/bqkv"].data
        out = np.zeros((L, d))
        for head in range(h):
            q = qkv[:, head * hd : (head + 1) * hd]
            k = qkv[:, d + head * hd : d + (head + 1) * hd]
            v = qkv[:, 2 * d + head * hd : 2 * d + (head + 1) * hd]
            for i in range(L):
                scores = np.array([q[i] @ k[j] / np.sqrt(hd) for j in range(i + 1)])
                w = np.exp(scores - scores.max())
                w = w / w.sum()
                out[i, head * hd : (head + 1) * hd] = sum(w[j] * v[j] for j in range(i + 1))
        x = x + out @ store[f"{p}/attn/wo"].data + store[f"{p}/attn/bo"].data
        m_in = np.stack([ln(x[i], store[f"{p}/ln2/g"].data, store[f"{p}/ln2/b"].data) for i in range(L)])
        hmid = m_in @ store[f"{p}/mlp/w1"].data + store[f"{p}/mlp/b1"].data
        hmid = hmid * 0.5 * (1.0 + erf(hmid / np.sqrt(2.0)))
        x = x + hmid @ store[f"{p}/mlp/w2"].data + store[f"{p}/mlp/b2"].data
    hidden = np.stack([ln(x[i], store["backbone/ln_f/g"].data, store["backbone/ln_f/b"].data) for i in range(L)])
    logits = hidden @ store["backbone/lm_head/w"].data + store["backbone/lm_head/b"].data
    return hidden, logits


def test_forward_matches_independent_reimplementation():
    m = build_model(ModelConfig(layers=1, heads=1, d=8, max_len=32, k_latent=2), seed=17)
    rng = seeded_rng(4, "oracle")
    items = [sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.latent(rng.normal(size=8)),
             sq.MixedItem.text(30), sq.MixedItem.text(41), sq.MixedItem.ctrl(sq.EOS)]
    seq = sq.MixedSequence(items)
    ids, text_mask, latents = sq.to_arrays(seq, 8)
    hidden, logits = forward(m, seq)
    h_ref, l_ref = straight_line_forward(m.store, m.cfg, ids, text_mask, latents)
    assert np.max(np.abs(hidden - h_ref)) < 1e-9
    assert np.max(np.abs(logits - l_ref)) < 1e-9


def test_condition_identity_and_linearity(monkeypatch):
    """Each latent's condition, the row that emit_block hands the sampler, is
    the decoder's last hidden state times cond_w, no bias."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=32, k_latent=3, t_steps=3), seed=13)
    prefix = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.text(30),
                               sq.MixedItem.ctrl(sq.START)])
    w = m.store["diffusion_head/cond_w"]
    conditions = []
    sample_latent = df.sample_latent

    def spy(c, *args, **kwargs):
        conditions.append(c.copy())
        return sample_latent(c, *args, **kwargs)

    monkeypatch.setattr(df, "sample_latent", spy)

    def emit_and_replay():
        conditions.clear()
        cache = bb.DecodeCache(m.store, m.cfg, 1, m.cfg.max_len)
        cache.append(*arrays(m, prefix))
        seq, rng = prefix.copy(), seeded_rng(5, "c")
        for _ in range(m.cfg.k_latent):
            [row] = df.emit_block(cache.last_hidden, m.store, m.sched, [rng], m.cfg.head)
            seq.append(sq.MixedItem.latent(row))
            cache.append(*arrays(m, sq.MixedSequence(seq.items[-1:])))
        replay = bb.DecodeCache(m.store, m.cfg, 1, m.cfg.max_len)
        replay.append(*arrays(m, prefix))
        h = [replay.last_hidden[0]]
        for item in seq.items[len(prefix):-1]:
            replay.append(*arrays(m, sq.MixedSequence([item])))
            h.append(replay.last_hidden[0])
        return np.concatenate(conditions), np.array(h)

    c, h = emit_and_replay()
    assert np.allclose(c, h @ w.data, rtol=0, atol=1e-12)
    orig = w.data.copy()
    try:
        w.data = np.eye(m.cfg.d)
        c, h = emit_and_replay()
        assert np.array_equal(c, h)
        w.data = np.zeros_like(orig)
        c, _ = emit_and_replay()
        assert np.array_equal(c, np.zeros_like(c))
    finally:
        w.data = orig


def test_attention_rows_normalized_and_causal(model):
    seq = make_seq(model, n_text=6, n_latent=2)
    att = bb.attention_maps(model.store, model.cfg, seq, layer=1)
    L = len(seq)
    assert att.shape == (model.cfg.heads, L, L)
    assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-9)
    for i in range(L):
        assert np.all(att[:, i, i + 1 :] == 0.0)


def test_attention_maps_layer_range(model):
    seq = make_seq(model, n_text=2)
    with pytest.raises(ValueError):
        bb.attention_maps(model.store, model.cfg, seq, layer=model.cfg.layers)


def test_attention_maps_match_qk_recompute(model):
    """Middle-layer latent-row averaging equals a direct softmax(QK^T) recompute."""
    rng = seeded_rng(8, "qk")
    seq = make_seq(model, n_text=4, n_latent=3, rng=rng)
    layer = model.cfg.layers // 2
    att = bb.attention_maps(model.store, model.cfg, seq, layer)

    # recompute the layer's attention from the ln1 input of that layer
    ids, text_mask, latents = sq.to_arrays(seq, model.cfg.d)
    store, cfg = model.store, model.cfg
    d, h = cfg.d, cfg.heads
    hd = d // h
    with ad.no_grad():
        x = bb.embed_batch(store, cfg, ids[None], text_mask[None], latents[None]).data[0]
        for li in range(layer):
            p = f"backbone/layer{li}"
            a_in = ad.layer_norm(ad.Tensor(x), store[f"{p}/ln1/g"], store[f"{p}/ln1/b"]).data
            qkv = a_in @ store[f"{p}/attn/wqkv"].data + store[f"{p}/attn/bqkv"].data
            L = x.shape[0]
            out = np.zeros_like(x)
            for head in range(h):
                q = qkv[:, head * hd : (head + 1) * hd]
                k = qkv[:, d + head * hd : d + (head + 1) * hd]
                v = qkv[:, 2 * d + head * hd : 2 * d + (head + 1) * hd]
                s = q @ k.T / np.sqrt(hd) + np.triu(np.full((L, L), ad.MASK_VALUE), k=1)
                w = np.exp(s - s.max(axis=-1, keepdims=True))
                w /= w.sum(axis=-1, keepdims=True)
                out[:, head * hd : (head + 1) * hd] = w @ v
            x = x + out @ store[f"{p}/attn/wo"].data + store[f"{p}/attn/bo"].data
            m_in = ad.layer_norm(ad.Tensor(x), store[f"{p}/ln2/g"], store[f"{p}/ln2/b"]).data
            hm = m_in @ store[f"{p}/mlp/w1"].data + store[f"{p}/mlp/b1"].data
            hm = hm * 0.5 * (1.0 + erf(hm / np.sqrt(2.0)))
            x = x + hm @ store[f"{p}/mlp/w2"].data + store[f"{p}/mlp/b2"].data
        p = f"backbone/layer{layer}"
        a_in = ad.layer_norm(ad.Tensor(x), store[f"{p}/ln1/g"], store[f"{p}/ln1/b"]).data
        qkv = a_in @ store[f"{p}/attn/wqkv"].data + store[f"{p}/attn/bqkv"].data
        L = x.shape[0]
        ref = np.zeros((h, L, L))
        for head in range(h):
            q = qkv[:, head * hd : (head + 1) * hd]
            k = qkv[:, d + head * hd : d + (head + 1) * hd]
            s = q @ k.T / np.sqrt(hd) + np.triu(np.full((L, L), ad.MASK_VALUE), k=1)
            w = np.exp(s - s.max(axis=-1, keepdims=True))
            ref[head] = w / w.sum(axis=-1, keepdims=True)

    latent_rows = [i for i, it in enumerate(seq.items) if it.kind == sq.LATENT]
    got = att[:, latent_rows, :].mean(axis=(0, 1))
    want = ref[:, latent_rows, :].mean(axis=(0, 1))
    assert np.max(np.abs(got - want)) < 1e-9


def decode_schedule(items, k, prefill):
    """Chunks a DecodeCache sees while decoding items: the prompt prefill,
    then single rows, with each latent block's K rows in one chunk."""
    chunks, i = [items[:prefill]], prefill
    while i < len(items):
        n = k if items[i].kind == sq.LATENT else 1
        chunks.append(items[i : i + n])
        i += n
    return chunks


@pytest.mark.parametrize("length", [1, 9, 30, 64])
def test_decode_cache_matches_forward_batch(length):
    m = build_model(ModelConfig(layers=2, heads=2, d=16, max_len=64, k_latent=3), seed=19)
    rng = seeded_rng(length, "dc")
    items = [sq.MixedItem.ctrl(sq.BOS)] + [sq.MixedItem.latent(rng.normal(size=16)) for _ in range(4)]
    while len(items) < m.cfg.max_len:
        items += [sq.MixedItem.text(int(t)) for t in rng.integers(5, vocab.VOCAB_SIZE, size=3)]
        items += [sq.MixedItem.ctrl(sq.START)] + [sq.MixedItem.latent(rng.normal(size=16))
                                                  for _ in range(3)] + [sq.MixedItem.ctrl(sq.END)]
    seq = sq.MixedSequence(items[:length])
    hidden, logits = forward(m, seq)
    # in the chunks of a decode, then one item at a time, so that every row is checked
    for schedule in (decode_schedule(seq.items, 3, min(length, 7)), [[it] for it in seq.items]):
        cache = bb.DecodeCache(m.store, m.cfg, 1, m.cfg.max_len)
        done = 0
        for chunk in schedule:
            cache.append(*arrays(m, sq.MixedSequence(chunk)))
            done += len(chunk)
            assert np.max(np.abs(cache.last_hidden[0] - hidden[done - 1])) <= 1e-12
            assert np.max(np.abs(cache.last_logits[0] - logits[done - 1])) <= 1e-12
        assert cache.length == length
    if length == m.cfg.max_len:
        with pytest.raises(ValueError, match="decode cache's 64 positions"):
            cache.append(*arrays(m, sq.MixedSequence([sq.MixedItem.text(30)])))


def test_multi_stream_cache_matches_forward_batch():
    """A prefill copied to 3 streams, then different items (text, START, latent
    rows, END) appended to each in lockstep: every stream's hidden rows and
    logits equal a cache-free forward_batch of its own sequence."""
    m = build_model(ModelConfig(layers=2, heads=2, d=16, max_len=24, k_latent=2), seed=29)
    rng = seeded_rng(3, "streams")
    prompt = [sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.latent(rng.normal(size=16)), sq.MixedItem.text(30)]

    def lat():
        return sq.MixedItem.latent(rng.normal(size=16))

    start, end = sq.MixedItem.ctrl(sq.START), sq.MixedItem.ctrl(sq.END)
    tails = [[sq.MixedItem.text(41), start, lat(), lat(), end, sq.MixedItem.text(7)],
             [start, lat(), lat(), end, sq.MixedItem.text(52), sq.MixedItem.text(9)],
             [sq.MixedItem.text(12), sq.MixedItem.text(13), start, lat(), lat(), end]]
    cache = bb.DecodeCache(m.store, m.cfg, 1, m.cfg.max_len)
    cache.append(*arrays(m, sq.MixedSequence(prompt)))
    pre = cache.last_hidden.copy()
    assert np.max(np.abs(pre[0] - forward(m, sq.MixedSequence(prompt))[0][-1])) <= 1e-12
    cache.select([0] * 3)
    assert cache.streams == 3 and cache.length == len(prompt)
    assert np.array_equal(cache.last_hidden, np.repeat(pre, 3, axis=0))
    for step in range(len(tails[0])):
        ids, text_mask, latents = sq.to_arrays(sq.MixedSequence([t[step] for t in tails]), 16)
        cache.append(ids[:, None], text_mask[:, None], latents[:, None])
        for b in range(3):
            hidden, logits = forward(m, sq.MixedSequence(prompt + tails[b][: step + 1]))
            assert np.max(np.abs(cache.last_hidden[b] - hidden[-1])) <= 1e-12
            assert np.max(np.abs(cache.last_logits[b] - logits[-1])) <= 1e-12

    # dropping stream 1 leaves streams 0 and 2 as they were
    kt, v = cache.kt.copy(), cache.v.copy()
    hid, lg = cache.last_hidden.copy(), cache.last_logits.copy()
    cache.select([0, 2])
    assert cache.streams == 2
    assert np.array_equal(cache.kt, kt[:, [0, 2]]) and np.array_equal(cache.v, v[:, [0, 2]])
    assert np.array_equal(cache.last_hidden, hid[[0, 2]])
    assert np.array_equal(cache.last_logits, lg[[0, 2]])
    extra = [sq.MixedItem.text(20), sq.MixedItem.text(21)]

    def append_to_both(item):
        ids, text_mask, latents = sq.to_arrays(sq.MixedSequence([item, item]), 16)
        cache.append(ids[:, None], text_mask[:, None], latents[:, None])

    append_to_both(extra[0])
    for b, i in enumerate((0, 2)):
        _, logits = forward(m, sq.MixedSequence(prompt + tails[i] + extra[:1]))
        assert np.max(np.abs(cache.last_logits[b] - logits[-1])) <= 1e-12

    # lockstep streams overflow together at the cache's capacity
    while cache.length < m.cfg.max_len:
        append_to_both(extra[1])
    with pytest.raises(ValueError, match="decode cache's 24 positions"):
        append_to_both(extra[1])


def test_decode_cache_append_past_capacity_raises():
    """A cache holds the positions it was sized to, fewer than max_len here:
    an append that would pass them raises a ValueError naming the capacity
    and leaves the cache as it was."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=32, k_latent=2), seed=31)

    def text(*tokens):
        return sq.MixedSequence([sq.MixedItem.text(t) for t in tokens])

    def two_streams(*tokens):
        ids, text_mask, latents = arrays(m, text(*tokens))
        return ids.repeat(2, axis=0), text_mask.repeat(2, axis=0), latents.repeat(2, axis=0)

    cache = bb.DecodeCache(m.store, m.cfg, 2, 5)
    assert cache.kt.shape[-1] == 5 and cache.v.shape[-2] == 5
    cache.append(*two_streams(30, 31, 32))
    kt, v = cache.kt.copy(), cache.v.copy()
    with pytest.raises(ValueError, match="appending 3 items at position 3 overflows the decode cache's 5 positions"):
        cache.append(*two_streams(40, 41, 42))
    assert cache.length == 3 and np.array_equal(cache.kt, kt) and np.array_equal(cache.v, v)
    cache.append(*two_streams(40, 41))
    assert cache.length == 5
    _, logits = forward(m, text(30, 31, 32, 40, 41))
    assert np.max(np.abs(cache.last_logits - logits[-1])) <= 1e-12
    with pytest.raises(ValueError, match="appending 1 items at position 5 overflows"):
        cache.append(*two_streams(42))
    assert cache.length == 5


def test_decode_cache_append_advances_length_and_writes_only_its_positions():
    """An append of n items advances length by n and writes the keys and
    values of positions length..length+n, those of the items' q|k|v rows in
    a full forward, leaving every later position of the buffers zero."""
    m = build_model(ModelConfig(layers=2, heads=2, d=16, max_len=32, k_latent=2), seed=37)
    seq = make_seq(m, n_text=6, n_latent=2, rng=seeded_rng(5, "adv"))
    with ad.no_grad():
        _, _, qkvs = bb.forward_batch(m.store, m.cfg, *arrays(m, seq))
    assert len(qkvs) == m.cfg.layers
    hd = m.cfg.d // m.cfg.heads
    cache = bb.DecodeCache(m.store, m.cfg, 1, 12)
    for n in (4, 1, 4):
        start = cache.length
        cache.append(*arrays(m, sq.MixedSequence(seq.items[start : start + n])))
        assert cache.length == start + n
        for i, qkv in enumerate(qkvs):
            assert qkv.shape == (1, len(seq), 3 * m.cfg.d)
            k = qkv.data[0, :, m.cfg.d : 2 * m.cfg.d].reshape(len(seq), m.cfg.heads, hd)
            v = qkv.data[0, :, 2 * m.cfg.d :].reshape(len(seq), m.cfg.heads, hd)
            got_k = cache.kt[i, 0, :, :, start : start + n].transpose(2, 0, 1)
            got_v = cache.v[i, 0, :, start : start + n].transpose(1, 0, 2)
            assert np.max(np.abs(got_k - k[start : start + n])) <= 1e-12
            assert np.max(np.abs(got_v - v[start : start + n])) <= 1e-12
        assert not cache.kt[..., cache.length :].any() and not cache.v[:, :, :, cache.length :].any()


def test_forward_batch_over_cache_buffers_equals_append():
    """forward_batch given a cache's buffers as past and its length as start
    gives the logits append keeps and fills the buffers the same way, but the
    cache's length is append's alone to advance."""
    m = build_model(ModelConfig(layers=2, heads=2, d=16, max_len=32, k_latent=2), seed=41)
    seq = make_seq(m, n_text=7, n_latent=3, rng=seeded_rng(6, "past"))
    direct, appended = (bb.DecodeCache(m.store, m.cfg, 1, len(seq)) for _ in range(2))
    for cache in (direct, appended):
        cache.append(*arrays(m, sq.MixedSequence(seq.items[:5])))
    new = arrays(m, sq.MixedSequence(seq.items[5:]))
    with ad.no_grad():
        _, logits, _ = bb.forward_batch(m.store, m.cfg, *new, list(zip(direct.kt, direct.v)), direct.length)
    appended.append(*new)
    assert direct.length == 5 and appended.length == len(seq)
    assert np.array_equal(logits.data[:, -1], appended.last_logits)
    assert np.array_equal(direct.kt, appended.kt) and np.array_equal(direct.v, appended.v)
