"""Decoder-only transformer over mixed text/latent/control sequences.

Pre-norm residual blocks with causal self-attention and a GELU MLP of width
4d.  Text and control items go through the token-embedding table; latent items
are injected unchanged (they already live in model space by construction).
Logits at position i predict item i+1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import sequence as sq
from .autodiff import Tensor
from .optim import ParamStore

if TYPE_CHECKING:  # model imports this module
    from .model import ModelConfig


def init_backbone(store: ParamStore, cfg: ModelConfig, rng: np.random.Generator) -> None:
    d, v = cfg.d, cfg.vocab
    std = 0.02

    def lin(name, shape):
        store.add(name, rng.normal(0.0, std, shape), "backbone")

    lin("backbone/tok_emb", (v, d))
    lin("backbone/pos_emb", (cfg.max_len, d))
    for i in range(cfg.layers):
        p = f"backbone/layer{i}"
        store.add(f"{p}/ln1/g", np.ones(d), "backbone")
        store.add(f"{p}/ln1/b", np.zeros(d), "backbone")
        lin(f"{p}/attn/wqkv", (d, 3 * d))
        store.add(f"{p}/attn/bqkv", np.zeros(3 * d), "backbone")
        lin(f"{p}/attn/wo", (d, d))
        store.add(f"{p}/attn/bo", np.zeros(d), "backbone")
        store.add(f"{p}/ln2/g", np.ones(d), "backbone")
        store.add(f"{p}/ln2/b", np.zeros(d), "backbone")
        lin(f"{p}/mlp/w1", (d, 4 * d))
        store.add(f"{p}/mlp/b1", np.zeros(4 * d), "backbone")
        lin(f"{p}/mlp/w2", (4 * d, d))
        store.add(f"{p}/mlp/b2", np.zeros(d), "backbone")
    store.add("backbone/ln_f/g", np.ones(d), "backbone")
    store.add("backbone/ln_f/b", np.zeros(d), "backbone")
    lin("backbone/lm_head/w", (d, v))
    store.add("backbone/lm_head/b", np.zeros(v), "backbone")
    # conditioning projection c = W h feeding the latent decoder
    store.add("diffusion_head/cond_w", rng.normal(0.0, std, (d, d)), "diffusion_head")


def embed_batch(store: ParamStore, cfg: ModelConfig, ids: np.ndarray,
                text_mask: np.ndarray, latents: np.ndarray, start: int = 0) -> Tensor:
    """Embeddings [B, L, d] of items at positions start..start+L."""
    L = ids.shape[-1]
    if start + L > cfg.max_len:
        raise ValueError(f"sequence length {start + L} exceeds max_len {cfg.max_len}")
    return ad.mixed_embed(store["backbone/tok_emb"], store["backbone/pos_emb"],
                          ids, text_mask, latents, start)


def forward_batch(store: ParamStore, cfg: ModelConfig, ids: np.ndarray,
                  text_mask: np.ndarray, latents: np.ndarray, past: list | None = None, start: int = 0):
    """Returns (hidden [B,L,d], text_logits [B,L,V], each layer's q|k|v Tensor [B,L,3d]).

    With past, the items continue a sequence of start earlier positions: they
    sit at positions start.. and each layer attends over its entry of past,
    in either form autodiff.attention takes.  A decode cache's (kt, v)
    buffers are written at positions start..start+L and read as constants;
    an earlier pass's q|k|v Tensor [B, start, 3d] is attended over
    differentiably.
    """
    x = embed_batch(store, cfg, ids, text_mask, latents, start)
    past = past or [None] * cfg.layers
    qkvs = []
    for i in range(cfg.layers):
        p = f"backbone/layer{i}"
        a_in = ad.layer_norm(x, store[f"{p}/ln1/g"], store[f"{p}/ln1/b"])
        qkv = ad.affine(a_in, store[f"{p}/attn/wqkv"], store[f"{p}/attn/bqkv"])
        qkvs.append(qkv)
        ctx, _ = ad.attention(qkv, cfg.heads, past[i], start)
        x = ad.add(x, ad.affine(ctx, store[f"{p}/attn/wo"], store[f"{p}/attn/bo"]))
        m_in = ad.layer_norm(x, store[f"{p}/ln2/g"], store[f"{p}/ln2/b"])
        hmid = ad.gelu(ad.affine(m_in, store[f"{p}/mlp/w1"], store[f"{p}/mlp/b1"]))
        x = ad.add(x, ad.affine(hmid, store[f"{p}/mlp/w2"], store[f"{p}/mlp/b2"]))
    hidden = ad.layer_norm(x, store["backbone/ln_f/g"], store["backbone/ln_f/b"])
    logits = ad.affine(hidden, store["backbone/lm_head/w"], store["backbone/lm_head/b"])
    return hidden, logits, qkvs


class DecodeCache:
    """Incremental decoding state of B streams decoded in lockstep: each
    layer's keys (stored transposed, [layers, B, heads, hd, positions]) and
    values ([layers, B, heads, positions, hd]) for the positions decoded so
    far.  A decode sizes it to its prompt plus its budget, not to max_len.

    Every stream has the same length, the positions filled so far, which only
    append advances.  One forward_batch over [B, n] items, given the buffers
    as past, appends n items to each, costing O(n * L) attention instead of
    a full O(L^2) re-forward.  P prompts of one length are prefilled as P streams
    and copied to the streams that decode them with select (select([0] * B)
    copies one prompt to B streams); select also drops finished streams.
    """

    def __init__(self, store: ParamStore, cfg: ModelConfig, streams: int, positions: int):
        self.store = store
        self.cfg = cfg
        hd = cfg.d // cfg.heads
        self.kt = np.zeros((cfg.layers, streams, cfg.heads, hd, positions))
        self.v = np.zeros((cfg.layers, streams, cfg.heads, positions, hd))
        self.length = 0
        self.last_hidden: np.ndarray | None = None  # [B, d]
        self.last_logits: np.ndarray | None = None  # [B, V]

    @property
    def streams(self) -> int:
        return self.kt.shape[1]

    def append(self, ids: np.ndarray, text_mask: np.ndarray, latents: np.ndarray) -> None:
        """Process n new items per stream (ids [B, n]): cache their K/V and
        keep the hidden and logits rows of the last one."""
        positions = self.kt.shape[-1]
        if self.length + ids.shape[1] > positions:
            raise ValueError(f"appending {ids.shape[1]} items at position {self.length} overflows "
                             f"the decode cache's {positions} positions")
        with ad.no_grad():
            hidden, logits, _ = forward_batch(self.store, self.cfg, ids, text_mask, latents,
                                              list(zip(self.kt, self.v)), self.length)
        self.length += ids.shape[1]
        self.last_hidden = hidden.data[:, -1]
        self.last_logits = logits.data[:, -1]

    def select(self, rows) -> None:
        """Keep the streams at `rows`, in that order; the others are dropped.
        A row may repeat, so select([0] * B) copies one stream to B."""
        self.kt = self.kt[:, rows]
        self.v = self.v[:, rows]
        if self.last_hidden is not None:
            self.last_hidden = self.last_hidden[rows]
            self.last_logits = self.last_logits[rows]


def attention_maps(store: ParamStore, cfg: ModelConfig, seq: sq.MixedSequence, layer: int) -> np.ndarray:
    """Post-softmax attention weights [heads, L, L] at one layer, from its
    q|k|v rows of one forward over the sequence."""
    if not 0 <= layer < cfg.layers:
        raise ValueError(f"layer {layer} out of range [0, {cfg.layers})")
    ids, text_mask, latents = sq.to_arrays(seq, cfg.d)
    with ad.no_grad():
        _, _, qkvs = forward_batch(store, cfg, ids[None], text_mask[None], latents[None])
        _, att = ad.attention(qkvs[layer], cfg.heads)
    return att[0]
