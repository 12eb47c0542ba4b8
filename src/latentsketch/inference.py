"""Modal-mixed generation: text decoding that switches to diffusion latent
emission for exactly K steps upon START, then resumes text; a language-only
mode that masks START (and therefore never touches the diffusion module); and
attention-map export over the input-image context.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import diffusion as df
from . import sequence as sq
from . import vocab
from .model import Model, HEAD_SIMILARITY
from .util import atomic_write_bytes, atomic_write_text

MASK_NEG = -1e30

# default generation budget in items: the longest gold response is a 3-turn
# grid_rotation answer of 52 items at K=4 (visual_search needs at most 21)
MAX_NEW_ITEMS = 64


@dataclass
class GenerationConfig:
    mode: str = "mixed"            # mixed | language_only
    max_new_items: int = MAX_NEW_ITEMS
    temperature: float = 0.0       # 0 = greedy, ties break at lowest token id

    def __post_init__(self):
        if self.mode not in ("mixed", "language_only"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


@dataclass
class Emission:
    """One scored decoding decision: sequence position, emitted id, decision mask."""
    position: int
    token_id: int
    mask: np.ndarray  # bool [V], True = masked out


@dataclass
class GenResult:
    seq: sq.MixedSequence
    truncated: bool
    emissions: list[Emission] = field(default_factory=list)
    new_items: int = 0


def decision_mask(cfg_mode: str, k: int, remaining_budget: int, seq_len: int, max_len: int,
                  vocab_size: int) -> np.ndarray:
    """Which vocabulary entries are unsampleable at this decision point.

    PAD and BOS are never generated; END is appended mechanically after K
    latents, never sampled; START is masked in language-only mode and whenever
    a full block (START + K latents + END) cannot fit the remaining budget.
    """
    mask = np.zeros(vocab_size, dtype=bool)
    mask[vocab.PAD_ID] = True
    mask[vocab.BOS_ID] = True
    mask[vocab.END_ID] = True
    if cfg_mode == "language_only" or remaining_budget < k + 2 or seq_len + k + 2 > max_len:
        mask[vocab.START_ID] = True
    return mask


def masked_logprobs(logits: np.ndarray, mask: np.ndarray, temperature: float) -> np.ndarray:
    """Log-probabilities of the tempered, masked sampling distribution."""
    z = logits / (temperature if temperature > 0 else 1.0) + np.where(mask, MASK_NEG, 0.0)
    m = np.max(z)
    return z - (m + np.log(np.sum(np.exp(z - m))))


def generate(prompt: sq.MixedSequence, model: Model, cfg: GenerationConfig,
             rng: np.random.Generator) -> GenResult:
    """Decode from a grammatical prompt; output always passes grammar validation."""
    k = model.bcfg.k_latent
    sq.validate(prompt, k)
    if prompt.items and prompt.items[-1].kind == sq.CTRL and prompt.items[-1].value == sq.EOS:
        raise ValueError("prompt already ends with EOS")
    if len(prompt) > model.bcfg.max_len - cfg.max_new_items:
        raise ValueError("prompt too long for the requested generation budget")
    out = prompt.copy()
    result = GenResult(out, truncated=False)
    store, bcfg = model.store, model.bcfg
    cache = bb.DecodeCache(store, bcfg)
    cache.append_seq_items(out.items)
    while result.new_items < cfg.max_new_items and len(out) < bcfg.max_len:
        row = cache.last_logits
        mask = decision_mask(cfg.mode, k, cfg.max_new_items - result.new_items,
                             len(out), bcfg.max_len, bcfg.vocab)
        logp = masked_logprobs(row, mask, cfg.temperature)
        if cfg.temperature == 0:
            tok = int(np.argmax(np.where(mask, -np.inf, row)))
        else:
            tok = int(rng.choice(bcfg.vocab, p=np.exp(logp)))
        result.emissions.append(Emission(len(out), tok, mask))
        if tok == vocab.START_ID:
            start = sq.MixedItem.ctrl(sq.START)
            out.append(start)
            cache.append_seq_items([start])
            block = df.emit_block(out, store, bcfg, model.sched, rng, cache, head=model.cfg.head)
            for vec in block.vectors:
                out.append(sq.MixedItem.latent(vec))
            end = sq.MixedItem.ctrl(sq.END)
            out.append(end)
            cache.append_seq_items([end])
            result.new_items += k + 2
        elif tok == vocab.EOS_ID:
            out.append(sq.MixedItem.ctrl(sq.EOS))
            result.new_items += 1
            break
        else:
            item = sq.MixedItem.text(tok)
            out.append(item)
            cache.append_seq_items([item])
            result.new_items += 1
    else:
        result.truncated = True
    sq.validate(out, k)
    return result


def extract_answer(seq: sq.MixedSequence) -> list[int]:
    """Tokens after the final END (whole sequence if no block), preferring the
    span after the last answer marker; control tokens stripped."""
    items = seq.items
    last_end = -1
    for i, it in enumerate(items):
        if it.kind == sq.CTRL and it.value == sq.END:
            last_end = i
    span = items[last_end + 1 :]
    text_ids = [it.value for it in span if it.kind == sq.TEXT]
    if vocab.ANSWER_MARKER_ID in text_ids:
        marker_at = len(text_ids) - 1 - text_ids[::-1].index(vocab.ANSWER_MARKER_ID)
        return text_ids[marker_at + 1 :]
    # fallback: the trailing run of consecutive text items
    trailing: list[int] = []
    for it in reversed(span):
        if it.kind == sq.TEXT:
            trailing.append(it.value)
        elif it.kind == sq.CTRL and it.value == sq.EOS:
            continue
        else:
            break
    return trailing[::-1]


def export_attention(seq: sq.MixedSequence, model: Model, layer: int, out_path: str) -> np.ndarray:
    """Average the attention rows of all emitted-latent positions (across heads)
    at one layer, restricted to the input-image context columns, reshaped to
    the patch grid.  Writes a PGM heatmap plus a JSON sidecar of raw values."""
    items = seq.items
    ctx_positions = []
    i = 1
    while i < len(items) and items[i].kind == sq.LATENT:
        ctx_positions.append(i)
        i += 1
    block_positions = [j for j in range(i, len(items)) if items[j].kind == sq.LATENT]
    if not block_positions:
        raise ValueError("sequence contains no latent block")
    if not ctx_positions:
        raise ValueError("sequence has no input-image context to project onto")
    att = bb.attention_maps(model.store, model.bcfg, seq, layer)  # [heads, L, L]
    rows = att[:, block_positions, :][:, :, ctx_positions]
    heat = rows.mean(axis=(0, 1))
    side = int(round(np.sqrt(len(ctx_positions))))
    grid = heat.reshape(side, side)

    peak = grid.max()
    pixels = np.zeros_like(grid, dtype=np.uint8) if peak <= 0 else \
        np.round(grid / peak * 255.0).astype(np.uint8)
    header = f"P5\n{side} {side}\n255\n".encode("ascii")
    atomic_write_bytes(out_path, header + pixels.tobytes())
    sidecar = {
        "layer": layer,
        "patch_grid": [side, side],
        "latent_positions": block_positions,
        "context_positions": ctx_positions,
        "values": grid.tolist(),
    }
    atomic_write_text(out_path + ".values.json", json.dumps(sidecar, indent=2) + "\n")
    return grid


def build_prompt(model: Model, trace) -> sq.MixedSequence:
    """BOS, the raw input-image context rows, then the question tokens."""
    from . import toyvision as tv

    ctx = tv.encode_image(model.store, trace.input_image).tokens
    items = [sq.MixedItem.ctrl(sq.BOS)]
    items.extend(sq.MixedItem.latent(row) for row in ctx)
    items.extend(sq.MixedItem.text(t) for t in trace.question)
    return sq.MixedSequence(items)


def gold_answer(trace) -> list[int]:
    """The answer span the model is graded against (text after the marker)."""
    ids = list(trace.answer)
    if vocab.ANSWER_MARKER_ID in ids:
        return ids[ids.index(vocab.ANSWER_MARKER_ID) + 1 :]
    return ids
