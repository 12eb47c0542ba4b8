"""Modal-mixed generation: text decoding that switches to diffusion latent
emission for exactly K steps upon START, then resumes text; a language-only
mode that masks START (and therefore never touches the diffusion module); and
attention-map export over the input-image context.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, NoReturn

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import diffusion as df
from . import sequence as sq
from . import toyvision as tv
from . import vocab
from .model import Model
from .util import atomic_write, usable_cores

# default generation budget in items: the longest gold response is a 3-turn
# grid_rotation answer of 52 items at K=4 (visual_search needs at most 21)
MAX_NEW_ITEMS = 64

# chunks a lockstep pass is split over (_chunk_count): two is the count
# measured faster than one, on 2 cores; more are untried on more cores
MAX_CHUNKS = 2


@dataclass
class GenerationConfig:
    mode: str                      # mixed | language_only
    max_new_items: int
    temperature: float             # 0 = greedy, ties break at lowest token id

    def __post_init__(self):
        if self.mode not in ("mixed", "language_only"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


@dataclass
class Emission:
    """One scored decoding decision: sequence position, emitted id, decision
    mask, and the id's log-probability under the masked, tempered
    distribution it was drawn from (masked_logprobs)."""
    position: int
    token_id: int
    mask: np.ndarray  # bool [V], True = masked out
    logprob: float


@dataclass
class GenResult:
    seq: sq.MixedSequence
    truncated: bool
    emissions: list[Emission] = field(default_factory=list)
    new_items: int = 0


def decision_mask(cfg_mode: str, k: int, remaining_budget: int, vocab_size: int) -> np.ndarray:
    """Which vocabulary entries are unsampleable at this decision point.

    PAD and BOS are never generated; END is appended mechanically after K
    latents, never sampled; START is masked in language-only mode and whenever
    a full block (START + K latents + END) cannot fit the remaining budget.
    The budget fits max_len (generate_group checks it), so a block that fits
    the budget fits max_len too.
    """
    mask = np.zeros(vocab_size, dtype=bool)
    mask[vocab.PAD_ID] = True
    mask[vocab.BOS_ID] = True
    mask[vocab.END_ID] = True
    if cfg_mode == "language_only" or remaining_budget < k + 2:
        mask[vocab.START_ID] = True
    return mask


def masked_logprobs(logits: np.ndarray, mask: np.ndarray, temperature: float) -> np.ndarray:
    """Log-probabilities of the tempered, masked sampling distribution."""
    z = logits / (temperature if temperature > 0 else 1.0) + np.where(mask, ad.MASK_VALUE, 0.0)
    m = np.max(z)
    return z - (m + np.log(np.sum(np.exp(z - m))))


def generate(prompt: sq.MixedSequence, model: Model, cfg: GenerationConfig,
             rng: np.random.Generator) -> GenResult:
    """Decode from a grammatical prompt; output always passes grammar validation."""
    return generate_group([prompt], model, cfg, [rng])[0]


def generate_group(prompts: list[sq.MixedSequence], model: Model, cfg: GenerationConfig,
                   rngs: list[np.random.Generator]) -> list[GenResult]:
    """Decode stream g from prompts[g] with rngs[g]; results in input order.
    The call consumes the generators: a caller draws nothing more from them.

    The prompts may have any lengths.  The streams of each prompt length, in
    order of first appearance, are decoded in one lockstep pass, split into
    chunks that decode at once (_decode_chunks).  Stream g equals a one-stream
    decode of prompts[g] with rngs[g] bit for bit, however the streams are
    chunked (ad.row_product), so no two streams may share a generator; every
    output passes grammar validation.  A prompt longer than max_len less the
    budget is rejected, so the budget alone bounds every stream within max_len.
    """
    if not prompts or len(prompts) != len(rngs):
        raise ValueError(f"{len(prompts)} prompts for {len(rngs)} generators")
    first_stream: dict[int, int] = {}
    for g, rng in enumerate(rngs):
        if first_stream.setdefault(id(rng), g) != g:
            raise ValueError(f"streams {first_stream[id(rng)]} and {g} share one generator")
    k = model.cfg.k_latent
    for p in {id(p): p for p in prompts}.values():
        sq.validate(p, k)
        if p.items and p.items[-1].kind == sq.CTRL and p.items[-1].value == sq.EOS:
            raise ValueError("prompt already ends with EOS")
        if len(p) > model.cfg.max_len - cfg.max_new_items:
            raise ValueError("prompt too long for the requested generation budget")
    by_length: dict[int, list[int]] = {}
    for g, p in enumerate(prompts):
        by_length.setdefault(len(p), []).append(g)
    results: dict[int, GenResult] = {}
    for streams in by_length.values():
        results.update(zip(streams, _decode_chunks([prompts[g] for g in streams], model, cfg,
                                                   [rngs[g] for g in streams])))
    return [results[g] for g in range(len(prompts))]


def _chunk_count(streams: int) -> int:
    """Chunks a lockstep pass of this many streams is split into: MAX_CHUNKS
    where that many cores are usable and each chunk gets at least two
    streams, else fewer.  One where os.fork is absent, or where other Python
    threads run: a forked child holds only the calling thread, and a lock
    another thread held stays locked in it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(MAX_CHUNKS, usable_cores(), streams // 2))


def _decode_chunks(prompts: list[sq.MixedSequence], model: Model, cfg: GenerationConfig,
                   rngs: list[np.random.Generator]) -> list[GenResult]:
    """_generate_lockstep of the streams of one prompt length, split into
    W = _chunk_count chunks that run at once: chunk i holds streams i, i + W,
    i + 2W, ..., so each chunk gets its share of every prompt's streams.  Chunk
    0 runs in this process, each other one in a forked child.  The results
    are the serial decode's, bit for bit; the generators of a child's chunk
    are left where the fork found them, since every caller drops them.

    A child sends back its results and its diffusion.CALLS delta, or the
    exception it raised.  This process adds those counts, and raises a
    child's exception as its own; each chunk calls the sampler at the steps
    one of its streams is in a block, so CALLS counts the calls of every
    chunk.  No child outlives the call: each is reaped, and killed first if
    still running.
    """
    w = _chunk_count(len(prompts))
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) of chunks 1..W-1
    try:
        for i in range(1, w):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _decode_in_child(read_fd, write_fd, prompts[i::w], model, cfg, rngs[i::w])
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results: list[GenResult] = [None] * len(prompts)
        results[0::w] = _generate_lockstep(prompts[0::w], model, cfg, rngs[0::w])
        for i, (pid, pipe) in enumerate(children, 1):
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"decode child {pid} exited without a result") from None
            if isinstance(outcome, BaseException):
                raise outcome
            results[i::w], calls = outcome
            for key, n in calls.items():
                df.CALLS[key] += n
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _decode_in_child(read_fd: int, write_fd: int, prompts: list[sq.MixedSequence], model: Model,
                     cfg: GenerationConfig, rngs: list[np.random.Generator]) -> NoReturn:
    """A forked child's whole life: decode its chunk, pickle the outcome (its
    results and its diffusion.CALLS delta, or its exception) to write_fd, and
    leave through os._exit, so it never returns into the caller's stack.  It
    closes its copy of the read end first, so a write fails rather than
    blocks once the parent is gone."""
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            before = dict(df.CALLS)
            try:
                results = _generate_lockstep(prompts, model, cfg, rngs)
            except Exception as e:
                pickle.dump(e, pipe)
                raise
            pickle.dump((results, {key: df.CALLS[key] - n for key, n in before.items()}), pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _generate_lockstep(prompts: list[sq.MixedSequence], model: Model, cfg: GenerationConfig,
                       rngs: list[np.random.Generator]) -> list[GenResult]:
    """Decode the streams of prompts of one length in lockstep.

    One length because the decode cache keeps one offset for all its streams.
    Each distinct prompt object is prefilled once, all in one batched append,
    and its keys and values copied to every stream that decodes it.  Each step
    every live stream appends one item (a text token, START, a latent row or
    END), so the live streams keep one length: the streams inside a block get
    their rows from one batched emit_block call, the others draw a token with
    their own mask from their own generator, and one forward_batch appends the
    items of all.
    """
    k = model.cfg.k_latent
    distinct = list({id(p): p for p in prompts}.values())  # each prompt object once
    slot = {id(p): i for i, p in enumerate(distinct)}  # its prefill stream
    store, mcfg = model.store, model.cfg
    # generate_group bounds the prompt plus the budget by max_len
    cache = bb.DecodeCache(store, mcfg, len(distinct), len(prompts[0]) + cfg.max_new_items)
    arrays = [sq.to_arrays(p, mcfg.d) for p in distinct]
    cache.append(*(np.stack(a) for a in zip(*arrays)))
    cache.select([slot[id(p)] for p in prompts])
    results = [GenResult(p.copy(), truncated=False) for p in prompts]
    block_left = [0] * len(rngs)  # items of the open latent block still to append, END included
    live = list(range(len(rngs)))  # the result of each cache stream
    while live:
        keep, items, block_rows = [], [], []
        for s, g in enumerate(live):
            res = results[g]
            if block_left[g]:
                block_left[g] -= 1
                if block_left[g]:
                    block_rows.append(len(items))
                    item = None  # a latent row, drawn below
                else:
                    item = sq.MixedItem.ctrl(sq.END)
            elif res.new_items >= cfg.max_new_items:
                res.truncated = True
                continue
            else:
                row = cache.last_logits[s]
                mask = decision_mask(cfg.mode, k, cfg.max_new_items - res.new_items, mcfg.vocab)
                logp = masked_logprobs(row, mask, cfg.temperature)
                if cfg.temperature == 0:
                    tok = int(np.argmax(np.where(mask, -np.inf, row)))
                else:
                    tok = int(rngs[g].choice(mcfg.vocab, p=np.exp(logp)))
                res.emissions.append(Emission(len(res.seq), tok, mask, float(logp[tok])))
                if tok == vocab.EOS_ID:
                    res.seq.append(sq.MixedItem.ctrl(sq.EOS))
                    res.new_items += 1
                    continue
                if tok == vocab.START_ID:
                    item = sq.MixedItem.ctrl(sq.START)
                    block_left[g] = k + 1
                else:
                    item = sq.MixedItem.text(tok)
            keep.append(s)
            items.append(item)
        if block_rows:
            block = [keep[i] for i in block_rows]  # the cache streams inside a block
            rows = df.emit_block(cache.last_hidden[block], store, model.sched,
                                 [rngs[live[s]] for s in block], model.cfg.head)
            for i, vec in zip(block_rows, rows):
                items[i] = sq.MixedItem.latent(vec)
        live = [live[s] for s in keep]
        for g, item in zip(live, items):
            results[g].seq.append(item)
            results[g].new_items += 1
        if not live:
            break
        if len(keep) < cache.streams:
            cache.select(keep)
        ids, text_mask, latents = sq.to_arrays(sq.MixedSequence(items), mcfg.d)
        cache.append(ids[:, None], text_mask[:, None], latents[:, None])
    for res in results:
        sq.validate(res.seq, k)
    return results


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
    att = bb.attention_maps(model.store, model.cfg, seq, layer)  # [heads, L, L]
    rows = att[:, block_positions, :][:, :, ctx_positions]
    heat = rows.mean(axis=(0, 1))
    side = int(round(np.sqrt(len(ctx_positions))))
    grid = heat.reshape(side, side)
    atomic_write(out_path, tv.render_pgm(grid, grid.max()))
    sidecar = {
        "layer": layer,
        "patch_grid": [side, side],
        "latent_positions": block_positions,
        "context_positions": ctx_positions,
        "values": grid.tolist(),
    }
    atomic_write(out_path + ".values.json", json.dumps(sidecar, indent=2) + "\n")
    return grid


def build_prompt(model: Model, trace) -> sq.MixedSequence:
    """BOS, the raw input-image context rows, then the question tokens."""
    ctx = tv.encode_image(model.store, trace.input_image)
    items = [sq.MixedItem.ctrl(sq.BOS)]
    items.extend(sq.MixedItem.latent(row) for row in ctx)
    items.extend(sq.MixedItem.text(t) for t in trace.question)
    return sq.MixedSequence(items)


def prompt_length(trace) -> int:
    """len(build_prompt(model, trace)), from the trace alone."""
    img = trace.input_image
    return 1 + (img.height // tv.PATCH) * (img.width // tv.PATCH) + len(trace.question)


def gold_answer(trace) -> list[int]:
    """The answer span the model is graded against (text after the marker)."""
    ids = list(trace.answer)
    if vocab.ANSWER_MARKER_ID in ids:
        return ids[ids.index(vocab.ANSWER_MARKER_ID) + 1 :]
    return ids
