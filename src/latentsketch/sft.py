"""Supervised fine-tuning on annotated interleaved traces.

The joint objective couples text cross-entropy over the positions whose next
item is text-or-control (START, END and EOS transitions included) with the
diffusion noise-regression loss over gold latent rows, weighted by lambda.
Two ablation modes: text_only drops the latent blocks from the sequences
entirely; similarity swaps the diffusion term for a cosine loss on a linear
projection of the hidden state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import diffusion as df
from . import inference as inf
from . import sequence as sq
from . import toyvision as tv
from . import vocab
from .autodiff import Tensor
from .model import HEAD_DIFFUSION, HEAD_SIMILARITY, Model, ModelConfig, save_model
from .optim import LrSchedule, adamw_step, clip_grad_norm, cosine_lr
from .util import ConfigError, fmt_float, seeded_rng

MODES = ("joint", "text_only", "similarity")

# the columns of metrics.csv, in order
METRICS_COLUMNS = ("step", "ce_loss", "diff_loss", "total_loss", "lr_backbone", "lr_diffusion", "grad_norm")


@dataclass
class SftConfig:
    mode: str = "joint"
    lam: float = 1.0
    lr_backbone: float = 1e-3
    lr_diffusion: float = 2e-2
    steps: int = 4000
    batch_size: int = 8
    m_latent: int = 4  # not a config key, SFT pools model.cfg.k_latent rows; perfbench/ reads it
    seed: int = 7
    weight_decay: float = 0.01
    warmup_frac: float = 0.03
    floor_frac: float = 0.1
    clip_norm: float = 1.0
    checkpoint_interval: int = 0
    # set-up of a fresh model before training (cli.run_sft_pipeline)
    encoder_pretrain_steps: int = 200
    encoder_lr: float = 1e-2

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sft mode {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("lr_backbone", "lr_diffusion", "encoder_lr", "clip_norm"):  # below zero, a step climbs the loss
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("steps", "encoder_pretrain_steps", "checkpoint_interval", "weight_decay",
                     "warmup_frac", "floor_frac"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        _schedules(self)  # LrSchedule checks the warmup and the floor

    @property
    def head(self) -> str:
        """The latent head this mode trains: the similarity head for
        similarity, the diffusion head otherwise."""
        return HEAD_SIMILARITY if self.mode == "similarity" else HEAD_DIFFUSION


def _schedules(cfg: SftConfig) -> dict[str, LrSchedule]:
    """The learning-rate schedule of each group SFT trains."""
    warmup = int(round(cfg.warmup_frac * cfg.steps))
    return {group: LrSchedule(lr, cfg.floor_frac * lr, warmup, max(cfg.steps, 1))
            for group, lr in (("backbone", cfg.lr_backbone), ("diffusion_head", cfg.lr_diffusion))}


@dataclass
class SupervisedExample:
    seq: sq.MixedSequence
    text_positions: np.ndarray    # positions whose next item is trained by CE
    ce_targets: np.ndarray        # token ids, aligned with text_positions
    cond_positions: np.ndarray    # positions conditioning each gold latent row
    latent_targets: np.ndarray    # [n_rows, d] pooled encoder rows


def fitting_traces(traces: list[tv.AnnotatedTrace], cfg: ModelConfig, mode: str) -> list[tv.AnnotatedTrace]:
    """The traces whose build_example sequence fits cfg.max_len: prompt, step texts, k_latent + 2
    items per sketch (none in text_only), answer and EOS.  Raises ConfigError when
    k_latent does not divide a sketch's patch rows or when no trace fits."""
    kept = []
    for trace in traces:
        sketches = [s.image for s in trace.steps if s.image is not None and mode != "text_only"]
        for rows in ((img.height // tv.PATCH) * (img.width // tv.PATCH) for img in sketches):
            if rows % cfg.k_latent:
                raise ConfigError(f"model.k_latent {cfg.k_latent} does not divide a sketch's {rows} patch rows")
        if (inf.prompt_length(trace) + sum(len(s.text) for s in trace.steps)
                + (cfg.k_latent + 2) * len(sketches) + len(trace.answer) + 1) <= cfg.max_len:
            kept.append(trace)
    if not kept:
        raise ConfigError(f"model.max_len {cfg.max_len} is too short for every one of the {len(traces)} traces")
    return kept


def build_example(trace: tv.AnnotatedTrace, model: Model, m: int,
                  mode: str = "joint") -> SupervisedExample:
    """Assemble the teacher-forced sequence and its supervision indices."""
    store, cfg = model.store, model.cfg
    items = inf.build_prompt(model, trace).items
    prompt_len = len(items)
    targets: list[np.ndarray] = []
    for step in trace.steps:
        items.extend(sq.MixedItem.text(t) for t in step.text)
        if step.image is None or mode == "text_only":
            continue
        pooled = tv.compress_latents(tv.encode_image(store, step.image), m)
        items.append(sq.MixedItem.ctrl(sq.START))
        items.extend(sq.MixedItem.latent(row) for row in pooled)
        items.append(sq.MixedItem.ctrl(sq.END))
        targets.append(pooled)
    items.extend(sq.MixedItem.text(t) for t in trace.answer)
    items.append(sq.MixedItem.ctrl(sq.EOS))

    text_pos, ce_targets, cond_pos = [], [], []
    # CE supervises the response only (the prompt is conditioning, not a target)
    for i in range(prompt_len - 1, len(items) - 1):
        nxt = items[i + 1]
        if nxt.kind == sq.TEXT or (nxt.kind == sq.CTRL and nxt.value in (sq.START, sq.END, sq.EOS)):
            text_pos.append(i)
            ce_targets.append(nxt.token_id())
        elif nxt.kind == sq.LATENT:
            cond_pos.append(i)
    latent_targets = np.concatenate(targets, axis=0) if targets else np.zeros((0, cfg.d))
    if len(cond_pos) != latent_targets.shape[0]:
        raise AssertionError("condition positions out of sync with latent targets")
    return SupervisedExample(sq.MixedSequence(items), np.array(text_pos, dtype=np.int64),
                             np.array(ce_targets, dtype=np.int64),
                             np.array(cond_pos, dtype=np.int64), latent_targets)


def _collate(examples: list[SupervisedExample], d: int):
    B = len(examples)
    L = max(len(ex.seq) for ex in examples)
    ids = np.full((B, L), vocab.PAD_ID, dtype=np.int64)
    text_mask = np.ones((B, L), dtype=np.float64)
    latents = np.zeros((B, L, d), dtype=np.float64)
    for b, ex in enumerate(examples):
        e_ids, e_mask, e_lat = sq.to_arrays(ex.seq, d)
        n = len(ex.seq)
        ids[b, :n] = e_ids
        text_mask[b, :n] = e_mask
        latents[b, :n] = e_lat
    return ids, text_mask, latents, L


def joint_loss(examples: list[SupervisedExample], model: Model, lam: float,
               rng: np.random.Generator, draws=None):
    """Batch loss: mean CE over each example's text positions plus lambda times
    the mean per-row latent term, each batch-averaged.  The latent term is the
    one of the model's head: noise regression for the diffusion head, the
    cosine loss for the similarity head.

    Returns (total Tensor, ce float, latent-term float).
    """
    if not examples:
        raise ValueError("empty batch")
    if all(ex.text_positions.size == 0 for ex in examples):
        raise ValueError("batch has no supervised text positions")
    store, cfg = model.store, model.cfg
    B = len(examples)
    ids, text_mask, latents, L = _collate(examples, cfg.d)
    hidden, logits, _ = bb.forward_batch(store, cfg, ids, text_mask, latents)

    ce_pos, ce_tgt, ce_w = [], [], []
    lat_pos, lat_tgt, lat_w = [], [], []
    for b, ex in enumerate(examples):
        ce_pos.append(b * L + ex.text_positions)
        ce_tgt.append(ex.ce_targets)
        ce_w.append(np.full(ex.text_positions.size, 1.0 / (B * ex.text_positions.size)))
        rows = ex.latent_targets.shape[0]
        if rows:
            lat_pos.append(b * L + ex.cond_positions)
            lat_tgt.append(ex.latent_targets)
            lat_w.append(np.full(rows, 1.0 / (B * rows)))
    logits_flat = ad.reshape(logits, (B * L, cfg.vocab))
    ce_rows = ad.cross_entropy(ad.take_rows(logits_flat, np.concatenate(ce_pos)),
                               np.concatenate(ce_tgt))
    ce = ad.sum_(ad.mul(ce_rows, Tensor(np.concatenate(ce_w))))

    if not lat_pos:
        return ce, ce.item(), 0.0

    hidden_flat = ad.reshape(hidden, (B * L, cfg.d))
    h_cond = ad.take_rows(hidden_flat, np.concatenate(lat_pos))
    tgt = np.concatenate(lat_tgt)
    weights = Tensor(np.concatenate(lat_w))
    if cfg.head == HEAD_SIMILARITY:
        row_term = _cosine_rows(ad.affine(h_cond, store["diffusion_head/sim_w"],
                                          store["diffusion_head/sim_b"]), tgt)
    else:
        c = ad.affine(h_cond, store["diffusion_head/cond_w"])
        row_term = df.noise_regression(tgt, c, store, model.sched, rng, draws)
    latent_term = ad.sum_(ad.mul(row_term, weights))
    total = ad.add(ce, ad.mul(latent_term, lam))
    return total, ce.item(), latent_term.item()


def _cosine_rows(pred: Tensor, target: np.ndarray) -> Tensor:
    """Per-row 1 - cosine(pred, target) with 1e-8 added to the norm denominators."""
    t = Tensor(target)
    dot = ad.sum_(ad.mul(pred, t), axis=1)
    pn = ad.add(ad.sqrt(ad.sum_(ad.mul(pred, pred), axis=1)), 1e-8)
    tn = np.sqrt(np.sum(target * target, axis=1)) + 1e-8
    return ad.sub(1.0, ad.div(dot, ad.mul(pn, Tensor(tn))))


# -- training loop ------------------------------------------------------------------


def periodic_checkpoint_path(final_path: str, step: int) -> str:
    base, ext = os.path.splitext(final_path)
    return f"{base}_{step:06d}{ext}"


def batch_indices(step: int, batch_size: int, n: int, seed: int) -> np.ndarray:
    """Stateless per-step batch selection: seeded per-epoch permutation, wrapping."""
    out = []
    pos = step * batch_size
    while len(out) < batch_size:
        epoch, off = divmod(pos, n)
        perm = seeded_rng(seed, "epoch", epoch).permutation(n)
        take = min(batch_size - len(out), n - off)
        out.extend(perm[off : off + take])
        pos += take
    return np.asarray(out, dtype=np.int64)


def train_sft(model: Model, traces: list[tv.AnnotatedTrace], cfg: SftConfig,
              metrics_path: str | None = None, checkpoint_path: str | None = None,
              start_step: int = 0, end_step: int | None = None) -> list[dict]:
    """Run the selected mode's objective; returns the per-step metrics rows.

    Deterministic under a fixed config: batches and sampling draws are derived
    statelessly from (seed, step), so a resumed run is bitwise identical to an
    uninterrupted one.  Each trace must fit max_len (fitting_traces keeps those that do).
    """
    if not traces:
        raise ValueError("empty dataset")
    if model.cfg.head != cfg.head:
        raise ValueError(f"sft mode {cfg.mode} trains the {cfg.head} head, but the model has "
                         f"the {model.cfg.head} head")
    scheds = _schedules(cfg)
    n = len(traces)
    metrics: list[dict] = []
    mf = None
    if metrics_path is not None:
        mode = "a" if start_step > 0 and os.path.exists(metrics_path) else "w"
        mf = open(metrics_path, mode, encoding="utf-8")
        if mode == "w":
            mf.write(",".join(METRICS_COLUMNS) + "\n")

    stop = cfg.steps if end_step is None else min(end_step, cfg.steps)
    try:
        for step in range(start_step, stop):
            idx = batch_indices(step, cfg.batch_size, n, cfg.seed)
            examples = [build_example(traces[i], model, model.cfg.k_latent, cfg.mode) for i in idx]
            rng = seeded_rng(cfg.seed, "sft-step", step)
            try:
                total, ce, diff = joint_loss(examples, model, cfg.lam, rng)
                model.store.zero_grad()
                ad.backward(total, model.store)
            except FloatingPointError as e:
                raise FloatingPointError(f"non-finite loss at step {step}: {e}") from e
            grad_norm = clip_grad_norm(model.store, cfg.clip_norm)
            lr_b = cosine_lr(step + 1, scheds["backbone"])
            lr_d = cosine_lr(step + 1, scheds["diffusion_head"])
            adamw_step(model.store, {"backbone": lr_b, "diffusion_head": lr_d}, weight_decay=cfg.weight_decay)
            row = {"step": step, "ce_loss": ce, "diff_loss": diff, "total_loss": total.item(),
                   "lr_backbone": lr_b, "lr_diffusion": lr_d, "grad_norm": grad_norm}
            metrics.append(row)
            if mf is not None:
                mf.write(",".join([str(step)] + [fmt_float(row[k]) for k in METRICS_COLUMNS[1:]]) + "\n")
                mf.flush()
            if checkpoint_path and cfg.checkpoint_interval and (step + 1) % cfg.checkpoint_interval == 0:
                save_model(periodic_checkpoint_path(checkpoint_path, step + 1), model, step=step + 1)
    finally:
        if mf is not None:
            mf.close()
    if checkpoint_path:
        save_model(checkpoint_path, model, step=stop)
    return metrics
