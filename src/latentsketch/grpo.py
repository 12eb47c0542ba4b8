"""Group-relative policy optimization over modal-mixed rollouts.

For each query, G trajectories are sampled from the frozen behavior policy,
scored with an exact-match reward, and group-normalized into advantages.  The
clipped-ratio surrogate is ascended on text-token positions only: latent
positions carry no log-probability, so the diffusion head receives exactly
zero gradient by construction.  The step trains the backbone alone: the
diffusion head and the vision encoder keep their values and the AdamW
moments SFT left them.  A minibatch runs one backward per live group, so one
group's graph is alive at a time; the groups share only the parameters, so
the gradients equal, bit for bit, those of the minibatch's summed loss, and
one clip and one AdamW step follow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import inference as inf
from . import sequence as sq
from . import toyvision as tv
from . import vocab
from .autodiff import Tensor
from .model import Model, save_model
from .optim import adamw_step, clip_grad_norm
from .util import fmt_float, seeded_rng

# the columns of rl_metrics.csv, in order
METRICS_COLUMNS = ("iter", "mean_reward", "clip_fraction", "frac_degenerate", "mean_len")


@dataclass
class GrpoConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    lr: float = 1e-4
    temperature: float = 0.8
    max_new_items: int = inf.MAX_NEW_ITEMS
    iters: int = 300
    seed: int = 0
    queries_per_iter: int = 4
    groups_per_step: int = 2
    weight_decay: float = 0.0
    clip_norm: float = 1.0

    def __post_init__(self):
        if not 0 <= self.clip_eps < 1:
            raise ValueError("clip_eps must be in [0, 1)")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        for name in ("queries_per_iter", "groups_per_step", "max_new_items"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "clip_norm"):  # below zero, a step climbs the loss
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("iters", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # greedy rollouts of a group are identical, so every group would be degenerate
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass
class Rollout:
    seq: sq.MixedSequence
    emissions: list[inf.Emission]
    reward: float
    logprobs_old: np.ndarray
    new_items: int  # items decoded after the prompt


@dataclass
class RolloutGroup:
    query_id: int
    rollouts: list[Rollout]
    advantages: np.ndarray

    @property
    def degenerate(self) -> bool:
        return bool(np.all(self.advantages == 0.0))


def canonical_answer(tokens: list[int]) -> tuple[int, ...]:
    """Strip surrounding whitespace tokens and case-fold letter tokens."""
    toks = list(tokens)
    while toks and toks[0] in vocab.WHITESPACE_IDS:
        toks.pop(0)
    while toks and toks[-1] in vocab.WHITESPACE_IDS:
        toks.pop()
    return tuple(vocab.CASEFOLD.get(t, t) for t in toks)


def reward(answer_tokens: list[int], gold_tokens: list[int]) -> float:
    """1 iff the canonicalized answer equals the canonicalized gold, else 0."""
    if not gold_tokens:
        raise ValueError("gold answer must be non-empty")
    if not answer_tokens:
        return 0.0
    return 1.0 if canonical_answer(answer_tokens) == canonical_answer(gold_tokens) else 0.0


def advantages(rewards: np.ndarray) -> np.ndarray:
    """(r - mean) / population std; a degenerate group (std ~ 0) gets all zeros."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError("advantages require a group of at least 2")
    std = float(np.std(r))
    if std < 1e-8:
        return np.zeros_like(r)
    return (r - np.mean(r)) / std


@dataclass
class PromptPass:
    """One differentiable forward of the prompt shared by a group's rollouts:
    its length P, the logits [1, V] of its last row (they predict item P) and
    each layer's q|k|v Tensor [1, P, 3d], over which the rollouts' continuations
    attend."""
    length: int
    last_logits: Tensor
    qkv: list[Tensor]


def prompt_pass(model: Model, rollouts: list[Rollout]) -> PromptPass:
    """Forward the rollouts' shared prompt, their first len(seq) - new_items
    items, once; ValueError unless every rollout starts with that prompt."""
    first = rollouts[0]
    P = len(first.seq) - first.new_items
    prompt = first.seq.items[:P]
    for r in rollouts[1:]:
        if len(r.seq) - r.new_items != P or not all(
                x is y or (x.kind == y.kind and np.array_equal(x.value, y.value))
                for x, y in zip(r.seq.items, prompt)):
            raise ValueError("the rollouts of a group must share one prompt")
    ids, text_mask, latents = sq.to_arrays(sq.MixedSequence(prompt), model.cfg.d)
    _, logits, qkv = bb.forward_batch(model.store, model.cfg, ids[None], text_mask[None], latents[None])
    return PromptPass(P, ad.take_rows(ad.reshape(logits, logits.shape[1:]), [P - 1]), qkv)


def score_rollout(model: Model, rollout: Rollout, temperature: float, prompt: PromptPass) -> Tensor:
    """Log-probabilities of the scored emissions under the current parameters,
    using the same masked, tempered distribution the sampler drew from.

    Only the continuation after the prompt is forwarded, over the group's
    prompt pass: the first emission is scored from the prompt's last row,
    the others from the continuation's rows."""
    if not rollout.emissions:
        raise ValueError("rollout has no scored emissions")
    P = prompt.length
    rows = prompt.last_logits
    cont = rollout.seq.items[P:-1]  # the last item predicts nothing
    if cont:
        ids, text_mask, latents = sq.to_arrays(sq.MixedSequence(cont), model.cfg.d)
        _, logits, _ = bb.forward_batch(model.store, model.cfg, ids[None], text_mask[None],
                                        latents[None], prompt.qkv, P)
        rows = ad.concat([rows, ad.reshape(logits, logits.shape[1:])])
    pos = np.array([e.position - P for e in rollout.emissions], dtype=np.int64)
    tok = np.array([e.token_id for e in rollout.emissions], dtype=np.int64)
    mask_add = np.stack([np.where(e.mask, ad.MASK_VALUE, 0.0) for e in rollout.emissions])
    rows = ad.take_rows(rows, pos)
    scaled = ad.add(ad.mul(rows, 1.0 / (temperature if temperature > 0 else 1.0)), Tensor(mask_add))
    return ad.mul(ad.cross_entropy(scaled, tok), -1.0)


def grpo_objective(group: RolloutGroup, model: Model, clip_eps: float, temperature: float,
                   stats: dict | None = None) -> Tensor:
    """The clipped surrogate to MAXIMIZE, averaged over the group.

    The group's shared prompt is forwarded once (prompt_pass) and each
    rollout's continuation over it (score_rollout).  Each scored position
    has its own ratio, clipped and weighted by the rollout's advantage, and
    a rollout's term is the mean over its positions.
    """
    if group.advantages.size != len(group.rollouts):
        raise ValueError("advantages not computed for this group")
    prompt = prompt_pass(model, group.rollouts)
    terms = []
    clipped_active = 0
    positions = 0
    for rollout, adv in zip(group.rollouts, group.advantages):
        a = float(adv)
        new_lp = score_rollout(model, rollout, temperature, prompt)
        rho = ad.exp(ad.sub(new_lp, Tensor(rollout.logprobs_old)))
        per_tok = ad.minimum(ad.mul(rho, a), ad.mul(ad.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps), a))
        if a > 0:
            clipped_active += int(np.sum(rho.data > 1.0 + clip_eps))
        elif a < 0:
            clipped_active += int(np.sum(rho.data < 1.0 - clip_eps))
        positions += rho.data.size
        terms.append(ad.mean_(per_tok))
    if stats is not None:
        stats["clipped"] = stats.get("clipped", 0) + clipped_active
        stats["positions"] = stats.get("positions", 0) + positions
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return ad.mul(acc, 1.0 / len(group.rollouts))


def sample_groups(model: Model, traces: list[tv.AnnotatedTrace], cfg: GrpoConfig, iteration: int,
                  query_indices: list[int], query_ids: list[int]) -> list[RolloutGroup]:
    """Sample G rollouts for each query from the current (behavior) parameters.

    Rollout g of query j draws from seeded_rng(cfg.seed, "rollout", iteration,
    query_indices[j], g).  The streams of all queries are decoded in one
    generate_group call.  A rollout's behavior log-probabilities are the ones
    its tokens were drawn with.
    """
    gen_cfg = inf.GenerationConfig(mode="mixed", max_new_items=cfg.max_new_items,
                                   temperature=cfg.temperature)
    G = cfg.group_size
    prompts = [inf.build_prompt(model, t) for t in traces]
    rngs = [seeded_rng(cfg.seed, "rollout", iteration, qi, g) for qi in query_indices for g in range(G)]
    results = inf.generate_group([p for p in prompts for _ in range(G)], model, gen_cfg, rngs)
    groups = []
    for j, (trace, query_id) in enumerate(zip(traces, query_ids)):
        gold = inf.gold_answer(trace)
        rollouts = []
        for res in results[j * G : (j + 1) * G]:
            rollouts.append(Rollout(res.seq, res.emissions, reward(inf.extract_answer(res.seq), gold),
                                    np.array([e.logprob for e in res.emissions]), res.new_items))
        groups.append(RolloutGroup(query_id, rollouts, advantages(np.array([r.reward for r in rollouts]))))
    return groups


def sample_group(model: Model, trace, cfg: GrpoConfig, iteration: int, query_index: int,
                 query_id: int) -> RolloutGroup:
    """Sample G rollouts for one query: sample_groups of that query alone."""
    return sample_groups(model, [trace], cfg, iteration, [query_index], [query_id])[0]


def train_rl(model: Model, traces: list[tv.AnnotatedTrace], cfg: GrpoConfig,
             metrics_path: str | None = None, checkpoint_path: str | None = None,
             rollout_dump_path: str | None = None) -> list[dict]:
    """GRPO loop: per iteration, sample groups under the frozen behavior policy,
    then ascend the surrogate over minibatches of groups (one inner epoch)."""
    if not traces:
        raise ValueError("empty task dataset")
    metrics: list[dict] = []
    mf = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    dumpf = open(rollout_dump_path, "w", encoding="utf-8") if rollout_dump_path else None
    if mf:
        mf.write(",".join(METRICS_COLUMNS) + "\n")
    consecutive_degenerate = 0
    try:
        for iteration in range(cfg.iters):
            order = seeded_rng(cfg.seed, "rl-queries", iteration).permutation(len(traces))
            picks = order[: cfg.queries_per_iter]
            groups = sample_groups(model, [traces[q] for q in picks], cfg, iteration,
                                   list(range(len(picks))), [int(q) for q in picks])

            rewards_flat = [r.reward for g in groups for r in g.rollouts]
            lens = [r.new_items for g in groups for r in g.rollouts]
            n_degenerate = sum(g.degenerate for g in groups)
            stats: dict = {}
            for lo in range(0, len(groups), cfg.groups_per_step):
                chunk = groups[lo : lo + cfg.groups_per_step]
                live = [g for g in chunk if not g.degenerate]
                if not live:
                    continue  # pure-degenerate minibatch: no learning signal, no step
                for g in chunk:
                    if g.degenerate:
                        # all-zero advantages add exactly 0 to the loss and to every
                        # gradient, so the group is not scored; its ratios still
                        # count in the clip_fraction denominator
                        stats["positions"] = stats.get("positions", 0) + sum(
                            len(r.emissions) for r in g.rollouts)
                model.store.zero_grad()
                for g in live:
                    obj = grpo_objective(g, model, cfg.clip_eps, cfg.temperature, stats)
                    ad.backward(ad.mul(obj, -1.0 / len(chunk)), model.store)
                clip_grad_norm(model.store, cfg.clip_norm)
                adamw_step(model.store, {"backbone": cfg.lr}, weight_decay=cfg.weight_decay)

            if dumpf:
                for g in groups:
                    for r in g.rollouts:
                        dumpf.write(f"iter={iteration} query={g.query_id} reward={int(r.reward)} "
                                    f"| {r.seq.detokenize()}\n")
                dumpf.flush()
            row = {
                "iter": iteration,
                "mean_reward": float(np.mean(rewards_flat)),
                "clip_fraction": stats.get("clipped", 0) / max(stats.get("positions", 0), 1),
                "frac_degenerate": n_degenerate / len(groups),
                "mean_len": float(np.mean(lens)),
            }
            metrics.append(row)
            if mf:
                mf.write(",".join([str(iteration)] + [fmt_float(row[k]) for k in METRICS_COLUMNS[1:]]) + "\n")
                mf.flush()
            consecutive_degenerate = consecutive_degenerate + 1 if n_degenerate == len(groups) else 0
            if consecutive_degenerate >= 50:
                raise RuntimeError(
                    "all rollout groups degenerate for 50 consecutive iterations: "
                    "rewards carry no signal (task too easy or too hard for this policy)")
    finally:
        if mf:
            mf.close()
        if dumpf:
            dumpf.close()
    if checkpoint_path:
        save_model(checkpoint_path, model, step=cfg.iters)
    return metrics
