"""Output checks, each computed apart from the code path the benchmark times.

Every check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import sequence as sq
from latentsketch import sft, vocab

FD_STEP = 1e-6
FD_ATOL = 1e-6
FD_RTOL = 1e-4
LATENT_TOL = 1e-9
LOGPROB_TOL = 1e-9


def fd_gradient_check(model, examples, rng: np.random.Generator) -> list[str]:
    """Autodiff gradients of sft.joint_loss, with injected draws, against
    central finite differences along one random direction over all entries of
    each backbone and diffusion_head tensor.  A gradient that is wrongly zero
    anywhere shifts the directional derivative, so it fails too.  Parameters
    are restored bit for bit afterwards."""
    store = model.store
    n_rows = sum(ex.latent_targets.shape[0] for ex in examples)
    draws = (rng.integers(1, model.sched.t_steps + 1, size=n_rows),
             rng.standard_normal((n_rows, model.cfg.d)))

    def loss():
        return sft.joint_loss(examples, model, 1.0, rng, draws=draws)[0]

    store.zero_grad()
    ad.backward(loss(), store)
    grads = {n: t.grad.copy() for n, t in store.entries.items()}
    store.zero_grad()
    failures = []
    reached = sorted({store.group[n] for n, g in grads.items() if np.any(g != 0.0)})
    if reached != ["backbone", "diffusion_head"]:
        failures.append(f"joint loss reaches groups {reached}, expected backbone and diffusion_head")
    with ad.no_grad():
        for name, t in store.entries.items():
            if store.group[name] not in ("backbone", "diffusion_head"):
                continue
            v = rng.standard_normal(t.data.shape)
            orig = t.data.copy()
            t.data[...] = orig + FD_STEP * v
            up = loss().item()
            t.data[...] = orig - FD_STEP * v
            down = loss().item()
            t.data[...] = orig
            fd = (up - down) / (2 * FD_STEP)
            g = float(np.sum(grads[name] * v))
            if abs(g - fd) > FD_ATOL + FD_RTOL * abs(fd):
                failures.append(f"directional derivative along {name}: autodiff {g:.9g}, "
                                f"finite difference {fd:.9g}")
    return failures


def loss_on(model, examples, seed_rng: np.random.Generator) -> float:
    """joint_loss of a fixed batch under fixed draws (no graph kept)."""
    n_rows = sum(ex.latent_targets.shape[0] for ex in examples)
    draws = (seed_rng.integers(1, model.sched.t_steps + 1, size=n_rows),
             seed_rng.standard_normal((n_rows, model.cfg.d)))
    with ad.no_grad():
        return sft.joint_loss(examples, model, 1.0, seed_rng, draws=draws)[0].item()


# -- cache-free replay of a generation ----------------------------------------------------


def _decision_mask(k: int, remaining: int, seq_len: int, max_len: int, size: int) -> np.ndarray:
    """Entries decoding may not pick: PAD, BOS and END always; START when a
    whole block (START, K latents, END) does not fit."""
    mask = np.zeros(size, dtype=bool)
    mask[[vocab.PAD_ID, vocab.BOS_ID, vocab.END_ID]] = True
    if remaining < k + 2 or seq_len + k + 2 > max_len:
        mask[vocab.START_ID] = True
    return mask


def _last_hidden(model, items) -> tuple[np.ndarray, np.ndarray]:
    """Hidden state and logits of the last position, from a full forward_batch."""
    ids, text_mask, latents = sq.to_arrays(sq.MixedSequence(items), model.cfg.d)
    with ad.no_grad():
        hidden, logits, _ = bb.forward_batch(model.store, model.bcfg, ids[None],
                                             text_mask[None], latents[None])
    return hidden.data[0, -1], logits.data[0, -1]


def _sample_latent(model, c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling of one latent row, written out here in numpy: noise
    z_T, then for t = T..1 the epsilon-parameterized step with the exact-GELU
    MLP over (z_t, sinusoidal t embedding, c), drawing from rng in the order
    diffusion.sample_latent does."""
    store, sched = model.store, model.sched
    p = "diffusion_head/eps/"
    d = store[p + "b_out"].data.shape[0]
    half = 16  # the t embedding has 32 entries: sines, then cosines
    angle = np.arange(sched.t_steps + 1.0)[:, None] * np.exp(-np.log(10000.0) * np.arange(half) / half)
    t_embed = np.concatenate([np.sin(angle), np.cos(angle)], axis=1)
    z = rng.standard_normal((1, d))
    for t in range(sched.t_steps, 0, -1):
        xi = rng.standard_normal((1, d)) if sched.sigma[t] > 0.0 else 0.0
        x = np.concatenate([z, t_embed[[t]], c[None]], axis=1)
        for i in range(3):
            x = x @ store[f"{p}w{i}"].data + store[f"{p}b{i}"].data
            x = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        eps = x @ store[p + "w_out"].data + store[p + "b_out"].data
        z = (z - (1.0 - sched.alpha[t]) / np.sqrt(1.0 - sched.alpha_bar[t]) * eps) / np.sqrt(sched.alpha[t]) \
            + sched.sigma[t] * xi
    return z[0]


def _draw(logits: np.ndarray, mask: np.ndarray, temperature: float,
          rng: np.random.Generator) -> tuple[int, float]:
    """One draw from the masked, tempered distribution, and its log-probability."""
    z = np.where(mask, -np.inf, logits / temperature)
    logp = z - (np.max(z) + np.log(np.sum(np.exp(z - np.max(z)))))
    tok = int(rng.choice(z.size, p=np.exp(logp)))
    return tok, float(logp[tok])


def replay_generation(model, prompt, seq, max_new_items: int, temperature: float,
                      rng: np.random.Generator, logprobs) -> list[str]:
    """Re-derive a sampled mixed-mode generation without a decode cache.

    Each decision is redrawn from ``rng`` (a fresh copy of the generation's
    seeded generator) with the distribution of forward_batch over the growing
    prefix, and must equal the emitted token.  Each latent row must equal an
    ancestral sample (``_sample_latent``) at the recomputed condition, drawn
    from the same generator, to LATENT_TOL of the row's largest entry.  ``logprobs``, the
    behaviour-policy log-probabilities of the decisions, must equal the
    replayed ones to LOGPROB_TOL.
    """
    cfg = model.bcfg
    k = cfg.k_latent
    items = seq.items
    n0 = len(prompt)
    if len(items) < n0 or any(a is not b and (a.kind != b.kind or not np.array_equal(a.value, b.value))
                              for a, b in zip(items[:n0], prompt.items)):
        return ["output does not start with its prompt"]
    cond_w = model.store["diffusion_head/cond_w"].data
    decisions = []
    pos = n0
    while pos < len(items):
        new = pos - n0
        it = items[pos]
        if it.kind == sq.LATENT:
            return [f"position {pos}: latent row outside a block"]
        _, logits = _last_hidden(model, items[:pos])
        mask = _decision_mask(k, max_new_items - new, pos, cfg.max_len, cfg.vocab)
        want, logp = _draw(logits, mask, temperature, rng)
        decisions.append(logp)
        if it.token_id() != want:
            return [f"position {pos}: token {it.token_id()} but the replayed decision is {want}"]
        if want == vocab.START_ID:
            for j in range(1, k + 1):
                if pos + j >= len(items) or items[pos + j].kind != sq.LATENT:
                    return [f"position {pos + j}: block has fewer than {k} latent rows"]
                h, _ = _last_hidden(model, items[: pos + j])
                z = _sample_latent(model, h @ cond_w, rng)
                # relative to the row's scale: sampled rows reach 1e10 in magnitude
                err = float(np.max(np.abs(items[pos + j].value - z))) / max(1.0, float(np.max(np.abs(z))))
                if err > LATENT_TOL:
                    return [f"position {pos + j}: latent row differs from the recomputed sample "
                            f"by {err:.3g} of its largest entry"]
            end = pos + k + 1
            if end >= len(items) or items[end].kind != sq.CTRL or items[end].value != sq.END:
                return [f"position {end}: block is not closed by END"]
            pos = end + 1
        else:
            pos += 1
            if want == vocab.EOS_ID and pos != len(items):
                return [f"position {pos - 1}: EOS is not the last item"]
    finished = items[-1].kind == sq.CTRL and items[-1].value == sq.EOS
    if not finished and len(items) - n0 < max_new_items and len(items) < cfg.max_len:
        return ["generation stopped early without EOS"]
    if len(logprobs) != len(decisions):
        return [f"{len(logprobs)} behaviour log-probabilities for {len(decisions)} decisions"]
    worst = float(np.max(np.abs(np.asarray(logprobs) - decisions)))
    if worst > LOGPROB_TOL:
        return [f"behaviour log-probabilities differ from the replayed ones by up to {worst:.3g}"]
    return []


# -- answers and rewards, recomputed from tokens or from detokenized text -------------------


def _canonical(words: list[str]) -> tuple[str, ...]:
    while words and words[0] == "␣":
        words = words[1:]
    while words and words[-1] == "␣":
        words = words[:-1]
    return tuple(w.upper() if w in ("a", "b", "c", "d") else w for w in words)


def answer_words(words: list[str]) -> list[str]:
    """The answer span of a detokenized generation: the text after the final
    ``⟨end⟩``, from the last ``answer:`` on if present, else its trailing text run."""
    ends = [i for i, w in enumerate(words) if w == "⟨end⟩"]
    span = words[ends[-1] + 1:] if ends else words
    control = {"⟨bos⟩", "⟨eos⟩", "⟨start⟩", "⟨end⟩", "⟨pad⟩"}
    text = [w for w in span if w not in control]
    if "answer:" in text:
        return text[len(text) - text[::-1].index("answer:"):]
    trailing = []
    for w in reversed(span):
        if w == "⟨eos⟩":
            continue
        if w in control:
            break
        trailing.append(w)
    return trailing[::-1]


def gold_words(trace) -> list[str]:
    words = vocab.decode(trace.answer)
    return words[words.index("answer:") + 1:] if "answer:" in words else words


def exact_match(detokenized: str, trace) -> bool:
    got = _canonical(answer_words(detokenized.split(" ")))
    return bool(got) and got == _canonical(gold_words(trace))


def check_rollout_dump(lines: list[str], traces, expected: int, row: dict) -> list[str]:
    """Rewards recomputed from a train_rl rollout dump's detokenized answers
    must match the rewards it recorded and the iteration's mean_reward."""
    if len(lines) != expected:
        return [f"rollout dump has {len(lines)} lines, expected {expected}"]
    failures, rewards = [], []
    for line in lines:
        head, _, text = line.partition(" | ")
        fields = dict(f.split("=", 1) for f in head.split(" "))
        r = 1.0 if exact_match(text, traces[int(fields["query"])]) else 0.0
        rewards.append(r)
        if int(fields["reward"]) != r:
            failures.append(f"query {fields['query']}: recorded reward {fields['reward']}, recomputed {r:g}")
    if abs(float(np.mean(rewards)) - row["mean_reward"]) > 1e-12:
        failures.append(f"mean_reward {row['mean_reward']} but recomputed {np.mean(rewards)}")
    return failures
