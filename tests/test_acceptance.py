"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-8 train real models and take tens of minutes combined; the whole
module is marked slow.  Run with `pytest tests/test_acceptance.py -v -m slow`
(or just `pytest` for everything).
"""

import csv
import os
import time

import numpy as np
import pytest

from latentsketch import autodiff as ad
from latentsketch import diffusion as df
from latentsketch import grpo
from latentsketch import inference as inf
from latentsketch import optim
from latentsketch import sequence as sq
from latentsketch import sft
from latentsketch import toyvision as tv
from latentsketch.cli import main
from latentsketch.model import Model, ModelConfig, build_model, save_model
from latentsketch.util import seeded_rng

from conftest import fd_grad, rel_error, strip_images

pytestmark = pytest.mark.slow

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient suite: primitives and the composed losses vs central differences,
#    relative error < 1e-5, >= 20 seeds, < 2 min.
# ---------------------------------------------------------------------------


def _check_primitive_grads(seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0

    def fd_vs(f, t, coords=None):
        nonlocal worst
        loss = f()
        t.grad = None
        ad.backward(loss)
        cs = list(range(t.data.size)) if coords is None else coords
        an = np.array([t.grad[np.unravel_index(i, t.data.shape)] for i in cs])
        fd = fd_grad(f, t, 1e-5, cs)
        worst = max(worst, rel_error(fd, an))

    a = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    fd_vs(lambda: ad.sum_(ad.matmul(a, b)), a)
    c = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    fd_vs(lambda: ad.mean_(ad.mul(ad.add(ad.matmul(a, b), c), c)), c)
    x = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 6)))
    qkv = ad.Tensor(rng.normal(size=(2, 3, 18)), requires_grad=True)
    fd_vs(lambda: ad.sum_(ad.mul(ad.attention(qkv, 2)[0], w)), qkv)
    g = ad.Tensor(rng.normal(size=6), requires_grad=True)
    be = ad.Tensor(rng.normal(size=6), requires_grad=True)
    fd_vs(lambda: ad.sum_(ad.mul(ad.layer_norm(x, g, be), w)), g)
    fd_vs(lambda: ad.sum_(ad.gelu(x)), x)
    table = ad.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    idx = rng.integers(0, 7, size=(1, 5))
    text_mask = (rng.random((1, 5)) < 0.6).astype(np.float64)
    latents = rng.normal(size=(1, 5, 4)) * (1.0 - text_mask)[..., None]
    pos = ad.Tensor(rng.normal(size=(6, 4)))
    wt = ad.Tensor(rng.normal(size=(1, 5, 4)))
    fd_vs(lambda: ad.sum_(ad.mul(ad.mixed_embed(table, pos, idx, text_mask, latents), wt)), table)
    logits = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    tgt = rng.integers(0, 6, size=5)
    fd_vs(lambda: ad.mean_(ad.cross_entropy(logits, tgt)), logits)
    return worst


def _micro_model(seed: int) -> Model:
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2, t_steps=4),
                    seed=seed)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=seed)
    return m


def _check_joint_loss_grads(seed: int) -> float:
    m = _micro_model(seed)
    trace = tv.generate_dataset("grid_rotation", 1, seed)[0]
    ex = sft.build_example(trace, m, 2)
    rows = ex.latent_targets.shape[0]
    draws = (np.full(rows, 2), seeded_rng(seed, "acc1").standard_normal((rows, 8)))

    def f():
        return sft.joint_loss([ex], m, 1.0, None, draws=draws)[0]

    loss = f()
    m.store.zero_grad()
    ad.backward(loss, m.store)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in ("backbone/layer0/attn/wqkv", "backbone/lm_head/w",
                 "diffusion_head/cond_w", "diffusion_head/eps/w0"):
        t = m.store[name]
        coords = sorted(rng.choice(t.data.size, 4, replace=False).tolist())
        an = np.array([t.grad[np.unravel_index(i, t.data.shape)] for i in coords])
        fd = fd_grad(f, t, 1e-5, coords)
        worst = max(worst, rel_error(fd, an))
    return worst


def _check_grpo_objective_grads(seed: int) -> float:
    m = _micro_model(seed + 1000)
    cfg = grpo.GrpoConfig(group_size=2, temperature=0.9, max_new_items=8, seed=seed)
    trace = tv.generate_dataset("grid_rotation", 1, seed)[0]
    group = grpo.sample_group(m, trace, cfg, 0, 0, 0)
    group.advantages = np.array([1.0, -1.0])

    def f():
        return grpo.grpo_objective(group, m, clip_eps=0.2, temperature=cfg.temperature)

    loss = f()
    m.store.zero_grad()
    ad.backward(loss, m.store)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in ("backbone/lm_head/w", "backbone/layer0/mlp/w1"):
        t = m.store[name]
        coords = sorted(rng.choice(t.data.size, 4, replace=False).tolist())
        an = np.array([t.grad[np.unravel_index(i, t.data.shape)] for i in coords])
        fd = fd_grad(f, t, 1e-5, coords)
        worst = max(worst, rel_error(fd, an))
    return worst


def test_criterion_01_gradient_suite():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, _check_primitive_grads(seed))
    for seed in range(3):
        worst = max(worst, _check_joint_loss_grads(seed))
        worst = max(worst, _check_grpo_objective_grads(seed))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 120
    report(1, "gradient suite", ok, f"worst rel err {worst:.2e}, {elapsed:.0f}s")
    assert worst < 1e-5
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. Diffusion oracle: conditional Gaussian mixture within 5% / 5 points over
#    10,000 samples in < 5 min; zero-net expected loss 1.0 +- 0.05.
# ---------------------------------------------------------------------------


def test_criterion_02_diffusion_oracle():
    t0 = time.time()
    d = 2
    sched = ModelConfig(t_steps=50).schedule()
    store = optim.ParamStore()
    df.init_epsilon_net(store, d, d, seeded_rng(0, "mix-init"), width=128)
    mu = {0: np.array([-2.0, -2.0]), 1: np.array([2.0, 2.0])}
    cond = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    w1 = {0: 0.25, 1: 0.75}

    def draw(rng, n):
        cid = rng.integers(0, 2, size=n)
        comp = (rng.random(n) < np.array([w1[c] for c in cid])).astype(int)
        center = np.where(comp[:, None] == 1, mu[1], mu[0])
        return center + 0.35 * rng.standard_normal((n, d)), np.stack([cond[i] for i in cid])

    for step in range(6000):
        rng = seeded_rng(1, "mix", step)
        z, c = draw(rng, 256)
        loss = ad.mean_(df.noise_regression(z, c, store, sched, rng))
        store.zero_grad()
        ad.backward(loss, store)
        lr = 1e-3 if step < 4000 else 2.5e-4
        optim.adamw_step(store, {"diffusion_head": lr}, weight_decay=0.0)

    results = []
    for cid in (0, 1):
        c = np.tile(cond[cid], (10_000, 1))
        samples = df.sample_latent(c, store, sched, [seeded_rng(2, "sample", cid)] * len(c))
        assign = (samples.sum(axis=1) > 0).astype(int)
        w_est = assign.mean()
        m0 = samples[assign == 0].mean(axis=0)
        m1 = samples[assign == 1].mean(axis=0)
        results.append((w_est, m0, m1))
    elapsed = time.time() - t0

    weight_err = max(abs(results[0][0] - 0.25), abs(results[1][0] - 0.75))
    mean_err = max(
        float(np.max(np.abs(r[0 + 1] - mu[0]) / np.abs(mu[0]))) for r in results
    )
    mean_err = max(mean_err, max(
        float(np.max(np.abs(r[2] - mu[1]) / np.abs(mu[1]))) for r in results
    ))

    # zero-net expected loss over 10,000 rows
    zstore = optim.ParamStore()
    df.init_epsilon_net(zstore, d, d, seeded_rng(3, "z"), width=16)
    for name in zstore.entries:
        zstore[name].data[:] = 0.0
    rng = seeded_rng(4, "zero")
    zero_loss = ad.mean_(df.noise_regression(rng.normal(size=(10_000, d)) * 0.5,
                                             np.zeros((10_000, d)), zstore, sched, rng)).item()

    ok = weight_err < 0.05 and mean_err < 0.05 and abs(zero_loss - 1.0) < 0.05 and elapsed < 300
    report(2, "diffusion oracle", ok,
           f"weight err {weight_err:.3f}, mean err {mean_err:.3f}, "
           f"zero-net loss {zero_loss:.3f}, {elapsed:.0f}s")
    assert weight_err < 0.05, "mixture weights off by more than 5 points"
    assert mean_err < 0.05, "conditional component means off by more than 5%"
    assert abs(zero_loss - 1.0) < 0.05
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 3. Grammar invariant: 10,000 generations across temperatures and both modes
#    all validate; language-only records zero diffusion calls.
# ---------------------------------------------------------------------------


def test_criterion_03_grammar_at_scale():
    model = _micro_model(303)
    # spread logit mass so high-temperature sampling explores the vocabulary
    model.store["backbone/lm_head/w"].data *= 4.0
    traces = tv.generate_dataset("grid_rotation", 8, 17)
    prompts = [inf.build_prompt(model, t) for t in traces]
    combos = [(mode, temp) for mode in ("mixed", "language_only") for temp in (0.0, 0.7, 1.3)]
    total = 0
    lang_calls = 0
    n_per = 10_000 // len(combos) + 1
    for mode, temp in combos:
        before = dict(df.CALLS)
        for i in range(n_per):
            cfg = inf.GenerationConfig(mode=mode, max_new_items=10, temperature=temp)
            res = inf.generate(prompts[i % len(prompts)], model, cfg,
                               seeded_rng(i, mode, int(temp * 10)))
            sq.validate(res.seq, model.bcfg.k_latent)  # raises on violation
            total += 1
        if mode == "language_only":
            lang_calls += sum(df.CALLS[k] - before[k] for k in ("sample_latent", "denoise_step"))
    ok = total >= 10_000 and lang_calls == 0
    report(3, "grammar invariant", ok,
           f"{total} generations validated, language-only diffusion calls={lang_calls}")
    assert total >= 10_000
    assert lang_calls == 0


# ---------------------------------------------------------------------------
# 4. Joint-loss reductions: lambda=0 equals text CE to 1e-12; latent-free
#    batches contribute zero; three-point lambda collinearity to 1e-9.
# ---------------------------------------------------------------------------


def test_criterion_04_joint_loss_reductions():
    m = _micro_model(404)
    traces = tv.generate_dataset("grid_rotation", 4, 9)
    examples = [sft.build_example(t, m, 2) for t in traces]

    total0, ce0, _ = sft.joint_loss(examples, m, 0.0, seeded_rng(0, "c4"))
    lam0_gap = abs(total0.item() - ce0)

    stripped = [sft.build_example(strip_images(t), m, 2) for t in traces]
    total_s, ce_s, diff_s = sft.joint_loss(stripped, m, 7.3, seeded_rng(1, "c4"))
    latent_free_gap = abs(total_s.item() - ce_s)

    rows = sum(ex.latent_targets.shape[0] for ex in examples)
    draws = (np.full(rows, 2), seeded_rng(2, "c4").standard_normal((rows, m.bcfg.d)))
    ls = [sft.joint_loss(examples, m, lam, None, draws=draws)[0].item()
          for lam in (0.0, 1.0, 2.0)]
    collinearity = abs(ls[0] + ls[2] - 2.0 * ls[1])

    ok = lam0_gap < 1e-12 and diff_s == 0.0 and latent_free_gap == 0.0 and collinearity < 1e-9
    report(4, "joint-loss reductions", ok,
           f"lambda0 gap {lam0_gap:.1e}, latent-free diff {diff_s}, "
           f"collinearity {collinearity:.1e}")
    assert lam0_gap < 1e-12
    assert diff_s == 0.0 and latent_free_gap == 0.0
    assert collinearity < 1e-9


# ---------------------------------------------------------------------------
# 5. GRPO unit suite: exact advantage/clip arithmetic, on-policy zero, zero
#    diffusion-head gradients after every RL step, analytic bandit at eps=0.
# ---------------------------------------------------------------------------


def test_criterion_05_grpo_suite(monkeypatch):
    adv_ok = (np.allclose(grpo.advantages(np.array([1.0, 0.0])), [1, -1], atol=1e-12)
              and np.array_equal(grpo.advantages(np.array([1.0, 1.0, 1.0])), np.zeros(3))
              and np.allclose(grpo.advantages(np.array([1.0, 1.0, 0.0, 0.0])),
                              [1, 1, -1, -1], atol=1e-12))

    m = _micro_model(505)
    cfg = grpo.GrpoConfig(group_size=4, temperature=0.9, max_new_items=8, seed=55)
    trace = tv.generate_dataset("grid_rotation", 1, 4)[0]
    group = grpo.sample_group(m, trace, cfg, 0, 0, 0)
    group.advantages = np.array([1.0, -1.0, 0.5, -0.5])
    onpolicy = abs(grpo.grpo_objective(group, m, 0.2, cfg.temperature).item()
                   - np.mean(group.advantages))

    # clip arithmetic on single-emission rollouts with crafted old logprobs
    g2 = grpo.sample_group(m, trace, cfg, 1, 0, 0)
    g2.rollouts = g2.rollouts[:2]
    for r in g2.rollouts:
        r.emissions = r.emissions[:1]
        r.logprobs_old = r.logprobs_old[:1]
    g2.rollouts[0].logprobs_old = g2.rollouts[0].logprobs_old - np.log(1.5)
    g2.rollouts[1].logprobs_old = g2.rollouts[1].logprobs_old - np.log(0.5)
    g2.advantages = np.array([1.0, -1.0])
    clip_val = grpo.grpo_objective(g2, m, 0.2, cfg.temperature).item()
    clip_ok = abs(clip_val - (1.2 - 0.8) / 2.0) < 1e-9

    # diffusion-head gradients are exactly zero after every optimizer step
    bad_grads = []
    orig_step = optim.adamw_step

    def checked_step(store, lrs, **kw):
        for name, t in store.entries.items():
            if store.group[name] == "diffusion_head":
                if t.grad is not None and np.any(t.grad != 0.0):
                    bad_grads.append(name)
        return orig_step(store, lrs, **kw)

    monkeypatch.setattr(grpo, "adamw_step", checked_step)
    m2 = _micro_model(506)
    traces = tv.generate_dataset("grid_rotation", 4, 5)
    rl_cfg = grpo.GrpoConfig(group_size=3, temperature=1.1, max_new_items=12, iters=3,
                             queries_per_iter=2, seed=6)
    grpo.train_rl(m2, traces, rl_cfg)
    monkeypatch.setattr(grpo, "adamw_step", orig_step)

    # analytic two-action bandit at eps=0
    theta = ad.Tensor(np.array([0.4, -0.1]), requires_grad=True)

    def stub_score(model, rollout, temperature, prompt):
        return ad.mul(ad.cross_entropy(ad.reshape(theta, (1, 2)),
                                       np.array([rollout.emissions[0].token_id])), -1.0)

    monkeypatch.setattr(grpo, "score_rollout", stub_score)
    monkeypatch.setattr(grpo, "prompt_pass", lambda model, rollouts: None)
    actions = [0, 1, 1, 0]
    rewards = np.array([1.0, 0.0, 1.0, 0.0])
    adv = grpo.advantages(rewards)
    rollouts = []
    with ad.no_grad():
        for a in actions:
            r = grpo.Rollout(seq=None, emissions=[inf.Emission(0, a, np.zeros(2, dtype=bool))],
                             reward=0.0)
            r.logprobs_old = stub_score(None, r, 1.0, None).data.copy()
            rollouts.append(r)
    bandit_group = grpo.RolloutGroup(0, rollouts, adv)
    obj = grpo.grpo_objective(bandit_group, None, clip_eps=0.0, temperature=1.0)
    theta.grad = None
    ad.backward(obj)
    p = np.exp(theta.data - np.logaddexp(theta.data[0], theta.data[1]))
    want = sum((A / len(actions)) * (np.eye(2)[a] - p) for a, A in zip(actions, adv))
    bandit_err = float(np.max(np.abs(theta.grad - want)))

    ok = adv_ok and clip_ok and onpolicy < 1e-9 and not bad_grads and bandit_err < 1e-6
    report(5, "grpo unit suite", ok,
           f"advantages exact={adv_ok}, clip exact={clip_ok}, on-policy gap {onpolicy:.1e}, "
           f"nonzero diffusion grads={bad_grads}, bandit err {bandit_err:.1e}")
    assert adv_ok and clip_ok
    assert onpolicy < 1e-9
    assert not bad_grads
    assert bandit_err < 1e-6


# ---------------------------------------------------------------------------
# 9. Latency: per-latent-step cost linear in T (R^2 >= 0.95); latent block
#    faster than the simulated tool path; reference numbers recorded only.
# ---------------------------------------------------------------------------


def test_criterion_09_latency_scaling(tmp_path):
    """Runs the bench-latency command on a default model and reads its CSV:
    the latent block at each step count, the tool cycle and the text span are
    each a median of 5 rounds after a warm-up, the step counts round-robin."""
    model = build_model(ModelConfig(), seed=909)
    tv.pretrain_encoder(model.store, 2, 1e-2, seed=909)
    ck, out = str(tmp_path / "m.lsk"), str(tmp_path / "bench.csv")
    save_model(ck, model)
    assert main(["bench-latency", "--checkpoint", ck, "--k", "32", "--t-steps", "50",
                 "--repeat", "5", "--tool-span", "128", "--out", out]) == 0
    with open(out, encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    lat = {int(r["t_steps"]): float(r["median_s"]) for r in rows if r["path"] == "latent"}
    [t_tool] = [float(r["median_s"]) for r in rows if r["path"] == "tool"]
    [t_text] = [float(r["median_s"]) for r in rows if r["path"] == "text"]
    ts = [10, 25, 50, 100]
    assert sorted(lat) == ts
    x = np.array(ts, dtype=float)
    y = np.array([lat[t] for t in ts])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot

    t_latent = lat[50]
    ok = r2 >= 0.95 and t_latent < t_tool
    report(9, "latency scaling", ok,
           f"R2={r2:.4f} (latent32 at T={'/'.join(str(t) for t in ts)}: "
           f"{'/'.join(f'{lat[t]:.3f}' for t in ts)}s), "
           f"latent32@T50={t_latent:.3f}s, tool={t_tool:.3f}s, text32={t_text:.3f}s "
           f"(full-scale reference, recorded only: 3.1001s / 8.3575s / 1.0311s)")
    assert r2 >= 0.95
    assert t_latent < t_tool
