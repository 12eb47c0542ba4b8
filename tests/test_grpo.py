import dataclasses
import tracemalloc

import numpy as np
import pytest

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import grpo
from latentsketch import inference as inf
from latentsketch import sequence as sq
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model
from latentsketch.optim import adamw_step, clip_grad_norm
from latentsketch.util import seeded_rng


# -- reward ------------------------------------------------------------------


def ids(*words):
    return vocab.encode(list(words))


def test_reward_exact_match():
    assert grpo.reward(ids("B"), ids("B")) == 1.0


def test_reward_mismatch():
    assert grpo.reward(ids("A"), ids("B")) == 0.0


def test_reward_canonicalization_whitespace_and_case():
    assert grpo.reward(ids("␣", "b"), ids("B")) == 1.0
    assert grpo.reward(ids("b", "␣", "␣"), ids("B")) == 1.0


def test_reward_empty_answer_is_zero_empty_gold_errors():
    assert grpo.reward([], ids("B")) == 0.0
    with pytest.raises(ValueError):
        grpo.reward(ids("B"), [])


# -- advantages ----------------------------------------------------------------


def test_advantages_two_member_group():
    assert np.allclose(grpo.advantages(np.array([1.0, 0.0])), [1.0, -1.0], atol=1e-12)


def test_advantages_degenerate_group_is_zero():
    assert np.array_equal(grpo.advantages(np.array([1.0, 1.0, 1.0])), np.zeros(3))


def test_advantages_balanced_group():
    assert np.allclose(grpo.advantages(np.array([1.0, 1.0, 0.0, 0.0])),
                       [1.0, 1.0, -1.0, -1.0], atol=1e-12)


def test_advantages_normalization_invariants():
    rng = seeded_rng(0, "adv")
    for _ in range(20):
        r = rng.integers(0, 2, size=8).astype(float)
        a = grpo.advantages(r)
        if np.std(r) < 1e-8:
            assert np.array_equal(a, np.zeros(8))
        else:
            assert abs(a.sum()) < 1e-9
            assert abs(np.std(a) - 1.0) < 1e-9


def test_advantages_require_group_of_two():
    with pytest.raises(ValueError):
        grpo.advantages(np.array([1.0]))


# -- clipped objective -----------------------------------------------------------


def make_rl_model(seed=51):
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=96, k_latent=2, t_steps=4),
                    seed=seed)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=seed)
    return m


def sample_tiny_group(model, cfg, iteration=0):
    trace = tv.generate_dataset("grid_rotation", 1, 2)[0]
    return grpo.sample_group(model, trace, cfg, iteration, 0, 0), trace


def test_on_policy_objective_is_mean_advantage(snapshot_tol=1e-9):
    model = make_rl_model()
    cfg = grpo.GrpoConfig(group_size=4, temperature=0.9, max_new_items=10, seed=13,
                          queries_per_iter=1, iters=1)
    group, _ = sample_tiny_group(model, cfg)
    group.advantages = np.array([1.0, -1.0, 0.5, -0.5])  # force a zero-mean non-degenerate group
    obj = grpo.grpo_objective(group, model, clip_eps=0.2, temperature=cfg.temperature)
    assert abs(obj.item() - np.mean(group.advantages)) < snapshot_tol


def test_clip_arithmetic_positive_and_negative_advantage():
    model = make_rl_model()
    cfg = grpo.GrpoConfig(group_size=2, temperature=0.8, max_new_items=6, seed=7)
    group, _ = sample_tiny_group(model, cfg)
    for rollout in group.rollouts:
        rollout.emissions = rollout.emissions[:1]
        rollout.logprobs_old = rollout.logprobs_old[:1]
    r0, r1 = group.rollouts
    # rho = 1.5 against A = +1: min(1.5, 1.2) = 1.2
    r0.logprobs_old = r0.logprobs_old - np.log(1.5)
    # rho = 0.5 against A = -1: min(-0.5, -0.8) = -0.8
    r1.logprobs_old = r1.logprobs_old - np.log(0.5)
    group.advantages = np.array([1.0, -1.0])
    obj = grpo.grpo_objective(group, model, clip_eps=0.2, temperature=cfg.temperature)
    assert obj.item() == pytest.approx((1.2 - 0.8) / 2.0, abs=1e-9)
    stats = {}
    grpo.backward_group(group, model, 0.2, cfg.temperature, -1.0, stats)
    assert stats["clipped"] == 2 and stats["positions"] == 2


def test_gradient_isolation_diffusion_head_zero():
    model = make_rl_model()
    cfg = grpo.GrpoConfig(group_size=4, temperature=0.9, max_new_items=10, seed=5)
    group, _ = sample_tiny_group(model, cfg)
    group.advantages = np.array([1.0, -1.0, 1.0, -1.0])
    obj = grpo.grpo_objective(group, model, 0.2, cfg.temperature)
    model.store.zero_grad()
    ad.backward(ad.mul(obj, -1.0), model.store)
    for name, t in model.store.entries.items():
        g = model.store.group[name]
        if g in ("diffusion_head", "vision_encoder"):
            assert np.all(t.grad == 0.0), name
    assert any(np.any(model.store[n].grad != 0.0) for n in model.store.entries
               if model.store.group[n] == "backbone")


def test_bandit_gradient_matches_analytic_policy_gradient(monkeypatch):
    """2-action bandit at clip_eps=0: the surrogate's gradient w.r.t. the logits
    equals the vanilla REINFORCE estimator sum_i (A_i/G) (onehot(a_i) - pi)."""
    theta = ad.Tensor(np.array([0.3, -0.2]), requires_grad=True)

    def stub_score(model, rollout, temperature, prompt):
        logits = ad.reshape(theta, (1, 2))
        return ad.mul(ad.cross_entropy(logits, np.array([rollout.emissions[0].token_id])), -1.0)

    monkeypatch.setattr(grpo, "score_rollout", stub_score)
    monkeypatch.setattr(grpo, "prompt_pass", lambda model, rollouts: None)
    actions = [0, 1, 0, 0]
    rewards = np.array([1.0, 0.0, 1.0, 0.0])
    adv = grpo.advantages(rewards)
    rollouts = []
    with ad.no_grad():
        for a in actions:
            r = grpo.Rollout(seq=None, emissions=[inf.Emission(0, a, np.zeros(2, dtype=bool), 0.0)],
                             reward=0.0, logprobs_old=None, new_items=1)
            r.logprobs_old = stub_score(None, r, 1.0, None).data.copy()
            rollouts.append(r)
    group = grpo.RolloutGroup(0, rollouts, adv)
    obj = grpo.grpo_objective(group, None, clip_eps=0.0, temperature=1.0)
    theta.grad = None
    ad.backward(obj)
    p = np.exp(theta.data - np.logaddexp(theta.data[0], theta.data[1]))
    want = np.zeros(2)
    for a, A in zip(actions, adv):
        onehot = np.eye(2)[a]
        want += (A / len(actions)) * (onehot - p)
    assert np.max(np.abs(theta.grad - want)) < 1e-6


def test_train_rl_degenerate_only_leaves_params_unchanged(tmp_path):
    model = make_rl_model(seed=52)
    before = model.store.clone_values()
    traces = tv.generate_dataset("grid_rotation", 2, 3)
    # untrained model virtually never answers correctly: rewards all zero -> degenerate
    cfg = grpo.GrpoConfig(group_size=2, temperature=0.7, max_new_items=6, iters=1,
                          queries_per_iter=1, seed=1)
    metrics = grpo.train_rl(model, traces, cfg)
    assert metrics[0]["frac_degenerate"] == 1.0
    for name, val in before.items():
        assert np.array_equal(model.store[name].data, val), name


def test_train_rl_leaves_the_diffusion_head_alone(monkeypatch):
    """From a model with optimizer state for every parameter, as an SFT
    checkpoint holds, GRPO steps move the backbone and leave every
    diffusion_head tensor bitwise as it was: the head gets no gradient, and
    its stale moments must not move it either."""
    model = make_rl_model(seed=58)
    rng = seeded_rng(58, "moments")
    for t in model.store.entries.values():
        t.grad = rng.normal(size=t.data.shape)
    adamw_step(model.store, {"backbone": 1e-3, "diffusion_head": 1e-3}, weight_decay=0.0)
    before = model.store.clone_values()
    # a stand-in random 0/1 reward, so that groups are live and steps are taken
    monkeypatch.setattr(grpo, "reward", lambda answer, gold: float(rng.integers(2)))
    cfg = grpo.GrpoConfig(group_size=4, temperature=1.0, max_new_items=10, iters=2,
                          queries_per_iter=2, seed=13)
    metrics = grpo.train_rl(model, tv.generate_dataset("grid_rotation", 4, 9), cfg)
    assert min(m["frac_degenerate"] for m in metrics) < 1.0
    groups = model.store.group
    head = [name for name in groups if groups[name] == "diffusion_head"]
    assert len(head) == 9
    for name in head:
        assert np.array_equal(model.store[name].data, before[name]), name
    assert any(not np.array_equal(model.store[name].data, before[name])
               for name in groups if groups[name] == "backbone")


def test_train_rl_creates_moments_for_the_backbone_only(monkeypatch):
    """From a model without optimizer state, as the benchmark's SFT fixture
    is, GRPO steps give AdamW moments to every backbone parameter and to no
    diffusion_head or vision_encoder one."""
    model = make_rl_model(seed=59)
    model.store.opt_state.clear()
    rng = seeded_rng(59, "reward")
    monkeypatch.setattr(grpo, "reward", lambda answer, gold: float(rng.integers(2)))
    cfg = grpo.GrpoConfig(group_size=4, temperature=1.0, max_new_items=10, iters=2,
                          queries_per_iter=2, seed=14)
    metrics = grpo.train_rl(model, tv.generate_dataset("grid_rotation", 4, 9), cfg)
    assert min(m["frac_degenerate"] for m in metrics) < 1.0
    groups = model.store.group
    assert set(model.store.opt_state) == {name for name in groups if groups[name] == "backbone"}


def test_train_rl_metrics_schema_and_grammar(tmp_path):
    model = make_rl_model(seed=53)
    traces = tv.generate_dataset("grid_rotation", 4, 5)
    path = str(tmp_path / "rl.csv")
    cfg = grpo.GrpoConfig(group_size=2, temperature=1.0, max_new_items=12, iters=2,
                          queries_per_iter=2, seed=2)
    metrics = grpo.train_rl(model, traces, cfg, metrics_path=path)
    lines = open(path).read().splitlines()
    assert lines[0] == "iter,mean_reward,clip_fraction,frac_degenerate,mean_len"
    assert len(lines) == 3
    assert len(metrics) == 2
    assert 0.0 <= metrics[0]["mean_reward"] <= 1.0


def test_train_rl_streams_each_iteration_to_disk(tmp_path, monkeypatch):
    """rl_metrics.csv and the rollout dump hold every finished iteration's rows
    while the next iteration samples: both files are flushed each iteration."""
    model = make_rl_model(seed=53)
    metrics, dump = tmp_path / "rl.csv", tmp_path / "rollouts.txt"
    cfg = grpo.GrpoConfig(group_size=2, temperature=1.0, max_new_items=12, iters=2,
                          queries_per_iter=2, seed=2)
    seen = []
    real = grpo.sample_groups

    def spy(*args):
        seen.append((len(metrics.read_text().splitlines()), len(dump.read_text().splitlines())))
        return real(*args)

    monkeypatch.setattr(grpo, "sample_groups", spy)
    grpo.train_rl(model, tv.generate_dataset("grid_rotation", 4, 5), cfg,
                  metrics_path=str(metrics), rollout_dump_path=str(dump))
    assert seen[1:] == [(2, 4)]  # the header, then iteration 0's row and its 4 rollouts


def test_train_rl_abort_after_50_degenerate_iterations():
    model = make_rl_model(seed=54)
    traces = tv.generate_dataset("grid_rotation", 2, 7)
    cfg = grpo.GrpoConfig(group_size=2, temperature=0.5, max_new_items=4, iters=60,
                          queries_per_iter=1, seed=3)
    with pytest.raises(RuntimeError, match="degenerate"):
        grpo.train_rl(model, traces, cfg)


def test_sampled_rollouts_pass_grammar_and_store_scored_positions():
    model = make_rl_model(seed=55)
    cfg = grpo.GrpoConfig(group_size=3, temperature=1.2, max_new_items=14, seed=9)
    group, trace = sample_tiny_group(model, cfg)
    for r in group.rollouts:
        sq.validate(r.seq, model.cfg.k_latent)
        assert len(r.logprobs_old) == len(r.emissions)
        for e in r.emissions:
            item = r.seq.items[e.position]
            assert item.kind == sq.TEXT or item.value in (sq.START, sq.EOS)
            assert not e.mask[e.token_id]


def test_behavior_logprobs_are_the_sampler_logprobs():
    """Each rollout's logprobs_old are its emissions' sampling log-probabilities,
    and they equal a fresh score_rollout of the finished rollout."""
    model = make_rl_model(seed=56)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 2.0
    cfg = grpo.GrpoConfig(group_size=4, temperature=0.9, max_new_items=14, seed=4)
    group, _ = sample_tiny_group(model, cfg)
    assert any(e.token_id == vocab.START_ID for r in group.rollouts for e in r.emissions)
    with ad.no_grad():
        prompt = grpo.prompt_pass(model, group.rollouts)
    for r in group.rollouts:
        assert np.array_equal(r.logprobs_old, [e.logprob for e in r.emissions])
        with ad.no_grad():
            scored = grpo.score_rollout(model, r, cfg.temperature, prompt).data
        assert np.max(np.abs(scored - r.logprobs_old)) <= 1e-12


# -- scoring over the shared prompt pass ------------------------------------------------


def groups_of_many_lengths(count=2, seed=58):
    """A 2-layer model and `count` sampled groups of 5 rollouts whose prompts
    have one length; an EOS bias gives rollouts of many lengths (with the
    default count, one of them EOS at its first emission)."""
    model = build_model(ModelConfig(layers=2, heads=2, d=8, max_len=96, k_latent=2, t_steps=4),
                        seed=seed)
    tv.pretrain_encoder(model.store, 2, 1e-2, seed=seed)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 1.0
    model.store["backbone/lm_head/b"].data[vocab.EOS_ID] = 2.0
    cfg = grpo.GrpoConfig(group_size=5, temperature=1.0, max_new_items=14, seed=9)
    traces = tv.generate_dataset("grid_rotation", count, 8)
    return model, cfg, grpo.sample_groups(model, traces, cfg, 0, list(range(count)), list(range(count)))


def full_sequence_logprobs(model, rollout, temperature):
    """The scored log-probabilities from one forward of the whole rollout:
    row position - 1 of its logits, tempered and masked."""
    ids, text_mask, latents = sq.to_arrays(rollout.seq, model.cfg.d)
    _, logits, _ = bb.forward_batch(model.store, model.cfg, ids[None], text_mask[None], latents[None])
    rows = ad.take_rows(ad.reshape(logits, logits.shape[1:]), np.array([e.position - 1 for e in rollout.emissions]))
    mask_add = np.stack([np.where(e.mask, ad.MASK_VALUE, 0.0) for e in rollout.emissions])
    tok = np.array([e.token_id for e in rollout.emissions])
    return ad.mul(ad.cross_entropy(ad.add(ad.mul(rows, 1.0 / temperature), ad.Tensor(mask_add)), tok), -1.0)


def full_sequence_objective(group, model, clip_eps, temperature):
    """The clipped surrogate with each rollout forwarded whole."""
    acc = ad.Tensor(0.0)
    for r, a in zip(group.rollouts, group.advantages):
        new_lp = full_sequence_logprobs(model, r, temperature)
        rho = ad.exp(ad.sub(new_lp, ad.Tensor(r.logprobs_old)))
        term = ad.minimum(ad.mul(rho, a), ad.mul(ad.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps), a))
        acc = ad.add(acc, ad.mean_(term))
    return ad.mul(acc, 1.0 / len(group.rollouts))


def test_score_rollout_over_shared_prompt_equals_full_forward():
    model, cfg, groups = groups_of_many_lengths()
    lengths = [r.new_items for g in groups for r in g.rollouts]
    assert 1 in lengths and len(set(lengths)) >= 5
    for group in groups:
        with ad.no_grad():
            prompt = grpo.prompt_pass(model, group.rollouts)
            for r in group.rollouts:
                got = grpo.score_rollout(model, r, cfg.temperature, prompt).data
                want = full_sequence_logprobs(model, r, cfg.temperature).data
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_objective_gradients_equal_full_forward():
    model, cfg, groups = groups_of_many_lengths()
    rng = np.random.default_rng(3)
    group = groups[0]
    group.advantages = np.array([1.0, -1.0, 0.5, -0.5, 0.25])
    for r in group.rollouts:  # off-policy ratios, some of them clipped
        r.logprobs_old = r.logprobs_old + rng.normal(0.0, 0.2, len(r.logprobs_old))

    def grads(objective):
        model.store.zero_grad()
        ad.backward(objective, model.store)
        return {n: t.grad.copy() for n, t in model.store.entries.items()}

    got = grads(grpo.grpo_objective(group, model, 0.2, cfg.temperature))
    want = grads(full_sequence_objective(group, model, 0.2, cfg.temperature))
    assert any(np.any(g != 0.0) for g in want.values())
    for name, g in want.items():
        assert np.max(np.abs(got[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


@pytest.mark.parametrize("case", ["two", "five", "last-without-continuation", "earlier-without-continuation"])
def test_backward_group_gradients_equal_one_backward_over_the_objective(case):
    """backward_group's gradients equal, bit for bit, those of one backward
    over scale * grpo_objective: groups of 2 and 5 rollouts, one whose last
    rollout has no continuation (EOS at its first emission), and one whose
    earlier rollouts have none."""
    model, cfg, groups = groups_of_many_lengths()
    group = next(g for g in groups if any(r.new_items == 1 for r in g.rollouts))
    short = next(r for r in group.rollouts if r.new_items == 1)
    longer = [r for r in group.rollouts if r.new_items > 1]
    assert len(longer) >= 2
    picked = {"two": longer[:2], "five": group.rollouts,
              "last-without-continuation": longer[:2] + [short],
              "earlier-without-continuation": [short, short, longer[0]]}[case]
    rng = np.random.default_rng(5)
    # off-policy ratios, some of them clipped
    rollouts = [dataclasses.replace(r, logprobs_old=r.logprobs_old + rng.normal(0.0, 0.2, len(r.logprobs_old)))
                for r in picked]
    group = grpo.RolloutGroup(0, rollouts, np.array([1.0, -1.0, 0.5, -0.5, 0.25])[:len(rollouts)])
    scale = -1.0 / 3

    def grads(run):
        model.store.zero_grad()
        run()
        return {n: t.grad.view(np.uint64).copy() for n, t in model.store.entries.items()}

    stats = {}
    got = grads(lambda: grpo.backward_group(group, model, 0.2, cfg.temperature, scale, stats))
    want = grads(lambda: ad.backward(ad.mul(grpo.grpo_objective(group, model, 0.2, cfg.temperature), scale),
                                     model.store))
    assert any(np.any(model.store[n].grad != 0.0) for n in want)
    for name, g in want.items():
        assert np.array_equal(got[name], g), name
    assert stats["positions"] == sum(len(r.emissions) for r in rollouts)


@pytest.mark.parametrize("tasks", [("grid_rotation", "grid_rotation"), ("grid_rotation", "visual_search")],
                         ids=["same-length", "other-length"])
def test_rollouts_of_different_prompts_raise(tasks):
    model = make_rl_model()
    cfg = grpo.GrpoConfig(group_size=2, temperature=0.9, max_new_items=6, seed=3)
    traces = [tv.generate_dataset(task, 2, 8)[i] for i, task in enumerate(tasks)]
    a, b = grpo.sample_groups(model, traces, cfg, 0, [0, 1], [0, 1])
    same_length = len(inf.build_prompt(model, traces[0])) == len(inf.build_prompt(model, traces[1]))
    assert same_length == (tasks[0] == tasks[1])
    mixed = grpo.RolloutGroup(0, [a.rollouts[0], b.rollouts[0]], np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="share one prompt"):
        grpo.grpo_objective(mixed, model, 0.2, cfg.temperature)


@pytest.mark.parametrize("degenerate_first", [True, False])
def test_train_rl_does_not_score_degenerate_groups(degenerate_first, monkeypatch):
    """A minibatch of one live and one degenerate group: the degenerate group
    is never scored, the step leaves the parameters bitwise equal to a step
    over the objectives of both, and its ratios still count in clip_fraction."""
    model, _, groups = groups_of_many_lengths()
    reference, _, _ = groups_of_many_lengths()
    cfg = grpo.GrpoConfig(group_size=5, temperature=1.0, max_new_items=14, seed=9, iters=1,
                          queries_per_iter=2, groups_per_step=2)
    live, dead = groups
    live.advantages = np.array([1.0, -1.0, 0.5, -0.5, 0.25])
    dead.advantages = np.zeros(5)
    rng = np.random.default_rng(4)
    for r in live.rollouts:
        r.logprobs_old = r.logprobs_old + rng.normal(0.0, 0.2, len(r.logprobs_old))
    chunk = [dead, live] if degenerate_first else [live, dead]

    # the clip counts of both groups, then the step over both, written out
    stats = {}
    for g in chunk:
        grpo.backward_group(g, reference, cfg.clip_eps, cfg.temperature, -1.0, stats)
    objs = [grpo.grpo_objective(g, reference, cfg.clip_eps, cfg.temperature) for g in chunk]
    loss = ad.mul(ad.add(objs[0], objs[1]), -1.0 / len(chunk))
    reference.store.zero_grad()
    ad.backward(loss, reference.store)
    clip_grad_norm(reference.store, cfg.clip_norm)
    adamw_step(reference.store, {"backbone": cfg.lr}, weight_decay=cfg.weight_decay)

    scored = []
    real_score = grpo.score_rollout

    def spy(m, rollout, temperature, prompt):
        scored.append(rollout)
        return real_score(m, rollout, temperature, prompt)

    monkeypatch.setattr(grpo, "score_rollout", spy)
    monkeypatch.setattr(grpo, "sample_groups", lambda *args: chunk)
    metrics = grpo.train_rl(model, tv.generate_dataset("grid_rotation", 2, 8), cfg)
    assert [id(r) for r in scored] == [id(r) for r in live.rollouts]
    for name, t in reference.store.entries.items():
        assert np.array_equal(model.store[name].data, t.data), name
    assert stats["clipped"] > 0
    assert metrics[0]["clip_fraction"] == stats["clipped"] / stats["positions"]


def test_train_rl_mixed_tasks_equal_one_query_at_a_time(tmp_path, monkeypatch):
    """Queries of two prompt lengths: one generate_group call per iteration
    gives the rollout dump and metrics of sampling each query's group on its
    own."""
    traces = tv.generate_dataset("grid_rotation", 3, 6) + tv.generate_dataset("visual_search", 3, 6)
    cfg = grpo.GrpoConfig(group_size=3, temperature=1.0, max_new_items=10, iters=3,
                          queries_per_iter=4, seed=12)

    def run(name):
        model = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=112, k_latent=2, t_steps=4),
                            seed=57)
        tv.pretrain_encoder(model.store, 2, 1e-2, seed=57)
        model.store["backbone/lm_head/b"].data[vocab.START_ID] = 1.0
        metrics, dump = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
        grpo.train_rl(model, traces, cfg, metrics_path=str(metrics), rollout_dump_path=str(dump))
        return metrics.read_bytes(), dump.read_bytes()

    # a reward that splits most groups, so that the policy moves between iterations
    monkeypatch.setattr(grpo, "reward", lambda answer, gold: float(len(answer) % 2))
    decodes, passes = [], []
    real_generate_group, real_lockstep = inf.generate_group, inf._generate_lockstep

    def spy(prompts, *args):
        decodes.append(len(prompts))
        return real_generate_group(prompts, *args)

    def lockstep_spy(prompts, *args):
        passes.append(len(prompts))
        return real_lockstep(prompts, *args)

    monkeypatch.setattr(inf, "generate_group", spy)
    monkeypatch.setattr(inf, "_generate_lockstep", lockstep_spy)
    batched = run("batched")
    assert decodes == [cfg.queries_per_iter * cfg.group_size] * cfg.iters
    assert len(passes) > cfg.iters  # some iteration held prompts of both lengths
    real_sample_groups = grpo.sample_groups

    def one_query_at_a_time(model, qtraces, cfg, iteration, query_indices, query_ids):
        return [real_sample_groups(model, [t], cfg, iteration, [qi], [qid])[0]
                for t, qi, qid in zip(qtraces, query_indices, query_ids)]

    monkeypatch.setattr(grpo, "sample_groups", one_query_at_a_time)
    decodes.clear()
    assert run("single") == batched
    assert decodes == [cfg.group_size] * (cfg.iters * cfg.queries_per_iter)
    frac_degenerate = [float(row.split(b",")[3]) for row in batched[0].splitlines()[1:]]
    assert max(frac_degenerate) < 1.0


def live_off_policy(groups, seed):
    """Give every group advantages that make it live, and each rollout
    off-policy ratios, some of them clipped."""
    rng = np.random.default_rng(seed)
    for g in groups:
        g.advantages = rng.permutation([1.0, -1.0, 0.5, -0.5, 0.25])
        for r in g.rollouts:
            r.logprobs_old = r.logprobs_old + rng.normal(0.0, 0.2, len(r.logprobs_old))


@pytest.mark.parametrize("live", [2, 3])
def test_train_rl_steps_as_the_summed_loss_of_its_groups(live, monkeypatch):
    """A minibatch of 2 or 3 live groups: train_rl runs one backward per
    scored rollout, and its parameters and AdamW moments equal, bit for bit,
    those of one backward over the minibatch's summed loss, written out
    here."""
    model, _, groups = groups_of_many_lengths(live)
    reference, _, _ = groups_of_many_lengths(live)
    live_off_policy(groups, seed=6)
    cfg = grpo.GrpoConfig(group_size=5, temperature=1.0, max_new_items=14, seed=9, iters=1,
                          queries_per_iter=live, groups_per_step=live)
    before = reference.store.clone_values()

    objs = [grpo.grpo_objective(g, reference, cfg.clip_eps, cfg.temperature) for g in groups]
    acc = objs[0]
    for o in objs[1:]:
        acc = ad.add(acc, o)
    reference.store.zero_grad()
    ad.backward(ad.mul(acc, -1.0 / live), reference.store)
    clip_grad_norm(reference.store, cfg.clip_norm)
    adamw_step(reference.store, {"backbone": cfg.lr}, weight_decay=cfg.weight_decay)

    backwards = []
    real_backward = ad.backward

    def spy(loss, store=None):
        backwards.append(loss)
        return real_backward(loss, store)

    monkeypatch.setattr(ad, "backward", spy)
    monkeypatch.setattr(grpo, "sample_groups", lambda *args: groups)
    metrics = grpo.train_rl(model, tv.generate_dataset("grid_rotation", live, 8), cfg)
    assert len(backwards) == live * cfg.group_size and metrics[0]["clip_fraction"] > 0
    assert any(not np.array_equal(t.data, before[name]) for name, t in reference.store.entries.items())
    for name, t in reference.store.entries.items():
        assert np.array_equal(model.store[name].data, t.data), name
    assert set(model.store.opt_state) == set(reference.store.opt_state)
    for name, want in reference.store.opt_state.items():
        got = model.store.opt_state[name]
        assert got["t"] == want["t"], name
        assert np.array_equal(got["m"], want["m"]) and np.array_equal(got["v"], want["v"]), name


def traced_train_rl_peak(monkeypatch, chunk_of) -> int:
    """tracemalloc's peak over a train_rl iteration whose one minibatch is
    chunk_of(groups), of groups_of_many_lengths groups made live and
    off-policy."""
    model, _, groups = groups_of_many_lengths()
    live_off_policy(groups, seed=7)
    chunk = chunk_of(groups)
    cfg = grpo.GrpoConfig(group_size=5, temperature=1.0, max_new_items=14, seed=9, iters=1,
                          queries_per_iter=len(chunk), groups_per_step=2)
    monkeypatch.setattr(grpo, "sample_groups", lambda *args: chunk)
    # the moments exist before tracing, so the step allocates none
    for t in model.store.entries.values():
        t.grad = np.zeros_like(t.data)
    adamw_step(model.store, {"backbone": cfg.lr}, weight_decay=0.0)
    model.store.zero_grad()
    tracemalloc.start()
    try:
        grpo.train_rl(model, tv.generate_dataset("grid_rotation", 2, 8), cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()


def test_train_rl_peak_memory_of_two_groups_near_one_group(monkeypatch):
    """Each group's graph is freed by its own backward before the next group
    is scored, so a minibatch of two live groups peaks (as tracemalloc traces
    it) at most 1.25 times as high as either group's minibatch alone."""
    alone = max(traced_train_rl_peak(monkeypatch, lambda groups: [groups[0]]),
                traced_train_rl_peak(monkeypatch, lambda groups: [groups[1]]))
    assert traced_train_rl_peak(monkeypatch, lambda groups: groups) <= 1.25 * alone


@pytest.mark.parametrize("which", [0, 1])
def test_train_rl_peak_memory_of_a_group_near_its_two_longest_rollouts(which, monkeypatch):
    """Each rollout's graph is freed by its own backward before the next
    rollout is scored, so a live group of 5 rollouts peaks (as tracemalloc
    traces it) at most 1.25 times as high as a group of its two longest."""
    def two_longest(groups):
        rollouts = groups[which].rollouts
        keep = sorted(sorted(range(len(rollouts)), key=lambda i: rollouts[i].new_items)[-2:])
        return [grpo.RolloutGroup(which, [rollouts[i] for i in keep], np.array([1.0, -1.0]))]

    whole = traced_train_rl_peak(monkeypatch, lambda groups: [groups[which]])
    assert whole <= 1.25 * traced_train_rl_peak(monkeypatch, two_longest)
