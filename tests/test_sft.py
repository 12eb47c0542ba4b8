import os

import numpy as np
import pytest

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import diffusion as df
from latentsketch import sequence as sq
from latentsketch import sft
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model, load_model, save_model
from latentsketch.util import seeded_rng

from conftest import gradcheck


def trace_for(model, seed=11):
    return tv.generate_dataset("grid_rotation", 1, seed)[0]


def test_build_example_structure(tiny_model):
    trace = trace_for(tiny_model)
    ex = sft.build_example(trace, tiny_model, m=2)
    r = sum(1 for s in trace.steps if s.image is not None)
    starts = sum(1 for it in ex.seq.items if it.kind == sq.CTRL and it.value == sq.START)
    assert starts == r
    assert ex.latent_targets.shape == (2 * r, tiny_model.bcfg.d)
    sq.validate(ex.seq, k=2)
    # teacher forcing aligns targets one position ahead
    for pos, tgt in zip(ex.text_positions, ex.ce_targets):
        assert ex.seq.items[pos + 1].token_id() == tgt


def test_build_example_latent_free_trace(tiny_model):
    trace = tv.strip_images(trace_for(tiny_model))
    ex = sft.build_example(trace, tiny_model, m=2)
    assert ex.latent_targets.shape[0] == 0
    assert not any(it.kind == sq.CTRL and it.value in (sq.START, sq.END)
                   for it in ex.seq.items[1:-1])
    # CE covers every response transition: step texts, answer, and EOS
    n_response_text = sum(len(s.text) for s in trace.steps) + len(trace.answer)
    assert ex.text_positions.size == n_response_text + 1  # +1 for the EOS target


def test_build_example_ce_targets_include_start_end_eos(tiny_model):
    trace = trace_for(tiny_model)
    ex = sft.build_example(trace, tiny_model, m=2)
    assert vocab.START_ID in ex.ce_targets
    assert vocab.END_ID in ex.ce_targets
    assert vocab.EOS_ID in ex.ce_targets
    # but CE never targets prompt (question) positions
    prompt_len = 1 + tv.encode_image(tiny_model.store, trace.input_image).tokens.shape[0] \
        + len(trace.question)
    assert ex.text_positions.min() >= prompt_len - 1


def test_build_example_spliced_latents_match_recomputation(tiny_model):
    trace = trace_for(tiny_model)
    ex = sft.build_example(trace, tiny_model, m=2)
    rows = []
    for step in trace.steps:
        if step.image is None:
            continue
        emb = tv.encode_image(tiny_model.store, step.image, "intermediate")
        rows.append(tv.compress_latents(emb, 2))
    want = np.concatenate(rows, axis=0)
    assert np.array_equal(ex.latent_targets, want)
    # and those same rows are spliced into the sequence between START/END
    latent_items = [it.value for it in ex.seq.items if it.kind == sq.LATENT]
    n_ctx = tv.encode_image(tiny_model.store, trace.input_image).tokens.shape[0]
    spliced = np.stack(latent_items[n_ctx:])
    assert np.array_equal(spliced, want)


def assert_same_items(got, want, skip=frozenset()):
    """Equal item kinds, and equal values outside the positions in skip."""
    assert len(got.seq) == len(want.seq)
    for pos, (x, y) in enumerate(zip(got.seq.items, want.seq.items)):
        assert x.kind == y.kind
        if pos not in skip:
            assert np.array_equal(x.value, y.value), pos


def test_build_example_latent_noise_perturbs_only_spliced_copies(tiny_model):
    trace = trace_for(tiny_model)
    clean = sft.build_example(trace, tiny_model, m=2)
    noisy = sft.build_example(trace, tiny_model, m=2, latent_noise=0.5,
                              noise_rng=seeded_rng(0, "noise"))
    assert np.array_equal(noisy.latent_targets, clean.latent_targets)
    for name in ("text_positions", "ce_targets", "cond_positions"):
        assert np.array_equal(getattr(noisy, name), getattr(clean, name)), name
    # one draw of shape [m, d] per block, in block order
    rng = seeded_rng(0, "noise")
    gold = clean.latent_targets
    want = np.concatenate([gold[i : i + 2] + 0.5 * rng.standard_normal((2, gold.shape[1]))
                           for i in range(0, len(gold), 2)])
    assert_same_items(noisy, clean, skip=set((clean.cond_positions + 1).tolist()))
    got = np.stack([noisy.seq.items[p + 1].value for p in clean.cond_positions])
    assert np.array_equal(got, want)


def test_resample_blocks_full_fraction_samples_every_spliced_row(tiny_model):
    """Fraction 1.0 replaces each spliced gold row with df.sample_latent at the
    teacher-forced h @ cond_w, all drawn from the one generator; the targets,
    the text and the latent-free example stay as they were."""
    traces = [trace_for(tiny_model, 11), tv.strip_images(trace_for(tiny_model, 12)),
              trace_for(tiny_model, 13)]
    examples = [sft.build_example(t, tiny_model, m=2) for t in traces]
    before = [sft.build_example(t, tiny_model, m=2) for t in traces]
    sft.resample_blocks(examples, tiny_model, 1.0, seeded_rng(0, "resample"))
    store = tiny_model.store
    rng = seeded_rng(0, "resample")
    for ex in before:  # one pick draw per example that has latent rows
        if ex.latent_targets.shape[0]:
            rng.random()
    for ex, old in zip(examples, before):
        assert np.array_equal(ex.latent_targets, old.latent_targets)
        if not old.latent_targets.shape[0]:
            assert_same_items(ex, old)
            continue
        ids, text_mask, latents = sq.to_arrays(old.seq, tiny_model.bcfg.d)
        with ad.no_grad():
            hidden, _, _ = bb.forward_batch(store, tiny_model.bcfg, ids[None], text_mask[None],
                                            latents[None])
        c = hidden.data[0][old.cond_positions] @ store["diffusion_head/cond_w"].data
        want = df.sample_latent(c, store, tiny_model.sched, [rng] * len(c))
        got = np.stack([ex.seq.items[p + 1].value for p in old.cond_positions])
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
        assert not np.array_equal(got, old.latent_targets)
        assert_same_items(ex, old, skip=set((old.cond_positions + 1).tolist()))


def test_resample_blocks_leaves_a_similarity_head_model_unchanged():
    m = make_trainable(seed=45, head="similarity")
    traces = tv.generate_dataset("grid_rotation", 2, 4)
    examples = [sft.build_example(t, m, 2) for t in traces]
    sft.resample_blocks(examples, m, 1.0, seeded_rng(0, "resample"))
    for ex, t in zip(examples, traces):
        assert_same_items(ex, sft.build_example(t, m, 2))


def test_build_example_overflow_raises(tiny_model):
    trace = trace_for(tiny_model)
    giant = tv.AnnotatedTrace(trace.input_image, trace.question * 8, trace.steps,
                              trace.answer, trace.task_id, trace.seed)
    with pytest.raises(ValueError, match="overflow"):
        sft.build_example(giant, tiny_model, m=2)


def test_condition_positions_disjoint_from_ce_positions(tiny_model):
    ex = sft.build_example(trace_for(tiny_model), tiny_model, m=2)
    assert not set(ex.text_positions.tolist()) & set(ex.cond_positions.tolist())
    # each condition position is immediately before its latent row
    for pos in ex.cond_positions:
        assert ex.seq.items[pos + 1].kind == sq.LATENT


def test_joint_loss_lambda_zero_equals_text_ce(tiny_model):
    examples = [sft.build_example(trace_for(tiny_model, s), tiny_model, 2) for s in (1, 2)]
    rng = seeded_rng(0, "l0")
    total0, ce0, diff0 = sft.joint_loss(examples, tiny_model, 0.0, rng)
    assert diff0 != 0.0  # latent rows exist, the term is computed
    assert abs(total0.item() - ce0) < 1e-12


def test_joint_loss_latent_free_batch_zero_diffusion(tiny_model):
    examples = [sft.build_example(tv.strip_images(trace_for(tiny_model, s)), tiny_model, 2)
                for s in (1, 2)]
    total, ce, diff = sft.joint_loss(examples, tiny_model, 5.0, seeded_rng(0, "lf"))
    assert diff == 0.0
    assert total.item() == ce


def test_joint_loss_three_point_lambda_collinearity(tiny_model):
    examples = [sft.build_example(trace_for(tiny_model, s), tiny_model, 2) for s in (3, 4)]
    rows = sum(ex.latent_targets.shape[0] for ex in examples)
    draws = (np.full(rows, 2), seeded_rng(1, "col").standard_normal((rows, tiny_model.bcfg.d)))
    ls = [sft.joint_loss(examples, tiny_model, lam, None, draws=draws)[0].item()
          for lam in (0.0, 1.0, 2.0)]
    assert abs(ls[0] + ls[2] - 2.0 * ls[1]) < 1e-9


def test_joint_loss_term_decomposition(tiny_model):
    """lambda=1 equals CE plus the standalone diffusion term with the same draws."""
    ex = sft.build_example(trace_for(tiny_model, 5), tiny_model, 2)
    rows = ex.latent_targets.shape[0]
    draws = (np.array([1, 3] * (rows // 2)), seeded_rng(2, "dec").standard_normal((rows, tiny_model.bcfg.d)))
    total, ce, diff = sft.joint_loss([ex], tiny_model, 1.0, None, draws=draws)
    # standalone: teacher-forced conditions recomputed the same way
    import latentsketch.backbone as bb
    ids, mask, lat = sq.to_arrays(ex.seq, tiny_model.bcfg.d)
    with ad.no_grad():
        hidden, _, _ = bb.forward_batch(tiny_model.store, tiny_model.bcfg,
                                        ids[None], mask[None], lat[None])
        h = hidden.data[0][ex.cond_positions]
        c = h @ tiny_model.store["diffusion_head/cond_w"].data
        standalone = df.diffusion_loss(ex.latent_targets, c, tiny_model.store,
                                       tiny_model.sched, None, draws=draws)
    assert abs(total.item() - (ce + standalone.item())) < 1e-9
    assert abs(diff - standalone.item()) < 1e-9


def test_joint_loss_gradcheck_composed(tiny_model):
    ex = sft.build_example(trace_for(tiny_model, 6), tiny_model, 2)
    rows = ex.latent_targets.shape[0]
    draws = (np.full(rows, 2), seeded_rng(3, "g").standard_normal((rows, tiny_model.bcfg.d)))
    rng = np.random.default_rng(0)
    params = [tiny_model.store["backbone/layer0/attn/wqkv"],
              tiny_model.store["diffusion_head/cond_w"],
              tiny_model.store["diffusion_head/eps/w_out"]]

    def f():
        tiny_model.store.zero_grad()
        return sft.joint_loss([ex], tiny_model, 1.0, None, draws=draws)[0]

    gradcheck(f, params, tol=1e-5, rng=rng, max_coords=6)


def test_similarity_rows_identical_antipodal_orthogonal():
    t = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    p = ad.Tensor(np.array([[2.0, 0.0], [0.0, -1.0], [0.0, 0.5]]))
    rows = sft._cosine_rows(p, t).data
    assert rows[0] == pytest.approx(0.0, abs=1e-6)   # same direction
    assert rows[1] == pytest.approx(2.0, abs=1e-6)   # antipodal
    assert rows[2] == pytest.approx(1.0, abs=1e-6)   # orthogonal


def test_similarity_loss_runs_and_matches_mode():
    """joint_loss(mode="similarity") adds the mean over gold rows of 1 - cosine
    between the projected conditioning hidden state and the row."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2,
                                t_steps=5, head="similarity"), seed=31)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=31)
    ex = sft.build_example(trace_for(m, 7), m, 2)
    total, ce, diff = sft.joint_loss([ex], m, 1.0, None, mode="similarity")
    ids, text_mask, latents = sq.to_arrays(ex.seq, m.bcfg.d)
    with ad.no_grad():
        hidden, _, _ = bb.forward_batch(m.store, m.bcfg, ids[None], text_mask[None], latents[None])
    pred = hidden.data[0, ex.cond_positions] @ m.store["diffusion_head/sim_w"].data \
        + m.store["diffusion_head/sim_b"].data
    tgt = ex.latent_targets
    cos = np.sum(pred * tgt, axis=1) / ((np.linalg.norm(pred, axis=1) + 1e-8)
                                        * (np.linalg.norm(tgt, axis=1) + 1e-8))
    assert ex.latent_targets.shape[0] > 0
    assert abs(diff - np.mean(1.0 - cos)) < 1e-12
    assert abs(total.item() - (ce + diff)) < 1e-12


def test_batch_indices_stateless_and_wrapping():
    a = [sft.batch_indices(s, 4, 10, seed=9).tolist() for s in range(6)]
    b = [sft.batch_indices(s, 4, 10, seed=9).tolist() for s in range(6)]
    assert a == b
    flat = [i for batch in a[:5] for i in batch]
    # first two epochs cover the dataset exactly twice
    assert sorted(flat[:10]) == list(range(10))
    assert sorted(flat[10:20]) == list(range(10))


def make_trainable(seed=41, head="diffusion"):
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2,
                                t_steps=5, head=head), seed=seed)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=seed)
    return m


def test_train_sft_zero_steps_is_identity(tmp_path):
    m = make_trainable()
    before = m.store.clone_values()
    traces = tv.generate_dataset("grid_rotation", 4, 1)
    cfg = sft.SftConfig(mode="joint", steps=0, batch_size=2, m_latent=2, seed=1)
    sft.train_sft(m, traces, cfg)
    for name, val in before.items():
        assert np.array_equal(m.store[name].data, val)


def test_train_sft_requires_frozen_encoder():
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2), seed=2)
    with pytest.raises(RuntimeError, match="frozen"):
        sft.train_sft(m, tv.generate_dataset("grid_rotation", 2, 1),
                      sft.SftConfig(steps=1, batch_size=1, m_latent=2))


def test_train_text_only_equals_joint_lambda_zero_on_latent_free_data():
    traces = [tv.strip_images(t) for t in tv.generate_dataset("grid_rotation", 6, 3)]
    m1 = make_trainable(seed=43)
    m2 = make_trainable(seed=43)
    cfg1 = sft.SftConfig(mode="text_only", steps=4, batch_size=2, m_latent=2, seed=5)
    cfg2 = sft.SftConfig(mode="joint", lam=0.0, steps=4, batch_size=2, m_latent=2, seed=5)
    sft.train_sft(m1, traces, cfg1)
    sft.train_sft(m2, traces, cfg2)
    for name in m1.store.names():
        assert np.array_equal(m1.store[name].data, m2.store[name].data), name


def test_train_sft_deterministic_and_encoder_frozen(tmp_path):
    def run():
        m = make_trainable(seed=44)
        enc_before = {n: m.store[n].data.copy() for n in m.store.names()
                      if m.store.group[n] == "vision_encoder"}
        traces = tv.generate_dataset("grid_rotation", 6, 2)
        cfg = sft.SftConfig(mode="joint", steps=6, batch_size=2, m_latent=2, seed=3)
        sft.train_sft(m, traces, cfg)
        return m, enc_before

    m1, enc1 = run()
    m2, _ = run()
    for name in m1.store.names():
        assert np.array_equal(m1.store[name].data, m2.store[name].data)
    for name, val in enc1.items():
        assert np.array_equal(m1.store[name].data, val)


def test_train_sft_metrics_csv_schema(tmp_path):
    m = make_trainable(seed=45)
    traces = tv.generate_dataset("grid_rotation", 4, 2)
    path = str(tmp_path / "metrics.csv")
    cfg = sft.SftConfig(mode="joint", steps=3, batch_size=2, m_latent=2, seed=3)
    rows = sft.train_sft(m, traces, cfg, metrics_path=path)
    lines = open(path).read().splitlines()
    assert lines[0] == "step,ce_loss,diff_loss,total_loss,lr_backbone,lr_diffusion,grad_norm"
    assert len(lines) == 1 + 3
    assert len(rows) == 3
    # recorded values round-trip through repr exactly
    assert float(lines[1].split(",")[1]) == rows[0]["ce_loss"]


def test_train_sft_resume_chunks_match_uninterrupted(tmp_path):
    traces = tv.generate_dataset("grid_rotation", 6, 2)
    cfg = sft.SftConfig(mode="joint", steps=6, batch_size=2, m_latent=2, seed=3)
    m_full = make_trainable(seed=46)
    sft.train_sft(m_full, traces, cfg)
    m_chunk = make_trainable(seed=46)
    sft.train_sft(m_chunk, traces, cfg, end_step=3)
    sft.train_sft(m_chunk, traces, cfg, start_step=3)
    for name in m_full.store.names():
        assert np.array_equal(m_full.store[name].data, m_chunk.store[name].data), name
