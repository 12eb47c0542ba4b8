import numpy as np
import pytest

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import diffusion as df
from latentsketch import sequence as sq
from latentsketch import sft
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model
from latentsketch.util import seeded_rng

from conftest import gradcheck, strip_images


def trace_for(model, seed=11):
    return tv.generate_dataset("grid_rotation", 1, seed)[0]


def test_build_example_structure(tiny_model):
    trace = trace_for(tiny_model)
    ex = sft.build_example(trace, tiny_model, m=2)
    r = sum(1 for s in trace.steps if s.image is not None)
    starts = sum(1 for it in ex.seq.items if it.kind == sq.CTRL and it.value == sq.START)
    assert starts == r
    assert ex.latent_targets.shape == (2 * r, tiny_model.cfg.d)
    sq.validate(ex.seq, k=2)
    # teacher forcing aligns targets one position ahead
    for pos, tgt in zip(ex.text_positions, ex.ce_targets):
        assert ex.seq.items[pos + 1].token_id() == tgt


def test_build_example_latent_free_trace(tiny_model):
    trace = strip_images(trace_for(tiny_model))
    ex = sft.build_example(trace, tiny_model, m=2)
    assert ex.latent_targets.shape[0] == 0
    assert not any(it.kind == sq.CTRL and it.value in (sq.START, sq.END)
                   for it in ex.seq.items[1:-1])
    # CE covers every response transition: step texts, answer, and EOS
    n_response_text = sum(len(s.text) for s in trace.steps) + len(trace.answer)
    assert ex.text_positions.size == n_response_text + 1  # +1 for the EOS target


def test_build_example_text_only_mode_emits_no_latent_rows(tiny_model):
    """A text_only example of a trace with sketches equals the example of the
    stripped trace: no latent rows, so joint_loss gives it CE alone."""
    trace = trace_for(tiny_model)
    assert any(s.image is not None for s in trace.steps)
    ex = sft.build_example(trace, tiny_model, m=2, mode="text_only")
    assert ex.latent_targets.shape == (0, tiny_model.cfg.d)
    assert ex.cond_positions.size == 0
    stripped = sft.build_example(strip_images(trace), tiny_model, m=2)
    for a, b in zip(sq.to_arrays(ex.seq, tiny_model.cfg.d), sq.to_arrays(stripped.seq, tiny_model.cfg.d)):
        assert np.array_equal(a, b)
    assert np.array_equal(ex.text_positions, stripped.text_positions)
    assert np.array_equal(ex.ce_targets, stripped.ce_targets)
    total, ce, diff = sft.joint_loss([ex], tiny_model, 5.0, seeded_rng(0, "to"))
    assert diff == 0.0 and total.item() == ce


def test_build_example_ce_targets_include_start_end_eos(tiny_model):
    trace = trace_for(tiny_model)
    ex = sft.build_example(trace, tiny_model, m=2)
    assert vocab.START_ID in ex.ce_targets
    assert vocab.END_ID in ex.ce_targets
    assert vocab.EOS_ID in ex.ce_targets
    # but CE never targets prompt (question) positions
    prompt_len = 1 + tv.encode_image(tiny_model.store, trace.input_image).shape[0] \
        + len(trace.question)
    assert ex.text_positions.min() >= prompt_len - 1


def test_build_example_spliced_latents_match_recomputation(tiny_model):
    trace = trace_for(tiny_model)
    ex = sft.build_example(trace, tiny_model, m=2)
    rows = []
    for step in trace.steps:
        if step.image is None:
            continue
        rows.append(tv.compress_latents(tv.encode_image(tiny_model.store, step.image), 2))
    want = np.concatenate(rows, axis=0)
    assert np.array_equal(ex.latent_targets, want)
    # and those same rows are spliced into the sequence between START/END
    latent_items = [it.value for it in ex.seq.items if it.kind == sq.LATENT]
    n_ctx = tv.encode_image(tiny_model.store, trace.input_image).shape[0]
    spliced = np.stack(latent_items[n_ctx:])
    assert np.array_equal(spliced, want)


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
    examples = [sft.build_example(strip_images(trace_for(tiny_model, s)), tiny_model, 2)
                for s in (1, 2)]
    total, ce, diff = sft.joint_loss(examples, tiny_model, 5.0, seeded_rng(0, "lf"))
    assert diff == 0.0
    assert total.item() == ce


def test_joint_loss_three_point_lambda_collinearity(tiny_model):
    examples = [sft.build_example(trace_for(tiny_model, s), tiny_model, 2) for s in (3, 4)]
    rows = sum(ex.latent_targets.shape[0] for ex in examples)
    draws = (np.full(rows, 2), seeded_rng(1, "col").standard_normal((rows, tiny_model.cfg.d)))
    ls = [sft.joint_loss(examples, tiny_model, lam, None, draws=draws)[0].item()
          for lam in (0.0, 1.0, 2.0)]
    assert abs(ls[0] + ls[2] - 2.0 * ls[1]) < 1e-9


def test_joint_loss_term_decomposition(tiny_model):
    """lambda=1 equals CE plus the standalone diffusion term with the same draws."""
    ex = sft.build_example(trace_for(tiny_model, 5), tiny_model, 2)
    rows = ex.latent_targets.shape[0]
    draws = (np.array([1, 3] * (rows // 2)), seeded_rng(2, "dec").standard_normal((rows, tiny_model.cfg.d)))
    total, ce, diff = sft.joint_loss([ex], tiny_model, 1.0, None, draws=draws)
    # standalone: teacher-forced conditions recomputed the same way
    import latentsketch.backbone as bb
    ids, mask, lat = sq.to_arrays(ex.seq, tiny_model.cfg.d)
    with ad.no_grad():
        hidden, _, _ = bb.forward_batch(tiny_model.store, tiny_model.cfg,
                                        ids[None], mask[None], lat[None])
        h = hidden.data[0][ex.cond_positions]
        c = h @ tiny_model.store["diffusion_head/cond_w"].data
        standalone = ad.mean_(df.noise_regression(ex.latent_targets, c, tiny_model.store,
                                                  tiny_model.sched, None, draws=draws))
    assert abs(total.item() - (ce + standalone.item())) < 1e-9
    assert abs(diff - standalone.item()) < 1e-9


def test_joint_loss_gradcheck_composed(tiny_model):
    ex = sft.build_example(trace_for(tiny_model, 6), tiny_model, 2)
    rows = ex.latent_targets.shape[0]
    draws = (np.full(rows, 2), seeded_rng(3, "g").standard_normal((rows, tiny_model.cfg.d)))
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
    """On a similarity-head model, joint_loss adds the mean over gold rows of
    1 - cosine between the projected conditioning hidden state and the row."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2,
                                t_steps=5, head="similarity"), seed=31)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=31)
    ex = sft.build_example(trace_for(m, 7), m, 2)
    total, ce, diff = sft.joint_loss([ex], m, 1.0, None)
    ids, text_mask, latents = sq.to_arrays(ex.seq, m.cfg.d)
    with ad.no_grad():
        hidden, _, _ = bb.forward_batch(m.store, m.cfg, ids[None], text_mask[None], latents[None])
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
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2, t_steps=5,
                                head=head), seed=seed)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=seed)
    return m


@pytest.mark.parametrize("head, mode, trained", [("similarity", "joint", "diffusion"),
                                                 ("diffusion", "similarity", "similarity")])
def test_train_sft_rejects_a_model_whose_head_the_mode_does_not_train(head, mode, trained, tmp_path):
    """The model's head must be the one the mode trains, checked before any
    step: no metrics file, no parameter moved."""
    m = make_trainable(head=head)
    before = {name: t.data.copy() for name, t in m.store.entries.items()}
    cfg = sft.SftConfig(mode=mode, steps=2, batch_size=2, m_latent=2, seed=1)
    metrics = tmp_path / "metrics.csv"
    with pytest.raises(ValueError, match=f"sft mode {mode} trains the {trained} head, "
                                         f"but the model has the {head} head"):
        sft.train_sft(m, tv.generate_dataset("grid_rotation", 4, 1), cfg, metrics_path=str(metrics))
    assert not metrics.exists()
    for name, val in before.items():
        assert np.array_equal(m.store[name].data, val)


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
    traces = [strip_images(t) for t in tv.generate_dataset("grid_rotation", 6, 3)]
    m1 = make_trainable(seed=43)
    m2 = make_trainable(seed=43)
    cfg1 = sft.SftConfig(mode="text_only", steps=4, batch_size=2, m_latent=2, seed=5)
    cfg2 = sft.SftConfig(mode="joint", lam=0.0, steps=4, batch_size=2, m_latent=2, seed=5)
    sft.train_sft(m1, traces, cfg1)
    sft.train_sft(m2, traces, cfg2)
    for name in m1.store.entries:
        assert np.array_equal(m1.store[name].data, m2.store[name].data), name


def test_train_sft_deterministic_and_encoder_frozen(tmp_path):
    def run():
        m = make_trainable(seed=44)
        enc_before = {n: m.store[n].data.copy() for n in m.store.entries
                      if m.store.group[n] == "vision_encoder"}
        traces = tv.generate_dataset("grid_rotation", 6, 2)
        cfg = sft.SftConfig(mode="joint", steps=6, batch_size=2, m_latent=2, seed=3)
        sft.train_sft(m, traces, cfg)
        return m, enc_before

    m1, enc1 = run()
    m2, _ = run()
    for name in m1.store.entries:
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
    for name in m_full.store.entries:
        assert np.array_equal(m_full.store[name].data, m_chunk.store[name].data), name
