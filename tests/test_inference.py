import json

import numpy as np
import pytest

from latentsketch import backbone as bb
from latentsketch import diffusion as df
from latentsketch import inference as inf
from latentsketch import sequence as sq
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model
from latentsketch.util import seeded_rng


def make_model(seed=61, **overrides):
    kw = dict(layers=1, heads=2, d=8, max_len=96, k_latent=2, t_steps=4)
    kw.update(overrides)
    m = build_model(ModelConfig(**kw), seed=seed)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=seed)
    return m


def make_prompt(model, seed=1):
    trace = tv.generate_dataset("grid_rotation", 1, seed)[0]
    return inf.build_prompt(model, trace), trace


def test_prompt_length_is_the_built_prompt_length():
    model = make_model()
    for task in tv.TASKS:
        for trace in tv.generate_dataset(task, 3, 4):
            assert inf.prompt_length(trace) == len(inf.build_prompt(model, trace))


def test_language_only_mode_never_touches_diffusion():
    model = make_model()
    prompt, _ = make_prompt(model)
    before = dict(df.CALLS)
    for temp in (0.0, 0.7, 1.3):
        cfg = inf.GenerationConfig(mode="language_only", max_new_items=12, temperature=temp)
        res = inf.generate(prompt, model, cfg, seeded_rng(0, "lo", int(temp * 10)))
        assert not any(it.kind == sq.LATENT for it in res.seq.items[len(prompt):])
        assert not any(it.kind == sq.CTRL and it.value in (sq.START, sq.END)
                       for it in res.seq.items[len(prompt):])
    assert df.CALLS["sample_latent"] == before["sample_latent"]
    assert df.CALLS["denoise_step"] == before["denoise_step"]


def test_mixed_mode_seeded_determinism():
    model = make_model()
    prompt, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=14, temperature=1.1)
    a = inf.generate(prompt, model, cfg, seeded_rng(3, "det"))
    b = inf.generate(prompt, model, cfg, seeded_rng(3, "det"))
    assert len(a.seq) == len(b.seq)
    for x, y in zip(a.seq.items, b.seq.items):
        assert x.kind == y.kind
        if x.kind == sq.LATENT:
            assert np.array_equal(x.value, y.value)
        else:
            assert x.value == y.value


def test_greedy_language_only_idempotent_without_seed():
    model = make_model()
    prompt, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="language_only", max_new_items=10, temperature=0.0)
    a = inf.generate(prompt, model, cfg, seeded_rng(1, "greedy"))
    b = inf.generate(prompt, model, cfg, seeded_rng(2, "greedy"))
    assert [it.value for it in a.seq.items if it.kind != sq.LATENT] == \
           [it.value for it in b.seq.items if it.kind != sq.LATENT]


def test_start_dominant_model_emits_one_block_then_eos():
    """Rigged head: START logit dominates, EOS second; budget forces exactly one
    block, then EOS."""
    model = make_model(seed=62)
    model.store["backbone/lm_head/w"].data[:] = 0.0
    bias = model.store["backbone/lm_head/b"].data
    bias[:] = 0.0
    bias[vocab.START_ID] = 10.0
    bias[vocab.EOS_ID] = 5.0
    prompt, _ = make_prompt(model)
    k = model.cfg.k_latent
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=k + 3, temperature=0.0)
    res = inf.generate(prompt, model, cfg, seeded_rng(0, "rig"))
    gen = res.seq.items[len(prompt):]
    kinds = [(it.kind, it.value if it.kind != sq.LATENT else None) for it in gen]
    assert kinds[0] == (sq.CTRL, sq.START)
    assert all(k_ == sq.LATENT for k_, _ in kinds[1 : 1 + k])
    assert kinds[1 + k] == (sq.CTRL, sq.END)
    assert kinds[-1] == (sq.CTRL, sq.EOS)
    assert sum(1 for k_, v in kinds if v == sq.START) == 1
    assert not res.truncated


def test_generated_sequences_pass_grammar_across_temps_and_modes():
    model = make_model(seed=63)
    prompt, _ = make_prompt(model, seed=2)
    for mode in ("mixed", "language_only"):
        for temp in (0.0, 0.7, 1.3):
            for s in range(6):
                cfg = inf.GenerationConfig(mode=mode, max_new_items=12, temperature=temp)
                res = inf.generate(prompt, model, cfg, seeded_rng(s, mode, int(temp * 10)))
                sq.validate(res.seq, model.cfg.k_latent)


def test_generate_rejects_bad_prompts():
    model = make_model()
    with pytest.raises(sq.GrammarError):
        inf.generate(sq.MixedSequence([sq.MixedItem.text(30)]), model,
                     inf.GenerationConfig(mode="mixed", max_new_items=4, temperature=0.0),
                     seeded_rng(0, "bad"))
    ended = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.ctrl(sq.EOS)])
    with pytest.raises(ValueError, match="EOS"):
        inf.generate(ended, model, inf.GenerationConfig(mode="mixed", max_new_items=4, temperature=0.0),
                     seeded_rng(0, "bad"))
    prompt, _ = make_prompt(model)
    with pytest.raises(ValueError, match="budget"):
        inf.generate(prompt, model, inf.GenerationConfig(mode="mixed", max_new_items=model.cfg.max_len,
                                                           temperature=0.0),
                     seeded_rng(0, "bad"))


def test_truncation_flag_set_when_budget_exhausted():
    model = make_model(seed=64)
    model.store["backbone/lm_head/w"].data[:] = 0.0
    model.store["backbone/lm_head/b"].data[:] = 0.0
    model.store["backbone/lm_head/b"].data[vocab.STR2ID["rotate"]] = 10.0
    prompt, _ = make_prompt(model)
    res = inf.generate(prompt, model, inf.GenerationConfig(mode="language_only",
                                                           max_new_items=5, temperature=0.0),
                       seeded_rng(0, "trunc"))
    assert res.truncated
    assert res.new_items == 5


def test_pad_bos_end_never_sampled_even_at_high_temperature():
    model = make_model(seed=65)
    bias = model.store["backbone/lm_head/b"].data
    bias[vocab.PAD_ID] = 50.0
    bias[vocab.BOS_ID] = 50.0
    bias[vocab.END_ID] = 50.0
    prompt, _ = make_prompt(model)
    res = inf.generate(prompt, model, inf.GenerationConfig(mode="mixed", max_new_items=10,
                                                           temperature=1.5),
                       seeded_rng(1, "mask"))
    gen = res.seq.items[len(prompt):]
    for it in gen:
        if it.kind == sq.CTRL:
            assert it.value not in (sq.PAD, sq.BOS)
    sq.validate(res.seq, model.cfg.k_latent)


# -- lockstep group decoding -----------------------------------------------------------


def assert_same_generation(got, want):
    assert got.truncated == want.truncated
    assert got.new_items == want.new_items
    assert [(e.position, e.token_id) for e in got.emissions] == \
           [(e.position, e.token_id) for e in want.emissions]
    assert all(np.array_equal(e.mask, f.mask) for e, f in zip(got.emissions, want.emissions))
    assert len(got.seq) == len(want.seq)
    for x, y in zip(got.seq.items, want.seq.items):
        assert x.kind == y.kind
        if x.kind == sq.LATENT:
            assert np.max(np.abs(x.value - y.value)) <= 1e-12 * max(1.0, np.max(np.abs(y.value)))
        else:
            assert x.value == y.value


def group_and_singles(model, prompt, cfg, tag, g=6):
    group = inf.generate_group([prompt] * g, model, cfg, [seeded_rng(5, tag, i) for i in range(g)])
    singles = [inf.generate(prompt, model, cfg, seeded_rng(5, tag, i)) for i in range(g)]
    for got, want in zip(group, singles):
        assert_same_generation(got, want)
    return group


def test_generate_group_equals_separate_generations():
    """Sampled mixed mode where streams stop at different steps, by EOS and by
    the budget, with zero, one and two latent blocks."""
    model = make_model(seed=68)
    bias = model.store["backbone/lm_head/b"].data
    bias[vocab.START_ID] = 2.0
    bias[vocab.EOS_ID] = 1.5
    prompt, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=16, temperature=1.0)
    group = group_and_singles(model, prompt, cfg, "grp")
    finished = {r.new_items for r in group if not r.truncated}
    blocks = {sum(e.token_id == vocab.START_ID for e in r.emissions) for r in group}
    assert len(finished) >= 3 and any(r.truncated for r in group)
    assert blocks >= {0, 1, 2}


def test_generate_group_greedy_and_similarity_head():
    model = make_model(seed=69)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 3.0
    prompt, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=12, temperature=0.0)
    group = group_and_singles(model, prompt, cfg, "greedy", g=3)
    assert any(it.kind == sq.LATENT for it in group[0].seq.items[len(prompt):])
    sim = make_model(seed=70, head="similarity")
    sim.store["backbone/lm_head/b"].data[vocab.START_ID] = 2.0
    prompt, _ = make_prompt(sim)
    before = dict(df.CALLS)
    group = group_and_singles(sim, prompt,
                              inf.GenerationConfig(mode="mixed", max_new_items=12, temperature=1.0),
                              "sim")
    assert any(it.kind == sq.LATENT for r in group for it in r.seq.items[len(prompt):])
    assert df.CALLS["sample_latent"] == before["sample_latent"]


def test_generate_group_language_only_never_touches_diffusion():
    model = make_model(seed=71)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 5.0
    prompt, _ = make_prompt(model)
    before = dict(df.CALLS)
    group = group_and_singles(model, prompt, inf.GenerationConfig(mode="language_only",
                                                                  max_new_items=10, temperature=1.2),
                              "lo")
    assert all(df.CALLS[k] == before[k] for k in ("sample_latent", "denoise_step"))
    assert not any(it.kind == sq.CTRL and it.value == sq.START for r in group for it in r.seq.items)


@pytest.mark.parametrize("tasks", [("grid_rotation",) * 3,
                                   ("grid_rotation", "visual_search", "grid_rotation")],
                         ids=["one_length", "two_lengths"])
def test_generate_group_distinct_prompts_equal_separate_generations(tasks, monkeypatch):
    """Nine streams of three distinct prompts, each prompt shared by three
    streams: one decode cache of P + max_new_items positions and one prefill
    per prompt length P, of its distinct prompts, in order of first
    appearance, and every stream equals its own generate call, with
    streams ending by EOS and by the budget at different steps and with zero,
    one and two latent blocks."""
    model = make_model(seed=68, max_len=112)  # room for a visual_search prompt
    bias = model.store["backbone/lm_head/b"].data
    bias[vocab.START_ID] = 2.0
    bias[vocab.EOS_ID] = 1.5
    prompts = [inf.build_prompt(model, tv.generate_dataset(task, 1, s)[0])
               for task, s in zip(tasks, (1, 2, 3))]
    streams = [prompts[i] for i in (0, 1, 2, 0, 1, 2, 0, 1, 2)]
    rngs = [seeded_rng(5, "grp", i) for i in range(len(streams))]
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=16, temperature=1.0)
    caches, appends = [], []
    real_init, real_append = bb.DecodeCache.__init__, bb.DecodeCache.append

    def init_spy(cache, *args, **kwargs):
        real_init(cache, *args, **kwargs)
        caches.append((cache.streams, cache.kt.shape[-1], cache.v.shape[-2]))

    def append_spy(cache, ids, *args):
        appends.append(ids.shape)
        return real_append(cache, ids, *args)

    monkeypatch.setattr(bb.DecodeCache, "__init__", init_spy)
    monkeypatch.setattr(bb.DecodeCache, "append", append_spy)
    group = inf.generate_group(streams, model, cfg, rngs)
    lengths = list(dict.fromkeys(len(p) for p in prompts))
    distinct = [sum(len(p) == n for p in prompts) for n in lengths]
    assert caches == [(b, n + cfg.max_new_items, n + cfg.max_new_items) for b, n in zip(distinct, lengths)]
    assert [shape for shape in appends if shape[1] > 1] == list(zip(distinct, lengths))
    monkeypatch.undo()
    for i, got in enumerate(group):
        assert_same_generation(got, inf.generate(streams[i], model, cfg,
                                                 seeded_rng(5, "grp", i)))
    finished = {r.new_items for r in group if not r.truncated}
    blocks = {sum(e.token_id == vocab.START_ID for e in r.emissions) for r in group}
    assert len(finished) >= 3 and any(r.truncated for r in group)
    assert blocks >= {0, 1, 2}


def test_generate_group_rejects_a_generator_count_mismatch():
    model = make_model()
    grid, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=4, temperature=0.0)
    with pytest.raises(ValueError, match="generators"):
        inf.generate_group([grid, grid], model, cfg, [seeded_rng(0, "u")])


# -- extract_answer ---------------------------------------------------------------


def seq_of(*items):
    return sq.MixedSequence(list(items))


def T(word):
    return sq.MixedItem.text(vocab.STR2ID[word])


def test_extract_answer_after_final_end():
    s = seq_of(sq.MixedItem.ctrl(sq.BOS), T("rotate"), sq.MixedItem.ctrl(sq.START),
               sq.MixedItem.latent(np.zeros(4)), sq.MixedItem.latent(np.zeros(4)),
               sq.MixedItem.ctrl(sq.END), T("answer:"), T("B"), sq.MixedItem.ctrl(sq.EOS))
    assert inf.extract_answer(s) == [vocab.STR2ID["B"]]


def test_extract_answer_blockless_marker_path():
    s = seq_of(sq.MixedItem.ctrl(sq.BOS), T("which"), T("option"), T("answer:"), T("C"),
               sq.MixedItem.ctrl(sq.EOS))
    assert inf.extract_answer(s) == [vocab.STR2ID["C"]]


def test_extract_answer_truncated_no_eos():
    s = seq_of(sq.MixedItem.ctrl(sq.BOS), T("rotate"), sq.MixedItem.ctrl(sq.START),
               sq.MixedItem.latent(np.zeros(4)), sq.MixedItem.latent(np.zeros(4)),
               sq.MixedItem.ctrl(sq.END), T("D"))
    assert inf.extract_answer(s) == [vocab.STR2ID["D"]]


def test_extract_answer_empty_when_nothing_after_end():
    s = seq_of(sq.MixedItem.ctrl(sq.BOS), T("rotate"), sq.MixedItem.ctrl(sq.START),
               sq.MixedItem.latent(np.zeros(4)), sq.MixedItem.latent(np.zeros(4)),
               sq.MixedItem.ctrl(sq.END), sq.MixedItem.ctrl(sq.EOS))
    assert inf.extract_answer(s) == []


# -- attention export ---------------------------------------------------------------


def rigged_block_sequence(model, seed=4):
    prompt, trace = make_prompt(model, seed=seed)
    seq = prompt.copy()
    seq.append(sq.MixedItem.ctrl(sq.START))
    rng = seeded_rng(seed, "lat")
    for _ in range(model.cfg.k_latent):
        seq.append(sq.MixedItem.latent(rng.normal(size=model.cfg.d)))
    seq.append(sq.MixedItem.ctrl(sq.END))
    seq.append(sq.MixedItem.text(vocab.STR2ID["B"]))
    seq.append(sq.MixedItem.ctrl(sq.EOS))
    return seq


def test_export_attention_uniform_model_flat_heatmap(tmp_path):
    model = make_model(seed=66)
    for i in range(model.cfg.layers):
        model.store[f"backbone/layer{i}/attn/wqkv"].data[:, : 2 * model.cfg.d] = 0.0
        model.store[f"backbone/layer{i}/attn/bqkv"].data[: 2 * model.cfg.d] = 0.0
    seq = rigged_block_sequence(model)
    out = str(tmp_path / "heat.pgm")
    grid = inf.export_attention(seq, model, layer=0, out_path=out)
    assert grid.shape == (4, 4)
    assert np.max(grid) - np.min(grid) < 1e-9
    assert np.all(grid >= 0.0) and np.all(grid <= 1.0)
    blob = open(out, "rb").read()
    assert blob.startswith(b"P5\n4 4\n255\n")
    sidecar = json.loads(open(out + ".values.json").read())
    assert np.allclose(np.array(sidecar["values"]), grid)


def test_export_attention_requires_latent_block(tmp_path):
    model = make_model(seed=67)
    prompt, _ = make_prompt(model)
    with pytest.raises(ValueError, match="latent block"):
        inf.export_attention(prompt, model, 0, str(tmp_path / "x.pgm"))


def test_gold_answer_strips_marker():
    trace = tv.generate_dataset("grid_rotation", 1, 8)[0]
    gold = inf.gold_answer(trace)
    assert len(gold) == 1
    assert gold[0] in vocab.LETTER_IDS
