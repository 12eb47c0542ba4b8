import json
import os
import threading

import numpy as np
import pytest

from latentsketch import backbone as bb
from latentsketch import cli
from latentsketch import diffusion as df
from latentsketch import inference as inf
from latentsketch import sequence as sq
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model, load_model
from latentsketch.util import seeded_rng

from conftest import use_cores


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
    assert [(e.position, e.token_id, e.logprob) for e in got.emissions] == \
           [(e.position, e.token_id, e.logprob) for e in want.emissions]
    assert all(np.array_equal(e.mask, f.mask) for e, f in zip(got.emissions, want.emissions))
    assert len(got.seq) == len(want.seq)
    for x, y in zip(got.seq.items, want.seq.items):
        assert x.kind == y.kind
        if x.kind == sq.LATENT:
            assert np.array_equal(x.value, y.value)
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
    one and two latent blocks.  On one core, so that each pass is one chunk and
    its cache and prefill are the caller's."""
    use_cores(monkeypatch, 1)
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


def test_generate_group_rejects_a_generator_shared_by_two_streams():
    model = make_model()
    grid, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=4, temperature=1.0)
    shared = seeded_rng(0, "shared")
    rngs = [seeded_rng(0, "own"), shared, seeded_rng(1, "own"), shared]
    with pytest.raises(ValueError, match="streams 1 and 3 share one generator"):
        inf.generate_group([grid] * 4, model, cfg, rngs)


# -- the chunked decode: up to MAX_CHUNKS chunks of each lockstep pass at once ----------


FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "fixture", "sft_grid_rotation.lsk")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def decode(monkeypatch, cores, prompts, model, cfg, rngs):
    """generate_group at the given core count: its results and the
    diffusion.CALLS delta."""
    use_cores(monkeypatch, cores)
    before = dict(df.CALLS)
    out = inf.generate_group(prompts, model, cfg, rngs)
    assert_no_child_left()
    return out, {k: df.CALLS[k] - before[k] for k in before}


# the fast suite runs the two seeds of the first 20 whose chunks, with a plain
# numpy product in place of ad.row_product, lost the serial decode's bits
@pytest.mark.parametrize("seed", [15, 17] + [pytest.param(s, marks=pytest.mark.slow) for s in range(5)])
def test_chunked_decode_equals_the_serial_one_on_the_fixture(seed, monkeypatch):
    """GRPO's fixture iteration, 3 queries x 8 streams at temperature 0.8:
    split over 2 cores, the decode gives the serial decode's tokens, masks,
    log-probabilities and latent rows bit for bit.  Each chunk calls the
    sampler on its own, so the CALLS delta is the sum of the chunks' serial
    deltas."""
    model, _ = load_model(FIXTURE)
    traces = tv.generate_dataset("grid_rotation", 3 * seed + 3, 7)[-3:]
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=48, temperature=0.8)
    prompts = [inf.build_prompt(model, t) for t in traces for _ in range(8)]

    def rngs():
        return [seeded_rng(seed, "fixture", g) for g in range(len(prompts))]

    want, _ = decode(monkeypatch, 1, prompts, model, cfg, rngs())
    got, calls = decode(monkeypatch, 2, prompts, model, cfg, rngs())
    for g, w in zip(got, want):
        assert_same_generation(g, w)
    if seed == 15:  # chunk i holds streams i, i + 2, ...
        chunks = [decode(monkeypatch, 1, prompts[i::2], model, cfg, rngs()[i::2])[1] for i in range(2)]
        assert calls == {k: sum(c[k] for c in chunks) for k in calls}
        assert calls["denoise_step"] == model.cfg.t_steps * calls["sample_latent"] > 0


def test_chunked_evaluate_gives_the_serial_dump_and_rows(monkeypatch, tmp_path):
    """cli.evaluate's greedy 32-stream decode on the fixture, split over 2
    cores: the same dump, and every generation bit for bit."""
    model, _ = load_model(FIXTURE)
    traces = tv.generate_dataset("grid_rotation", cli.EVAL_STREAMS, 3)
    runs, real = [], inf.generate_group

    def keep(*args):
        runs[-1].extend(real(*args))
        return runs[-1]

    monkeypatch.setattr(inf, "generate_group", keep)
    dumps = []
    for n in (1, 2):
        use_cores(monkeypatch, n)
        runs.append([])
        cli.evaluate(model, traces, "mixed", 5, dump_path=str(tmp_path / f"{n}.jsonl"))
        assert_no_child_left()
        dumps.append((tmp_path / f"{n}.jsonl").read_bytes())
    assert dumps[0] == dumps[1]
    assert len(runs[0]) == cli.EVAL_STREAMS
    for got, want in zip(runs[1], runs[0]):
        assert_same_generation(got, want)
    assert any(it.kind == sq.LATENT for r in runs[0] for it in r.seq.items[inf.prompt_length(traces[0]):])


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_non_finite_epsilon_net_raises_in_the_caller_and_leaves_no_child(cores, monkeypatch):
    model = make_model(seed=69)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 5.0
    model.store["diffusion_head/eps/b_out"].data[0] = np.inf
    prompt, _ = make_prompt(model)
    use_cores(monkeypatch, cores)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=12, temperature=1.0)
    with pytest.raises(FloatingPointError, match="epsilon net"):
        inf.generate_group([prompt] * 6, model, cfg, [seeded_rng(2, "nan", g) for g in range(6)])
    assert_no_child_left()


@pytest.mark.parametrize("cores", [2, 3])
def test_a_child_that_fails_raises_in_the_caller_and_leaves_no_child(cores, monkeypatch):
    """A child's exception is raised by the caller, whose own chunk decodes
    cleanly; a child that exits without a result raises RuntimeError."""
    model = make_model(seed=69)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 5.0
    prompt, _ = make_prompt(model)
    use_cores(monkeypatch, cores)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=12, temperature=1.0)
    caller, real = os.getpid(), df.emit_block

    def fail_in_child(exit_silently):
        def emit_block(*args):
            if os.getpid() != caller:
                if exit_silently:
                    os._exit(3)
                raise KeyError("raised in a child")
            return real(*args)
        return emit_block

    for exit_silently, error, match in ((False, KeyError, "raised in a child"),
                                        (True, RuntimeError, "exited without a result")):
        monkeypatch.setattr(df, "emit_block", fail_in_child(exit_silently))
        with pytest.raises(error, match=match):
            inf.generate_group([prompt] * 6, model, cfg, [seeded_rng(2, "child", g) for g in range(6)])
        assert_no_child_left()


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_children_started_are_at_most_one_fewer_than_the_chunks(cores, monkeypatch):
    """One child per chunk after the first: min(MAX_CHUNKS, cores,
    streams // 2) - 1 for a pass of that many streams, so at most one
    whatever the core count, and none for fewer than four streams."""
    model = make_model(seed=68)
    prompt, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=4, temperature=1.0)
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for streams in range(1, 8):
        forks.clear()
        decode(monkeypatch, cores, [prompt] * streams, model, cfg,
               [seeded_rng(4, "forks", g) for g in range(streams)])
        assert len(forks) == max(0, min(inf.MAX_CHUNKS, cores, streams // 2) - 1) <= inf.MAX_CHUNKS - 1


def test_one_chunk_where_fork_is_absent_or_another_thread_runs(monkeypatch):
    use_cores(monkeypatch, 4)
    assert inf._chunk_count(24) == inf.MAX_CHUNKS == 2
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert inf._chunk_count(24) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert inf._chunk_count(24) == 1


@pytest.mark.parametrize("cores", [1, 2])
def test_chunked_language_only_never_touches_diffusion(cores, monkeypatch):
    model = make_model(seed=71)
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = 5.0
    prompt, _ = make_prompt(model)
    cfg = inf.GenerationConfig(mode="language_only", max_new_items=10, temperature=1.2)
    group, calls = decode(monkeypatch, cores, [prompt] * 6, model, cfg,
                          [seeded_rng(5, "lo", g) for g in range(6)])
    assert calls == {"sample_latent": 0, "denoise_step": 0}
    assert not any(it.kind == sq.CTRL and it.value == sq.START for r in group for it in r.seq.items)


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
    assert gold[0] in [vocab.STR2ID[s] for s in "ABCD"]
