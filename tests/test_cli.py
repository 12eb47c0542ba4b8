import dataclasses
import json
import os

import numpy as np
import pytest

from latentsketch import cli
from latentsketch import diffusion as df
from latentsketch import inference as inf
from latentsketch import sequence as sq
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.cli import (DEFAULT_CONFIG, SECTIONS, ConfigError, _merge_validate, evaluate,
                              load_config, main, section_config)
from latentsketch.model import ModelConfig, build_model, save_model
from latentsketch.util import seeded_rng


TINY_MODEL = {"layers": 1, "heads": 2, "d": 8, "max_len": 96, "k_latent": 2, "t_steps": 4}


def tiny_config(tmp_path, **over):
    cfg = {
        "seed": 3,
        "model": TINY_MODEL,
        "data": {"task": "grid_rotation", "train_count": 6, "train_seed": 2},
        "sft": {"steps": 3, "batch_size": 2, "m_latent": 2, "encoder_pretrain_steps": 2,
                "checkpoint_interval": 2},
        "eval": {"n": 2, "seed": 11, "max_new_items": 8},
        "paths": {"out_dir": str(tmp_path / "run")},
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key: sft.bogus"):
        _merge_validate({"sft": {"bogus": 1}}, DEFAULT_CONFIG)
    with pytest.raises(ConfigError, match="unknown config key: nope"):
        _merge_validate({"nope": {}}, DEFAULT_CONFIG)


def test_env_seed_override(tmp_path, monkeypatch):
    path = tiny_config(tmp_path)
    monkeypatch.setenv("LATENT_SKETCH_SEED", "99")
    cfg = load_config(path)
    assert cfg["seed"] == 99
    monkeypatch.delenv("LATENT_SKETCH_SEED")
    assert load_config(path)["seed"] == 3


# every key of each dataclass-backed section, set to a valid value that differs
# from its default and from the section's other values
NON_DEFAULT = {
    "model": {"layers": 3, "heads": 2, "d": 12, "max_len": 200, "k_latent": 5,
              "t_steps": 40, "beta_start": 2e-4, "beta_end": 0.3},
    "sft": {"mode": "text_only", "lambda": 0.5, "lr_backbone": 2e-3, "lr_diffusion": 3e-2,
            "steps": 11, "batch_size": 3, "m_latent": 2, "weight_decay": 0.02,
            "warmup_frac": 0.05, "floor_frac": 0.2, "clip_norm": 1.5, "checkpoint_interval": 5,
            "encoder_pretrain_steps": 13, "encoder_lr": 4e-2},
    "rl": {"group_size": 4, "clip_eps": 0.1, "lr": 2e-4, "temperature": 0.9,
           "max_new_items": 40, "iters": 7, "queries_per_iter": 3, "groups_per_step": 1,
           "weight_decay": 0.05, "clip_norm": 2.0},
}


@pytest.mark.parametrize("section", ["model", "sft", "rl"])
def test_every_config_key_reaches_its_dataclass(section, tmp_path, monkeypatch):
    monkeypatch.delenv("LATENT_SKETCH_SEED", raising=False)
    values = NON_DEFAULT[section]
    assert len(set(map(repr, values.values()))) == len(values)
    for key, val in values.items():
        assert val != DEFAULT_CONFIG[section][key], key
    # every dataclass field but the seed, the vocabulary size and the latent head
    # has a config key, and no key lacks a field
    names = {f.name for f in dataclasses.fields(SECTIONS[section])} - {"seed", "vocab", "head"}
    assert {"lambda" if n == "lam" else n for n in names} == set(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 123, section: values}))
    built = section_config(load_config(str(path)), section)
    for name in names:
        assert getattr(built, name) == values["lambda" if name == "lam" else name], name
    if section == "model":
        assert built.vocab == vocab.VOCAB_SIZE and built.head == "diffusion"
    else:
        assert built.seed == 123


def test_gen_data_deterministic_and_overwrite_guard(tmp_path, capsys):
    out = str(tmp_path / "d.jsonl")
    assert main(["gen-data", "--task", "grid_rotation", "--count", "5", "--seed", "4",
                 "--out", out]) == 0
    first = open(out, "rb").read()
    # refuse silent overwrite
    assert main(["gen-data", "--task", "grid_rotation", "--count", "5", "--seed", "4",
                 "--out", out]) == 2
    assert main(["gen-data", "--task", "grid_rotation", "--count", "5", "--seed", "4",
                 "--out", out, "--force"]) == 0
    assert open(out, "rb").read() == first


def test_gen_data_count_zero_is_validation_error(tmp_path):
    out = str(tmp_path / "d.jsonl")
    assert main(["gen-data", "--task", "grid_rotation", "--count", "0", "--seed", "1",
                 "--out", out]) == 2
    assert not os.path.exists(out)


def test_gen_data_pgm_debug_renders(tmp_path):
    out = str(tmp_path / "d.jsonl")
    assert main(["gen-data", "--task", "visual_search", "--count", "2", "--seed", "1",
                 "--out", out, "--pgm"]) == 0
    pgm = out + ".pgm"
    assert os.path.exists(os.path.join(pgm, "trace0_input.pgm"))
    assert os.path.exists(os.path.join(pgm, "trace0_step1.pgm"))


def test_train_sft_writes_artifacts_and_resume_is_bitwise(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["train-sft", "--config", cfg_path]) == 0
    run = tmp_path / "run"
    assert (run / "config.resolved.json").exists()
    assert (run / "metrics.csv").exists()
    assert (run / "checkpoint.lsk").exists()
    resolved = json.loads((run / "config.resolved.json").read_text())
    assert resolved["code_version"].startswith("latentsketch-")
    final = (run / "checkpoint.lsk").read_bytes()

    # resume from the periodic step-2 checkpoint reproduces the final bitwise
    mid = run / "checkpoint_000002.lsk"
    assert mid.exists()
    cfg3 = json.loads(open(cfg_path).read())
    cfg3["paths"]["out_dir"] = str(tmp_path / "run3")
    p3 = tmp_path / "cfg3.json"
    p3.write_text(json.dumps(cfg3))
    assert main(["train-sft", "--config", str(p3), "--resume", str(mid)]) == 0
    resumed = (tmp_path / "run3" / "checkpoint.lsk").read_bytes()
    assert resumed == final


@pytest.fixture()
def data_loads(monkeypatch):
    """The calls run_sft_pipeline makes to load_training_data."""
    calls = []

    def spy(cfg):
        calls.append(cfg)
        return load_training_data(cfg)

    load_training_data = cli.load_training_data
    monkeypatch.setattr(cli, "load_training_data", spy)
    return calls


def assert_rejected_before_any_work(tmp_path, data_loads):
    """A rejected train-sft writes no run manifest and builds no data."""
    assert not (tmp_path / "run" / "config.resolved.json").exists()
    assert not (tmp_path / "run" / "metrics.csv").exists()
    assert data_loads == []


def test_train_sft_block_length_mismatch_exits_2(tmp_path, capsys, data_loads):
    path = tiny_config(tmp_path, sft={"steps": 1, "batch_size": 2, "m_latent": 3,
                                      "encoder_pretrain_steps": 2})
    assert main(["train-sft", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "sft.m_latent (3)" in err and "model.k_latent (2)" in err
    assert_rejected_before_any_work(tmp_path, data_loads)


# (section, key, value) of keys that are not config keys: the head follows
# sft.mode and the vocabulary is the committed one; the others are settings
# the program does not have (removed ones, and the eval mode that ablate
# takes from its suite)
UNKNOWN_KEYS = [("model", "head", "similarity"), ("model", "vocab", 96),
                ("sft", "latent_noise", 0.1), ("sft", "sampled_block_fraction", 0.25),
                ("sft", "align_pattern_tokens", False), ("rl", "ratio_variant", "sequence"),
                ("data", "text_only_fraction", 0.5), ("eval", "mode", "mixed")]


@pytest.mark.parametrize("section, key, value", UNKNOWN_KEYS, ids=[f"{k}-{v}" for _, k, v in UNKNOWN_KEYS])
def test_model_head_and_vocab_are_not_config_keys(section, key, value, tmp_path, capsys):
    """Setting any of them exits 2 before anything is written, even to its
    only legal or its former default value."""
    cfg = json.loads(open(tiny_config(tmp_path)).read())
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["train-sft", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config key: {section}.{key}\n"
    assert not (tmp_path / "run").exists()


def test_train_sft_resume_block_length_mismatch_exits_2(tmp_path, capsys, data_loads):
    ck = make_checkpoint(tmp_path)
    path = tiny_config(tmp_path, sft={"steps": 1, "batch_size": 2, "m_latent": 3,
                                      "encoder_pretrain_steps": 2})
    assert main(["train-sft", "--config", path, "--resume", ck]) == 2
    err = capsys.readouterr().err
    assert "sft.m_latent (3)" in err and "model.k_latent (2)" in err
    assert_rejected_before_any_work(tmp_path, data_loads)


@pytest.mark.parametrize("head, mode", [("similarity", "joint"), ("diffusion", "similarity")])
def test_train_sft_resume_head_mismatch_exits_2(head, mode, tmp_path, capsys, data_loads):
    """The head a resumed checkpoint has must be the one sft.mode trains."""
    ck = make_checkpoint(tmp_path, head=head)
    path = tiny_config(tmp_path, sft={"mode": mode, "steps": 1, "batch_size": 2, "m_latent": 2,
                                      "encoder_pretrain_steps": 2})
    assert main(["train-sft", "--config", path, "--resume", ck]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint") and f"has the {head} head" in err
    assert f"sft.mode {mode}" in err
    assert_rejected_before_any_work(tmp_path, data_loads)


# (data section overrides, LATENT_SKETCH_SEED, what the message names)
BAD_OUTSIDE_VALUES = [({"task": "bogus"}, None, "data.task"), ({"train_count": 0}, None, "data.train_count"),
                      ({}, "abc", "LATENT_SKETCH_SEED")]


@pytest.mark.parametrize("command", ["train-sft", "train-rl"])
@pytest.mark.parametrize("data, env_seed, named", BAD_OUTSIDE_VALUES, ids=[n for _, _, n in BAD_OUTSIDE_VALUES])
def test_bad_data_value_or_env_seed_exits_2_before_writing(command, data, env_seed, named, tmp_path,
                                                          capsys, monkeypatch):
    path = tiny_config(tmp_path, data={"task": "grid_rotation", "train_count": 6, "train_seed": 2, **data})
    if env_seed is not None:
        monkeypatch.setenv("LATENT_SKETCH_SEED", env_seed)
    argv = [command, "--config", path]
    if command == "train-rl":
        argv += ["--from-checkpoint", make_checkpoint(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} must be")
    assert not (tmp_path / "run").exists() or not os.listdir(tmp_path / "run")


def test_train_rl_requires_checkpoint_flag(tmp_path):
    cfg_path = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["train-rl", "--config", cfg_path])
    assert e.value.code == 2


def test_train_rl_smoke_from_sft_checkpoint(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["train-sft", "--config", cfg_path]) == 0
    cfg = json.loads(open(cfg_path).read())
    cfg["paths"]["out_dir"] = str(tmp_path / "rl_run")
    cfg["rl"] = {"group_size": 2, "iters": 1, "queries_per_iter": 1, "max_new_items": 8,
                 "temperature": 1.0}
    p = tmp_path / "rl.json"
    p.write_text(json.dumps(cfg))
    assert main(["train-rl", "--config", str(p),
                 "--from-checkpoint", str(tmp_path / "run" / "checkpoint.lsk")]) == 0
    assert (tmp_path / "rl_run" / "rl_metrics.csv").exists()
    assert (tmp_path / "rl_run" / "rl_checkpoint.lsk").exists()


def make_checkpoint(tmp_path, seed=71, head="diffusion"):
    m = build_model(ModelConfig(**TINY_MODEL, head=head), seed=seed)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=seed)
    path = str(tmp_path / "m.lsk")
    save_model(path, m)
    return path


@pytest.mark.parametrize("key,value", [("group_size", 1), ("queries_per_iter", 0),
                                       ("groups_per_step", 0), ("max_new_items", 0),
                                       ("temperature", 0.0)])
def test_bad_rl_value_exits_2_naming_the_key(key, value, tmp_path, capsys):
    path = tiny_config(tmp_path, rl={key: value})
    assert main(["train-rl", "--config", path, "--from-checkpoint", make_checkpoint(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid rl config:") and key in err
    assert not (tmp_path / "run" / "rl_metrics.csv").exists()


def test_eval_validation_and_dump_consistency(tmp_path):
    ck = make_checkpoint(tmp_path)
    assert main(["eval", "--checkpoint", ck, "--task", "grid_rotation", "--n", "0",
                 "--seed", "1"]) == 2
    out = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint", ck, "--task", "grid_rotation", "--mode", "mixed",
                 "--n", "3", "--seed", "5", "--max-new-items", "8", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "eval_grid_rotation_mixed_5.json")).read())
    dump = [json.loads(l) for l in
            open(os.path.join(out, "eval_grid_rotation_mixed_5.dump.jsonl"))]
    assert report["n_examples"] == 3
    # accuracy recomputed from the per-example dump equals the report exactly
    assert report["exact_match_accuracy"] == sum(d["correct"] for d in dump) / 3
    assert report["mode"] == "mixed"
    assert set(report) >= {"task", "mode", "checkpoint", "n_examples",
                           "exact_match_accuracy", "per_seed", "wall_time"}


def test_evaluate_batches_equal_per_example_decoding(tmp_path, monkeypatch):
    """Runs of EVAL_STREAMS consecutive examples, of one or two prompt
    lengths, decode to the dump and report of one generate call per example
    (wall_time aside)."""
    from latentsketch import grpo
    from latentsketch import inference as inf

    monkeypatch.setattr(cli, "EVAL_STREAMS", 3)
    m = build_model(ModelConfig(**dict(TINY_MODEL, max_len=112)), seed=72)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=72)
    # a head that picks among START, EOS and one letter from the hidden state,
    # so that examples end at different steps with and without latent blocks
    w, bias = m.store["backbone/lm_head/w"].data, m.store["backbone/lm_head/b"].data
    picks = [vocab.START_ID, vocab.EOS_ID, vocab.STR2ID["A"]]
    w[:], bias[:], bias[picks] = 0.0, -5.0, 0.0
    w[:, picks] = seeded_rng(1, "head").normal(size=(w.shape[0], len(picks)))
    grid = tv.generate_dataset("grid_rotation", 6, 21)
    search = tv.generate_dataset("visual_search", 3, 21)
    traces = grid[:4] + search[:2] + grid[4:] + search[2:]
    decodes, batched = [], []
    real = inf.generate_group

    def spy(prompts, *args):
        decodes.append(len(prompts))
        batched.extend(real(prompts, *args))
        return batched[-len(prompts):]

    monkeypatch.setattr(inf, "generate_group", spy)
    dump = tmp_path / "dump.jsonl"
    report = evaluate(m, traces, "mixed", 9, max_new_items=10, dump_path=str(dump))
    assert decodes == [3, 3, 3]
    monkeypatch.undo()

    gen_cfg = inf.GenerationConfig(mode="mixed", max_new_items=10, temperature=0.0)
    lines, results, correct = [], [], 0
    for i, trace in enumerate(traces):
        res = inf.generate(inf.build_prompt(m, trace), m, gen_cfg, seeded_rng(9, "eval", i))
        results.append(res)
        got = batched[i].seq.items
        assert [it.kind for it in got] == [it.kind for it in res.seq.items]
        for x, y in zip(got, res.seq.items):
            if x.kind == sq.LATENT:
                assert np.max(np.abs(x.value - y.value)) <= 1e-12 * max(1.0, np.max(np.abs(y.value)))
            else:
                assert x.value == y.value
        pred, gold = inf.extract_answer(res.seq), inf.gold_answer(trace)
        ok = grpo.reward(pred, gold) == 1.0
        correct += ok
        lines.append(json.dumps({"example": i, "correct": bool(ok), "predicted": pred, "gold": gold,
                                 "generated": res.seq.detokenize(), "truncated": res.truncated},
                                separators=(",", ":")))
    assert dump.read_text() == "\n".join(lines) + "\n"
    assert len({r.new_items for r in results if not r.truncated}) >= 2
    assert any(r.truncated for r in results)
    assert any(e.token_id == vocab.START_ID for r in results for e in r.emissions)
    del report["wall_time"]
    assert report == {"task": "grid_rotation", "mode": "mixed", "checkpoint": None,
                      "n_examples": len(traces), "exact_match_accuracy": correct / len(traces),
                      "per_seed": {"9": correct / len(traces)}}


def test_evaluate_rejects_an_empty_trace_list():
    m = build_model(ModelConfig(**TINY_MODEL), seed=73)
    with pytest.raises(ValueError, match="at least one example"):
        evaluate(m, [], "mixed", 1)


@pytest.mark.parametrize("key", ["n", "max_new_items"])
def test_ablate_bad_eval_value_exits_2_before_training(key, tmp_path, capsys):
    path = tiny_config(tmp_path, eval={"n": 2, "seed": 11, "max_new_items": 8, key: 0})
    assert main(["ablate", "--suite", "table3", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"eval.{key}" in err
    assert not (tmp_path / "run" / "table3_joint").exists()


@pytest.mark.parametrize("argv,err", [
    (["eval", "--task", "grid_rotation", "--n", "1", "--seed", "1", "--max-new-items", "0"],
     "--max-new-items must be >= 1"),
    (["eval", "--task", "grid_rotation", "--n", "1", "--seed", "1", "--max-new-items", "-4"],
     "--max-new-items must be >= 1"),
    (["export-attn", "--example-id", "0", "--out", "h.pgm", "--max-new-items", "0"],
     "--max-new-items must be >= 1"),
    (["export-attn", "--example-id", "-1", "--out", "h.pgm"], "--example-id must be >= 0"),
    (["bench-latency", "--k", "0"], "--k must be >= 1"),
    (["bench-latency", "--t-steps", "0"], "--t-steps must be >= 1"),
    (["bench-latency", "--tool-span", "-5"], "--tool-span must be >= 1"),
], ids=["eval-zero", "eval-negative", "export-attn", "export-attn-example-id", "bench-latency-k",
        "bench-latency-t-steps", "bench-latency-tool-span"])
def test_generation_flags_below_one_exit_2_before_loading(argv, err, tmp_path, capsys):
    missing = str(tmp_path / "absent.lsk")  # loading it would be a runtime failure, exit 3
    assert main(argv + ["--checkpoint", missing]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("layer", ["-1", str(TINY_MODEL["layers"]), "9"])
def test_export_attn_layer_out_of_range_exits_2_before_decoding(layer, tmp_path, capsys, monkeypatch):
    from latentsketch import inference as inf

    ck = make_checkpoint(tmp_path)
    monkeypatch.setattr(inf, "generate", lambda *a, **k: pytest.fail("decoded before checking --layer"))
    assert main(["export-attn", "--checkpoint", ck, "--example-id", "0", "--layer", layer,
                 "--out", str(tmp_path / "h.pgm")]) == 2
    assert capsys.readouterr().err == f"error: --layer {layer} out of range [0, {TINY_MODEL['layers']})\n"


def test_eval_budget_beyond_max_len_exits_2(tmp_path, capsys):
    from latentsketch import inference as inf

    ck = make_checkpoint(tmp_path)
    most = TINY_MODEL["max_len"] - max(inf.prompt_length(t) for t in tv.generate_dataset("grid_rotation", 3, 5))
    argv = ["eval", "--checkpoint", ck, "--task", "grid_rotation", "--n", "3", "--seed", "5",
            "--out", str(tmp_path / "ev"), "--max-new-items"]
    assert main(argv + [str(most + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --max-new-items ({most + 1}) exceeds {most},")
    assert main(argv + [str(most)]) == 0


def test_export_attn_budget_beyond_max_len_exits_2(tmp_path, capsys):
    ck = make_checkpoint(tmp_path)
    assert main(["export-attn", "--checkpoint", ck, "--task", "grid_rotation", "--example-id", "0",
                 "--seed", "5", "--max-new-items", "500", "--out", str(tmp_path / "h.pgm")]) == 2
    assert capsys.readouterr().err.startswith("error: --max-new-items (500) exceeds ")


def test_ablate_budget_beyond_max_len_exits_2_before_training(tmp_path, capsys):
    from latentsketch import inference as inf

    path = tiny_config(tmp_path, eval={"n": 2, "seed": 11, "max_new_items": 500})
    most = TINY_MODEL["max_len"] - max(inf.prompt_length(t) for t in tv.generate_dataset("grid_rotation", 2, 11))
    assert main(["ablate", "--suite", "table3", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: eval.max_new_items (500) exceeds {most},")
    assert not (tmp_path / "run" / "table3_joint").exists()


def test_eval_truncated_checkpoint_exits_3(tmp_path, capsys):
    ck = make_checkpoint(tmp_path)
    blob = open(ck, "rb").read()
    with open(ck, "wb") as f:
        f.write(blob[: len(blob) // 2])
    assert main(["eval", "--checkpoint", ck, "--task", "grid_rotation", "--n", "1",
                 "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert f"runtime failure: truncated checkpoint {ck}" in err
    assert "at byte" in err


def test_default_budget_fits_longest_gold_response():
    """Every generation-budget default covers the longest gold response of each
    task and turn count at the default latent block size K."""
    from latentsketch import grpo, sft
    from latentsketch.cli import build_parser
    from latentsketch.inference import build_prompt

    k = DEFAULT_CONFIG["model"]["k_latent"]
    m = build_model(ModelConfig(layers=1, heads=2, d=8, k_latent=k), seed=0)
    longest: dict = {}
    for task in tv.TASKS:
        for t in tv.generate_dataset(task, 60, 5):
            n = len(sft.build_example(t, m, k).seq) - len(build_prompt(m, t))
            turns = sum(s.image is not None for s in t.steps)
            longest[task, turns] = max(longest.get((task, turns), 0), n)
    assert longest["grid_rotation", 3] == 52
    parser = build_parser()
    budgets = {
        "rl": DEFAULT_CONFIG["rl"]["max_new_items"],
        "eval": DEFAULT_CONFIG["eval"]["max_new_items"],
        "GrpoConfig": grpo.GrpoConfig().max_new_items,
        "MAX_NEW_ITEMS": inf.MAX_NEW_ITEMS,
        "evaluate": evaluate.__defaults__[0],
        "eval --max-new-items": parser.parse_args(
            ["eval", "--checkpoint", "c", "--task", "grid_rotation", "--n", "1", "--seed", "1"]
        ).max_new_items,
        "export-attn --max-new-items": parser.parse_args(
            ["export-attn", "--checkpoint", "c", "--example-id", "0", "--out", "o"]
        ).max_new_items,
    }
    for where, budget in budgets.items():
        assert budget >= max(longest.values()), (where, budget, longest)


def test_random_answer_baseline_near_quarter():
    """Uniform random letter vs gold over 2,000 traces: binomial check."""
    traces = tv.generate_dataset("grid_rotation", 2000, 33)
    rng = seeded_rng(0, "baseline")
    correct = 0
    from latentsketch.inference import gold_answer
    for t in traces:
        guess = vocab.LETTER_IDS[rng.integers(0, 4)]
        correct += guess == gold_answer(t)[0]
    acc = correct / 2000
    assert abs(acc - 0.25) < 0.03


def check_ablate_suite_rows(suite, column, labels, eval_modes, tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["ablate", "--suite", suite, "--config", cfg_path]) == 0
    lines = open(tmp_path / "run" / f"{suite}.csv").read().splitlines()
    assert lines[0] == f"{column},eval_mode,exact_match_accuracy"
    assert [l.split(",")[:2] for l in lines[1:]] == [list(r) for r in zip(labels, eval_modes)]
    # controlled-variable contract: every sub-run resolved the same data section
    datas = []
    for label in labels:
        sub = json.loads((tmp_path / "run" / f"{suite}_{label}" / "config.resolved.json").read_text())
        datas.append(json.dumps(sub["data"], sort_keys=True))
        assert sub["seed"] == 3
    assert len(set(datas)) == 1


def test_ablate_table3_three_rows(tmp_path):
    check_ablate_suite_rows("table3", "method", ["joint", "text_only", "similarity"],
                            ["mixed", "language_only", "mixed"], tmp_path)


@pytest.mark.parametrize("suite,column,labels", [
    ("lambda", "lambda", ["0.1", "1.0", "10.0"]),
    ("budget", "latent_tokens", ["1", "2", "4", "8", "16"]),
], ids=["lambda", "budget"])
def test_ablate_suite_rows(suite, column, labels, tmp_path):
    check_ablate_suite_rows(suite, column, labels, ["mixed"] * len(labels), tmp_path)


def test_bench_latency_repeat_validation_and_csv(tmp_path):
    ck = make_checkpoint(tmp_path)
    assert main(["bench-latency", "--checkpoint", ck, "--repeat", "2"]) == 2
    out = str(tmp_path / "bench.csv")
    assert main(["bench-latency", "--checkpoint", ck, "--k", "2", "--t-steps", "4",
                 "--repeat", "3", "--tool-span", "4", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "path,scope,t_steps,median_s,reference_full_scale_s"
    paths = [l.split(",")[0] for l in lines[1:]]
    assert paths[0] == "text" and paths[-1] == "tool"
    assert paths.count("latent") >= 3


def test_bench_latency_times_step_counts_round_robin(tmp_path, monkeypatch):
    """After the sampler-count check, each round times every step count once:
    a warm-up round, then --repeat rounds.  Every path re-forwards through
    the one cache-free loop, at the lengths each path times: the text span
    and the latent block after the prompt, then the tool cycle's code span
    and its prefill of the 16 re-encoded patch rows."""
    ck = make_checkpoint(tmp_path)
    seen, forwards = [], []
    real_block, real_reforward = cli._timed_latent_block, cli._reforward
    prompt_len = inf.prompt_length(tv.make_trace("grid_rotation", 123, 0))

    def spy_block(model, prompt, k, t_steps, seed):
        seen.append(t_steps)
        return real_block(model, prompt, k, t_steps, seed)

    def spy_reforward(model, work, n, next_item):
        forwards.append((len(work) - prompt_len, n))
        real_reforward(model, work, n, next_item)

    monkeypatch.setattr(cli, "_timed_latent_block", spy_block)
    monkeypatch.setattr(cli, "_reforward", spy_reforward)
    assert main(["bench-latency", "--checkpoint", ck, "--k", "2", "--t-steps", "4",
                 "--repeat", "3", "--tool-span", "4", "--out", str(tmp_path / "bench.csv")]) == 0
    assert seen == [4] + [4, 10, 25, 100] * 4
    # (items after the prompt, items appended): START opens the latent block
    assert forwards == [(0, 32)] * 4 + [(1, 2)] * 17 + [(0, 4), (16, 1)] * 4


def test_bench_latency_on_a_similarity_head_samples_nothing(tmp_path):
    ck = make_checkpoint(tmp_path, head="similarity")
    out = str(tmp_path / "bench.csv")
    before = dict(df.CALLS)
    assert main(["bench-latency", "--checkpoint", ck, "--k", "2", "--t-steps", "4",
                 "--repeat", "3", "--tool-span", "4", "--out", out]) == 0
    assert df.CALLS == before
    paths = [line.split(",")[0] for line in open(out).read().splitlines()[1:]]
    assert paths == ["text"] + ["latent"] * 4 + ["tool"]


def test_export_attn_builds_only_the_trace_it_exports(tmp_path, monkeypatch):
    ck = make_checkpoint(tmp_path)
    built = []
    real = tv.make_trace

    def spy(task_id, seed, index):
        built.append((task_id, seed, index))
        return real(task_id, seed, index)

    monkeypatch.setattr(tv, "make_trace", spy)
    code = main(["export-attn", "--checkpoint", ck, "--task", "grid_rotation", "--example-id", "20000",
                 "--seed", "5", "--max-new-items", "6", "--out", str(tmp_path / "h.pgm")])
    assert code == 3  # this greedy decode emits no latent block
    assert built == [("grid_rotation", 5, 20000)]


def test_export_attn_fails_cleanly_without_blocks(tmp_path):
    ck = make_checkpoint(tmp_path)  # untrained: never emits START greedily
    out = str(tmp_path / "h.pgm")
    code = main(["export-attn", "--checkpoint", ck, "--task", "grid_rotation",
                 "--example-id", "0", "--seed", "5", "--max-new-items", "6", "--out", out])
    assert code == 3
