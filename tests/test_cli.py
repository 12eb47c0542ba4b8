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
from latentsketch.cli import (DEFAULT_CONFIG, NOT_KEYS, SECTIONS, ConfigError, _merge_validate,
                              evaluate, load_config, main, section_config)
from latentsketch.model import ModelConfig, build_model, save_model
from latentsketch.optim import read_records, write_records
from latentsketch.util import seeded_rng


TINY_MODEL = {"layers": 1, "heads": 2, "d": 8, "max_len": 96, "k_latent": 2, "t_steps": 4}


def tiny_config(tmp_path, **over):
    cfg = {
        "seed": 3,
        "model": TINY_MODEL,
        "data": {"task": "grid_rotation", "train_count": 6, "train_seed": 2},
        "sft": {"steps": 3, "batch_size": 2, "encoder_pretrain_steps": 2, "checkpoint_interval": 2},
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
            "steps": 11, "batch_size": 3, "weight_decay": 0.02,
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
    # every dataclass field but the seed and the NOT_KEYS (the latent head and
    # SFT's block length) has a config key, and no key lacks a field
    names = {f.name for f in dataclasses.fields(SECTIONS[section])} - {"seed", *NOT_KEYS}
    assert {"lambda" if n == "lam" else n for n in names} == set(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 123, section: values}))
    built = section_config(load_config(str(path)), section)
    for name in names:
        assert getattr(built, name) == values["lambda" if name == "lam" else name], name
    if section == "model":
        assert built.vocab == vocab.VOCAB_SIZE and built.head == "diffusion"
        with pytest.raises(TypeError):
            ModelConfig(vocab=200)  # the vocabulary is no field
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


def test_gen_data_negative_pgm_limit_is_validation_error(tmp_path, capsys):
    out = str(tmp_path / "d.jsonl")
    assert main(["gen-data", "--task", "grid_rotation", "--count", "3", "--seed", "1",
                 "--out", out, "--pgm", "--pgm-limit", "-1"]) == 2
    assert capsys.readouterr().err == "error: --pgm-limit must be >= 0\n"
    assert os.listdir(tmp_path) == []


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


# (section, key, value) of keys that are not config keys: the head follows
# sft.mode and SFT's block length is model.k_latent; the vocabulary is the
# committed one, no field; the others are settings the program does not have
# (removed ones, and the eval mode that ablate takes from its suite)
UNKNOWN_KEYS = [("model", "head", "similarity"), ("model", "vocab", 96), ("sft", "m_latent", 2),
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


@pytest.mark.parametrize("head, mode", [("similarity", "joint"), ("diffusion", "similarity")])
def test_train_sft_resume_head_mismatch_exits_2(head, mode, tmp_path, capsys, data_loads):
    """The head a resumed checkpoint has must be the one sft.mode trains."""
    ck = make_checkpoint(tmp_path, head=head)
    path = tiny_config(tmp_path, sft={"mode": mode, "steps": 1, "batch_size": 2, "encoder_pretrain_steps": 2})
    assert main(["train-sft", "--config", path, "--resume", ck]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint") and f"has the {head} head" in err
    assert f"sft.mode {mode}" in err
    assert_rejected_before_any_work(tmp_path, data_loads)


def test_train_sft_resume_with_another_model_section_exits_2(tmp_path, capsys):
    """Resuming a checkpoint under a config whose model section describes
    another model exits 2 naming each differing key, before the run writes;
    the checkpoint's own section resumes."""
    assert main(["train-sft", "--config", tiny_config(tmp_path)]) == 0
    mid = str(tmp_path / "run" / "checkpoint_000002.lsk")
    other = {**TINY_MODEL, "layers": 3, "d": 16, "k_latent": 4}
    path = tiny_config(tmp_path, model=other, paths={"out_dir": str(tmp_path / "resumed")})
    assert main(["train-sft", "--config", path, "--resume", mid]) == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {mid} is not the model of the config's model section: "
        "model.layers 1 in the checkpoint, 3 in the config; model.d 8 in the checkpoint, 16 in the config; "
        "model.k_latent 2 in the checkpoint, 4 in the config\n")
    assert not (tmp_path / "resumed").exists()
    path = tiny_config(tmp_path, paths={"out_dir": str(tmp_path / "resumed")})
    assert main(["train-sft", "--config", path, "--resume", mid]) == 0


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


# (section, key, value) of a value its section's dataclass rejects
BAD_SECTION_VALUES = [("sft", "batch_size", 0), ("sft", "floor_frac", 2.0), ("sft", "warmup_frac", 1.0),
                      ("model", "t_steps", 0), ("model", "beta_end", 1.5), ("model", "heads", 0)]


@pytest.mark.parametrize("command", ["train-sft", "train-rl", "ablate"])
@pytest.mark.parametrize("section, key, value", BAD_SECTION_VALUES,
                         ids=[f"{s}.{k}={v}" for s, k, v in BAD_SECTION_VALUES])
def test_bad_section_value_exits_2_as_the_config_loads(command, section, key, value, tmp_path, capsys):
    """Every command that reads a config rejects a bad value of any section
    before it loads a checkpoint or writes a file, whether or not it uses
    that section."""
    cfg = json.loads(open(tiny_config(tmp_path)).read())
    cfg[section] = {**cfg[section], key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    argv = {"train-sft": ["train-sft"], "ablate": ["ablate", "--suite", "table3"],
            "train-rl": ["train-rl", "--from-checkpoint", str(tmp_path / "absent.lsk")]}[command]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid {section} config:")
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "cfg.json"]


# (section, key, value, what the value must be) of a value of the wrong type
WRONG_TYPES = [("model", "heads", "2", "an integer"), ("model", "beta_end", "0.28", "a number"),
               ("sft", "steps", 3.0, "an integer"), ("sft", "mode", 1, "a string"),
               ("rl", "lr", None, "a number"), ("rl", "group_size", True, "an integer"),
               ("data", "train_seed", "2", "an integer"), ("data", "file", 5, "a string or null"),
               ("eval", "n", "2", "an integer"), ("paths", "out_dir", ["run"], "a string"),
               ("seed", None, 3.5, "an integer")]


@pytest.mark.parametrize("command", ["train-sft", "train-rl", "ablate"])
@pytest.mark.parametrize("section, key, value, kind", WRONG_TYPES,
                         ids=[f"{s}.{k}={v!r}" if k else f"{s}={v!r}" for s, k, v, _ in WRONG_TYPES])
def test_value_of_the_wrong_type_exits_2_naming_the_key(command, section, key, value, kind, tmp_path,
                                                         capsys):
    """Every command that reads a config rejects a value of the wrong type in
    any section, naming the key, before it loads a checkpoint or writes a
    file, whether or not it uses that key."""
    cfg = json.loads(open(tiny_config(tmp_path)).read())
    if key is None:
        cfg[section] = value
    else:
        cfg[section] = {**cfg.get(section, {}), key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    argv = {"train-sft": ["train-sft"], "ablate": ["ablate", "--suite", "table3"],
            "train-rl": ["train-rl", "--from-checkpoint", str(tmp_path / "absent.lsk")]}[command]
    assert main(argv + ["--config", str(path)]) == 2
    named = section if key is None else f"{section}.{key}"
    assert capsys.readouterr().err == f"error: {named} must be {kind}, not {value!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "cfg.json"]


@pytest.mark.parametrize("command", ["train-sft", "train-rl", "ablate"])
@pytest.mark.parametrize("content", ["[]", "3", '"cfg"', "null"])
def test_config_that_is_not_a_json_object_exits_2_naming_the_file(command, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    argv = {"train-sft": ["train-sft"], "ablate": ["ablate", "--suite", "table3"],
            "train-rl": ["train-rl", "--from-checkpoint", str(tmp_path / "absent.lsk")]}[command]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config {path} is not a JSON object\n"
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]


# (section, key, value, bound) of a value of the wrong sign: each trained
# silently, or failed naming no key, before the dataclasses checked it
OUT_OF_RANGE = [("model", "layers", 0, ">= 1"), ("model", "layers", -1, ">= 1"), ("model", "d", 0, ">= 1"),
                ("sft", "encoder_lr", 0.0, "> 0"), ("sft", "encoder_lr", -1e-2, "> 0"),
                ("sft", "clip_norm", -1.0, "> 0"), ("sft", "clip_norm", 0.0, "> 0"),
                ("sft", "lr_backbone", -1e-3, "> 0"), ("sft", "lr_diffusion", -2e-2, "> 0"),
                ("sft", "steps", -3, ">= 0"), ("sft", "encoder_pretrain_steps", -1, ">= 0"),
                ("sft", "checkpoint_interval", -1, ">= 0"), ("sft", "weight_decay", -0.01, ">= 0"),
                ("sft", "lambda", -1.0, ">= 0"), ("sft", "warmup_frac", -0.5, ">= 0"),
                ("sft", "floor_frac", -0.1, ">= 0"),
                ("rl", "clip_norm", -1.0, "> 0"), ("rl", "lr", -1e-4, "> 0"), ("rl", "lr", 0.0, "> 0"),
                ("rl", "iters", -2, ">= 0"), ("rl", "weight_decay", -0.1, ">= 0")]


@pytest.mark.parametrize("section, key, value, bound", OUT_OF_RANGE,
                         ids=[f"{s}.{k}={v}" for s, k, v, _ in OUT_OF_RANGE])
def test_value_out_of_range_exits_2_naming_the_key(section, key, value, bound, tmp_path, capsys):
    """The command that trains the section exits 2 as the config loads,
    naming the key and its bound, and writes nothing."""
    rl = {"iters": 1, "queries_per_iter": 1, "group_size": 2, "max_new_items": 8}
    cfg = json.loads(open(tiny_config(tmp_path, rl=rl)).read())
    cfg[section] = {**cfg[section], key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    argv = ["train-rl", "--from-checkpoint", make_checkpoint(tmp_path)] if section == "rl" else ["train-sft"]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: invalid {section} config: {key} must be {bound}\n"
    assert not (tmp_path / "run").exists()


def test_train_sft_that_drops_every_example_exits_2_without_a_checkpoint(tmp_path, capsys):
    """A max_len too short for every example: train-sft stops with exit 2,
    naming model.max_len and the traces it dropped, before it writes
    anything."""
    path = tiny_config(tmp_path, model={**TINY_MODEL, "max_len": 20})
    assert main(["train-sft", "--config", path]) == 2
    assert capsys.readouterr().err == "error: model.max_len 20 is too short for every one of the 6 traces\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode", ["joint", "text_only"])
def test_k_latent_that_does_not_divide_a_sketch_exits_2_unless_text_only(mode, tmp_path, capsys):
    """A k_latent of 3 cannot pool a grid_rotation sketch's 16 patch rows:
    a joint run exits 2 naming model.k_latent before it writes anything; a
    text_only run pools no sketch and trains."""
    path = tiny_config(tmp_path, model={**TINY_MODEL, "k_latent": 3},
                       sft={"mode": mode, "steps": 2, "batch_size": 2, "encoder_pretrain_steps": 2})
    if mode == "text_only":
        assert main(["train-sft", "--config", path]) == 0
        assert (tmp_path / "run" / "checkpoint.lsk").exists()
    else:
        assert main(["train-sft", "--config", path]) == 2
        assert capsys.readouterr().err == "error: model.k_latent 3 does not divide a sketch's 16 patch rows\n"
        assert not (tmp_path / "run").exists()


def test_train_sft_that_drops_some_traces_says_so_once_and_trains_full_batches(tmp_path, capsys, monkeypatch):
    """With k_latent 2, a grid_rotation example holds 76 + 6 r items for r
    sketches, so max_len 90 drops the r = 3 traces.  The run says how many
    traces it dropped once, before training, and every step trains a full
    batch of the traces that fit."""
    traces = tv.generate_dataset("grid_rotation", 6, 2)  # tiny_config's data
    dropped = sum(sum(s.image is not None for s in t.steps) == 3 for t in traces)
    assert dropped >= 1
    batches = []
    joint_loss = cli.sft.joint_loss

    def spy(examples, *args, **kwargs):
        batches.append([len(ex.seq) for ex in examples])
        return joint_loss(examples, *args, **kwargs)

    monkeypatch.setattr(cli.sft, "joint_loss", spy)
    path = tiny_config(tmp_path, model={**TINY_MODEL, "max_len": 90})
    assert main(["train-sft", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("[sft] dropped") == 1
    assert f"[sft] dropped {dropped} over-length traces of 6\n" in out
    assert len(batches) == 3  # tiny_config's sft.steps
    assert all(len(b) == 2 and max(b) <= 90 for b in batches)  # sft.batch_size, max_len


# (fault, the 1-based line the error names, what it says of the fault)
DATA_FILE_FAULTS = [("missing", None, "No such file or directory"), ("malformed", 3, "Expecting property name"),
                    ("missing-key", 2, "missing key 'answer'"),
                    ("bad-image", 3, "image sides must be multiples of 2 up to 16, not 18x18"),
                    ("bad-token", 1, f"not text token ids: [{vocab.VOCAB_SIZE}]"), ("empty", None, "holds no trace")]


@pytest.mark.parametrize("command", ["train-sft", "train-rl", "ablate"])
@pytest.mark.parametrize("fault, line, says", DATA_FILE_FAULTS, ids=[f for f, _, _ in DATA_FILE_FAULTS])
def test_bad_data_file_exits_2_naming_the_file_and_line_before_writing(command, fault, line, says, tmp_path,
                                                                       capsys):
    """A data.file that cannot be read, or holds a record the program cannot
    use or no record at all, stops every command that trains on it with exit
    2, naming the file and the record's line, before it writes anything."""
    records = [json.loads(r) for r in tv.dump_dataset(tv.generate_dataset("grid_rotation", 3, 2)).splitlines()]
    if fault == "missing-key":
        del records[1]["answer"]
    elif fault == "bad-image":
        records[2]["image"] = [[0] * 18 for _ in range(18)]
    elif fault == "bad-token":
        records[0]["question"][0] = vocab.VOCAB_SIZE
    lines = [json.dumps(r) for r in records]
    if fault == "malformed":
        lines[2] = "{task: 1}"
    data = tmp_path / "data.jsonl"
    if fault != "missing":
        data.write_text("\n \n" if fault == "empty" else "\n".join(lines) + "\n")
    path = tiny_config(tmp_path, data={"task": "grid_rotation", "train_count": 6, "train_seed": 2, "file": str(data)})
    argv = {"train-sft": ["train-sft"], "ablate": ["ablate", "--suite", "table3"],
            "train-rl": ["train-rl", "--from-checkpoint", make_checkpoint(tmp_path)]}[command]
    before = sorted(os.listdir(tmp_path))
    assert main(argv + ["--config", path]) == 2
    err = capsys.readouterr().err
    where = f"data.file {data} " if fault == "empty" else f"cannot read data.file {data}: "
    assert err.startswith(f"error: {where}" + (f"line {line}: " if line else "")) and says in err, err
    assert sorted(os.listdir(tmp_path)) == before


def test_ablate_checks_every_sub_run_before_the_first_trains(tmp_path, capsys):
    """At max_len 95 the budget suite's K = 1 to 8 runs keep some traces,
    but no K = 16 example fits (grid_rotation's shortest is 96 items), so
    ablate exits 2 naming that run before any run trains or writes."""
    path = tiny_config(tmp_path, model={**TINY_MODEL, "max_len": 95})
    assert main(["ablate", "--suite", "budget", "--config", path]) == 2
    assert capsys.readouterr().err == ("error: ablate budget run 16: model.max_len 95 is too short for every one "
                                       "of the 6 traces\n")
    assert not (tmp_path / "run").exists()


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


def test_train_rl_budget_beyond_max_len_exits_2_before_writing(tmp_path, capsys):
    """An rl.max_new_items above max_len minus the longest prompt of the data
    is rejected once the checkpoint and the data are loaded, before the run
    writes its manifest or its metrics."""
    ck = make_checkpoint(tmp_path)
    most = TINY_MODEL["max_len"] - max(inf.prompt_length(t) for t in tv.generate_dataset("grid_rotation", 6, 2))
    rl = {"iters": 1, "queries_per_iter": 1, "group_size": 2}
    path = tiny_config(tmp_path, rl={**rl, "max_new_items": most + 1})
    assert main(["train-rl", "--config", path, "--from-checkpoint", ck]) == 2
    assert capsys.readouterr().err.startswith(f"error: rl.max_new_items ({most + 1}) exceeds {most},")
    assert not (tmp_path / "run").exists()
    path = tiny_config(tmp_path, rl={**rl, "max_new_items": most})
    assert main(["train-rl", "--config", path, "--from-checkpoint", ck]) == 0


# the argv of each command that loads a checkpoint, given its path, an output
# path and a config
LOADING_COMMANDS = {
    "eval": lambda ck, out, cfg: ["eval", "--checkpoint", ck, "--task", "grid_rotation", "--n", "1",
                                  "--seed", "1", "--out", out],
    "export-attn": lambda ck, out, cfg: ["export-attn", "--checkpoint", ck, "--example-id", "0", "--out", out],
    "bench-latency": lambda ck, out, cfg: ["bench-latency", "--checkpoint", ck, "--out", out],
    "train-rl": lambda ck, out, cfg: ["train-rl", "--config", cfg, "--from-checkpoint", ck],
    "train-sft --resume": lambda ck, out, cfg: ["train-sft", "--config", cfg, "--resume", ck],
}


@pytest.mark.parametrize("command", LOADING_COMMANDS)
def test_foreign_vocabulary_checkpoint_exits_3_at_the_load(command, tmp_path, capsys):
    """A checkpoint saved with another vocabulary size stops every command at
    load_model, which names the file and both sizes; nothing is written."""
    ck = str(tmp_path / "m.lsk")
    save_model(ck, build_model(ModelConfig(**TINY_MODEL), seed=71))
    write_records(ck, {**read_records(ck), "meta/vocab": np.array([200.0])})
    cfg = tiny_config(tmp_path)
    assert main(LOADING_COMMANDS[command](ck, str(tmp_path / "out"), cfg)) == 3
    assert capsys.readouterr().err == (f"runtime failure: checkpoint {ck} has a 200-token vocabulary, "
                                       f"this build's has {vocab.VOCAB_SIZE}\n")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "m.lsk"]


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
