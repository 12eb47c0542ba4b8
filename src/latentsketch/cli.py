"""Reproduction harness: dataset generation, SFT and RL training, evaluation,
ablation suites, the latency benchmark, and attention-map export.

Exit codes: 0 success, 2 validation error, 3 runtime failure.  The env var
LATENT_SKETCH_SEED overrides the config seed.  BLAS runs one thread unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS says otherwise.
Every artifact directory gets the resolved config and the code-version
string.  File writes are atomic, but for the files streamed one row at a
time as a run goes: metrics.csv, rl_metrics.csv and rollouts.txt.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import fields

# One BLAS thread unless the user set a count, set before numpy loads its BLAS:
# the products here are too small to gain from more, and the chunked decode
# and the SFT helper thread already use the second core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import CODE_VERSION  # noqa: E402
from . import autodiff as ad  # noqa: E402
from . import backbone as bb  # noqa: E402
from . import diffusion as df  # noqa: E402
from . import grpo  # noqa: E402
from . import inference as inf  # noqa: E402
from . import sequence as sq  # noqa: E402
from . import sft  # noqa: E402
from . import toyvision as tv  # noqa: E402
from . import vocab  # noqa: E402
from .model import HEAD_DIFFUSION, Model, ModelConfig, build_model, load_model  # noqa: E402
from .util import ConfigError, atomic_write, fmt_float, seeded_rng  # noqa: E402


# config sections whose keys and defaults are the fields of a dataclass; a
# dataclass's own seed field is set from the config's global seed instead
SECTIONS = {"model": ModelConfig, "sft": sft.SftConfig, "rl": grpo.GrpoConfig}
# section fields with one legal value per run, so not config keys: the latent
# head follows sft.mode, and SFT's block length is model.k_latent
NOT_KEYS = ("head", "m_latent")


def _key(field_name: str) -> str:
    """The config key of a dataclass field."""
    return "lambda" if field_name == "lam" else field_name


def _section_defaults(cls) -> dict:
    return {_key(f.name): f.default for f in fields(cls) if f.name not in ("seed",) + NOT_KEYS}


DEFAULT_CONFIG: dict = {
    "seed": 7,
    "model": _section_defaults(ModelConfig),
    "data": {
        "task": "grid_rotation", "train_count": 8000, "train_seed": 7, "file": None,
    },
    "sft": _section_defaults(sft.SftConfig),
    "rl": _section_defaults(grpo.GrpoConfig),
    "eval": {"n": 1000, "seed": 7000, "max_new_items": inf.MAX_NEW_ITEMS},
    "paths": {"out_dir": "runs/latest"},
}


# the types a value may have, and their name, by the type of its default:
# JSON's true and false are no numbers, and a null default takes a string
_VALUE_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                str: ((str,), "a string"), type(None): ((str, type(None)), "a string or null")}


def _merge_validate(user: dict, defaults: dict, path: str = "") -> dict:
    """Defaults-applied deep merge; unknown keys and values of the wrong type
    are rejected."""
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be a section")
            out[key] = _merge_validate(val, defaults[key], where)
        else:
            types, name = _VALUE_TYPES[type(defaults[key])]
            if type(val) not in types:
                raise ConfigError(f"{where} must be {name}, not {val!r}")
            out[key] = val
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            user = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    cfg = _merge_validate(user, DEFAULT_CONFIG)
    env_seed = os.environ.get("LATENT_SKETCH_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"LATENT_SKETCH_SEED must be an integer, not {env_seed!r}") from None
    data = cfg["data"]
    if data["task"] not in tv.TASKS:
        raise ConfigError(f"data.task must be one of {', '.join(tv.TASKS)}, not {data['task']!r}")
    if data["train_count"] < 1:
        raise ConfigError(f"data.train_count must be an integer >= 1, not {data['train_count']!r}")
    for name in SECTIONS:  # a bad value in any section fails here, before a command writes
        section_config(cfg, name)
    return cfg


def write_run_manifest(out_dir: str, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    resolved = dict(cfg)
    resolved["code_version"] = CODE_VERSION
    atomic_write(os.path.join(out_dir, "config.resolved.json"),
                 json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def section_config(cfg: dict, name: str):
    """The dataclass of a resolved config's `model`, `sft` or `rl` section."""
    cls, section = SECTIONS[name], cfg[name]
    try:
        return cls(**{f.name: cfg["seed"] if f.name == "seed" else section[_key(f.name)]
                      for f in fields(cls) if f.name not in NOT_KEYS})
    except ValueError as e:
        raise ConfigError(f"invalid {name} config: {e}") from e


def load_training_data(cfg: dict) -> list[tv.AnnotatedTrace]:
    """data.file's traces, or data.task's generated ones; a data.file that
    cannot be read, or that holds a bad record or none, raises ConfigError."""
    d = cfg["data"]
    if not d["file"]:
        return tv.generate_dataset(d["task"], d["train_count"], d["train_seed"])
    try:
        with open(d["file"], "r", encoding="utf-8") as f:
            traces = tv.load_dataset(f.read())
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read data.file {d['file']}: {e}") from e
    if not traces:
        raise ConfigError(f"data.file {d['file']} holds no trace")
    return traces


# -- evaluation ---------------------------------------------------------------------


# examples decoded in one generate_group call: the streams of a default GRPO
# iteration (4 queries x 8 rollouts)
EVAL_STREAMS = 32


def evaluate(model: Model, traces: list[tv.AnnotatedTrace], mode: str, seed: int,
             max_new_items: int = inf.MAX_NEW_ITEMS, dump_path: str | None = None) -> dict:
    """Greedy exact-match evaluation; returns the report dict.

    Runs of EVAL_STREAMS consecutive examples are decoded in one
    generate_group call; example i samples its latent rows from
    seeded_rng(seed, "eval", i), as a decode of its own would.
    """
    if not traces:
        raise ValueError("evaluation needs at least one example")
    correct = 0
    t0 = time.time()
    dump_lines = []
    gen_cfg = inf.GenerationConfig(mode=mode, max_new_items=max_new_items, temperature=0.0)
    for lo in range(0, len(traces), EVAL_STREAMS):
        run = traces[lo : lo + EVAL_STREAMS]
        prompts = [inf.build_prompt(model, t) for t in run]
        rngs = [seeded_rng(seed, "eval", i) for i in range(lo, lo + len(run))]
        for i, (trace, res) in enumerate(zip(run, inf.generate_group(prompts, model, gen_cfg, rngs)), lo):
            pred = inf.extract_answer(res.seq)
            gold = inf.gold_answer(trace)
            ok = grpo.reward(pred, gold) == 1.0
            correct += ok
            dump_lines.append(json.dumps({
                "example": i, "correct": bool(ok),
                "predicted": pred, "gold": gold,
                "generated": res.seq.detokenize(), "truncated": res.truncated,
            }, separators=(",", ":")))
    wall = time.time() - t0
    report = {
        "task": traces[0].task_id,
        "mode": mode,
        "checkpoint": None,
        "n_examples": len(traces),
        "exact_match_accuracy": correct / len(traces),
        "per_seed": {str(seed): correct / len(traces)},
        "wall_time": wall,
    }
    if dump_path:
        atomic_write(dump_path, "\n".join(dump_lines) + "\n")
    return report


# -- commands -----------------------------------------------------------------------


def check_budget(name: str, budget: int, max_len: int, traces: list[tv.AnnotatedTrace]) -> None:
    """Reject a generation budget that max_len leaves no room for after the
    longest prompt of the traces."""
    longest = max(inf.prompt_length(t) for t in traces)
    if budget > max_len - longest:
        raise ConfigError(f"{name} ({budget}) exceeds {max_len - longest}, the most that max_len "
                          f"{max_len} leaves after the longest prompt ({longest} items)")


def cmd_gen_data(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    if args.pgm_limit < 0:
        raise ConfigError("--pgm-limit must be >= 0")
    if os.path.exists(args.out) and not args.force:
        raise ConfigError(f"{args.out} exists; pass --force to overwrite")
    traces = tv.generate_dataset(args.task, args.count, args.seed)
    atomic_write(args.out, tv.dump_dataset(traces))
    if args.pgm:
        pgm_dir = args.out + ".pgm"
        os.makedirs(pgm_dir, exist_ok=True)
        for i, t in enumerate(traces[: args.pgm_limit]):
            atomic_write(os.path.join(pgm_dir, f"trace{i}_input.pgm"),
                         tv.render_pgm(t.input_image.cells, tv.PALETTE - 1))
            for j, s in enumerate(t.steps):
                if s.image is not None:
                    atomic_write(os.path.join(pgm_dir, f"trace{i}_step{j}.pgm"),
                                 tv.render_pgm(s.image.cells, tv.PALETTE - 1))
    print(f"wrote {len(traces)} traces to {args.out}")
    return 0


def run_sft_pipeline(cfg: dict, out_dir: str, resume: str | None = None) -> Model:
    scfg = section_config(cfg, "sft")
    mcfg = section_config(cfg, "model")
    mcfg.head = scfg.head
    start_step = 0
    if resume:
        model, start_step = load_model(resume)
        if model.cfg.head != scfg.head:
            raise ConfigError(f"checkpoint {resume} has the {model.cfg.head} head, but sft.mode "
                              f"{scfg.mode} trains the {scfg.head} head")
        differ = [f.name for f in fields(ModelConfig) if getattr(model.cfg, f.name) != getattr(mcfg, f.name)]
        if differ:
            raise ConfigError(f"checkpoint {resume} is not the model of the config's model section: " + "; ".join(
                f"model.{n} {getattr(model.cfg, n)} in the checkpoint, {getattr(mcfg, n)} in the config"
                for n in differ))
    traces = load_training_data(cfg)
    kept = sft.fitting_traces(traces, mcfg, scfg.mode)  # a rejected config or data set writes nothing
    write_run_manifest(out_dir, cfg)
    if len(kept) < len(traces):
        print(f"[sft] dropped {len(traces) - len(kept)} over-length traces of {len(traces)}")
    if not resume:
        model = build_model(mcfg, cfg["seed"])
        tv.pretrain_encoder(model.store, scfg.encoder_pretrain_steps, scfg.encoder_lr, cfg["seed"])
        tv.align_pattern_tokens(model.store)
    sft.train_sft(model, kept, scfg,
                  metrics_path=os.path.join(out_dir, "metrics.csv"),
                  checkpoint_path=os.path.join(out_dir, "checkpoint.lsk"),
                  start_step=start_step)
    return model


def cmd_train_sft(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg["paths"]["out_dir"]
    run_sft_pipeline(cfg, out_dir, resume=args.resume)
    print(f"sft run complete: {out_dir}")
    return 0


def cmd_train_rl(args) -> int:
    cfg = load_config(args.config)
    rcfg = section_config(cfg, "rl")
    model, _ = load_model(args.from_checkpoint)
    traces = load_training_data(cfg)
    # checked before the manifest, so a rejected budget writes nothing
    check_budget("rl.max_new_items", rcfg.max_new_items, model.cfg.max_len, traces)
    out_dir = cfg["paths"]["out_dir"]
    write_run_manifest(out_dir, cfg)
    grpo.train_rl(model, traces, rcfg,
                  metrics_path=os.path.join(out_dir, "rl_metrics.csv"),
                  checkpoint_path=os.path.join(out_dir, "rl_checkpoint.lsk"),
                  rollout_dump_path=os.path.join(out_dir, "rollouts.txt") if args.dump_rollouts else None)
    print(f"rl run complete: {out_dir}")
    return 0


def cmd_eval(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if args.max_new_items < 1:
        raise ConfigError("--max-new-items must be >= 1")
    model, _ = load_model(args.checkpoint)
    traces = tv.generate_dataset(args.task, args.n, args.seed)
    check_budget("--max-new-items", args.max_new_items, model.cfg.max_len, traces)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    dump_path = os.path.join(out_dir, f"eval_{args.task}_{args.mode}_{args.seed}.dump.jsonl")
    report = evaluate(model, traces, args.mode, args.seed,
                      max_new_items=args.max_new_items, dump_path=dump_path)
    report["checkpoint"] = os.path.abspath(args.checkpoint)
    report_path = os.path.join(out_dir, f"eval_{args.task}_{args.mode}_{args.seed}.json")
    atomic_write(report_path, json.dumps(report, indent=2) + "\n")
    print(f"exact_match_accuracy {report['exact_match_accuracy']:.4f} on {args.n} examples "
          f"({args.task}, {args.mode}) -> {report_path}")
    return 0


# per ablation suite: the label column of its CSV, and its runs of
# (label, config overrides by section, eval mode)
ABLATIONS = {
    "table3": ("method", [(mode, {"sft": {"mode": mode}},
                           "language_only" if mode == "text_only" else "mixed")
                          for mode in sft.MODES]),
    "lambda": ("lambda", [(lam, {"sft": {"lambda": lam}}, "mixed") for lam in (0.1, 1.0, 10.0)]),
    "budget": ("latent_tokens", [(k, {"model": {"k_latent": k}}, "mixed") for k in (1, 2, 4, 8, 16)]),
}


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    for key in ("n", "max_new_items"):  # checked before any of the suite's training runs
        if cfg["eval"][key] < 1:
            raise ConfigError(f"eval.{key} must be >= 1")
    eval_seed = cfg["eval"]["seed"]
    eval_traces = tv.generate_dataset(cfg["data"]["task"], cfg["eval"]["n"], eval_seed)
    check_budget("eval.max_new_items", cfg["eval"]["max_new_items"], cfg["model"]["max_len"], eval_traces)
    out_dir = cfg["paths"]["out_dir"]
    label_column, runs = ABLATIONS[args.suite]
    traces = load_training_data(cfg)
    subs = []
    for label, overrides, eval_mode in runs:
        sub = copy.deepcopy(cfg)
        for section, values in overrides.items():
            sub[section].update(values)
        sub["paths"]["out_dir"] = os.path.join(out_dir, f"{args.suite}_{label}")
        try:  # each sub-run's traces are checked before the first one trains
            sft.fitting_traces(traces, section_config(sub, "model"), section_config(sub, "sft").mode)
        except ConfigError as e:
            raise ConfigError(f"ablate {args.suite} run {label}: {e}") from e
        subs.append((label, sub, eval_mode))
    budget = cfg["eval"]["max_new_items"]
    for label, sub, _ in subs:  # and so is the eval budget, against each run's gold responses
        k, mode = sub["model"]["k_latent"], sub["sft"]["mode"]
        longest = max(sft.response_length(t, k, mode) for t in eval_traces)
        if budget < longest:
            raise ConfigError(f"ablate {args.suite} run {label}: eval.max_new_items ({budget}) is shorter than "
                              f"the longest gold response of the eval set ({longest} items at model.k_latent "
                              f"{k}, sft.mode {mode})")
    write_run_manifest(out_dir, cfg)
    lines = [f"{label_column},eval_mode,exact_match_accuracy"]
    for label, sub, eval_mode in subs:
        model = run_sft_pipeline(sub, sub["paths"]["out_dir"])
        rep = evaluate(model, eval_traces, eval_mode, eval_seed,
                       max_new_items=cfg["eval"]["max_new_items"])
        lines.append(f"{label},{eval_mode},{fmt_float(rep['exact_match_accuracy'])}")
    path = os.path.join(out_dir, f"{args.suite}.csv")
    atomic_write(path, "\n".join(lines) + "\n")
    print(f"suite {args.suite} -> {path}")
    return 0


# reference latencies of the full-scale system on an H100, recorded for
# comparison only; never asserted (desk hardware differs by orders of magnitude)
REFERENCE_LATENCY_S = {"text32": 1.0311, "tool_call": 8.3575, "latent32": 3.1001}


def _reforward(model: Model, work: sq.MixedSequence, n: int, next_item) -> None:
    """Append n items to work, each next_item(hidden, logits) of a cache-free
    forward of all of work so far ([1, L, d] and [1, L, V] arrays)."""
    for _ in range(n):
        ids, text_mask, latents = sq.to_arrays(work, model.cfg.d)
        with ad.no_grad():
            hidden, logits, _ = bb.forward_batch(model.store, model.cfg, ids[None], text_mask[None], latents[None])
        work.append(next_item(hidden.data, logits.data))


def _greedy_text(hidden: np.ndarray, logits: np.ndarray) -> sq.MixedItem:
    """The most likely non-control token after the last position."""
    row = logits[0, -1].copy()
    row[list(vocab.CONTROL_IDS)] = -np.inf
    return sq.MixedItem.text(int(np.argmax(row)))


def _timed_latent_block(model: Model, prompt, k: int, t_steps: int, seed: int) -> int:
    """Emit one k-latent block at the given denoise step count; returns sampler calls."""
    sched = df.linear_schedule(t_steps, model.cfg.beta_start, model.cfg.beta_end)
    work = prompt.copy()
    work.append(sq.MixedItem.ctrl(sq.START))
    rngs = [seeded_rng(seed, "bench")]
    before = df.CALLS["sample_latent"]
    _reforward(model, work, k, lambda hidden, _: sq.MixedItem.latent(
        df.emit_block(hidden[0, -1:], model.store, sched, rngs, model.cfg.head)[0]))
    return df.CALLS["sample_latent"] - before


def _timed_tool_cycle(model: Model, prompt, trace: tv.AnnotatedTrace, span: int) -> None:
    """Simulated tool call: generate a code span, apply a host-side transform,
    re-encode the edited image, and prefill it through the backbone."""
    _reforward(model, prompt.copy(), span, _greedy_text)
    edited = tv.ToyImage(trace.input_image.height, trace.input_image.width,
                         tv.rotate_quarter(trace.input_image.cells, 1))
    work = prompt.copy()
    for row in tv.encode_image(model.store, edited):
        work.append(sq.MixedItem.latent(row))
    _reforward(model, work, 1, _greedy_text)


def cmd_bench_latency(args) -> int:
    if args.repeat < 3:
        raise ConfigError("--repeat must be >= 3")
    for flag, value in (("--k", args.k), ("--t-steps", args.t_steps), ("--tool-span", args.tool_span)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1")
    model, _ = load_model(args.checkpoint)
    trace = tv.make_trace("grid_rotation", 123, 0)
    prompt = inf.build_prompt(model, trace)
    if len(prompt) + max(args.k + 1, args.tool_span) + 1 > model.cfg.max_len:
        raise ConfigError("prompt plus benchmark span exceeds max_len")

    def median_times(*fns) -> list[float]:
        """Median seconds of each fn over --repeat rounds after one warm-up
        round.  Within a round the fns run round-robin, so that a drift in
        host speed spreads over all of them alike."""
        times = [[] for _ in fns]
        for repeat in range(args.repeat + 1):
            for fn, ts in zip(fns, times):
                t0 = time.perf_counter()
                fn()
                if repeat:
                    ts.append(time.perf_counter() - t0)
        return [float(np.median(ts)) for ts in times]

    rows = []
    [t_text] = median_times(lambda: _reforward(model, prompt.copy(), 32, _greedy_text))
    rows.append(("text", "32 tokens", "", t_text, REFERENCE_LATENCY_S["text32"]))
    calls = _timed_latent_block(model, prompt, args.k, args.t_steps, 0)
    expected = args.k if model.cfg.head == HEAD_DIFFUSION else 0  # the similarity head samples nothing
    if calls != expected:
        raise RuntimeError(f"latent path made {calls} sampler calls, expected {expected}")
    steps = sorted({10, 25, args.t_steps, 100})
    t_lats = median_times(*[lambda ts=t_steps: _timed_latent_block(model, prompt, args.k, ts, 0)
                            for t_steps in steps])
    for t_steps, t_lat in zip(steps, t_lats):
        ref = REFERENCE_LATENCY_S["latent32"] if (args.k == 32 and t_steps == 50) else ""
        rows.append(("latent", f"{args.k} latent steps", t_steps, t_lat, ref))
    [t_tool] = median_times(lambda: _timed_tool_cycle(model, prompt, trace, args.tool_span))
    rows.append(("tool", f"single tool call ({args.tool_span}-token code span)", "",
                 t_tool, REFERENCE_LATENCY_S["tool_call"]))

    lines = ["path,scope,t_steps,median_s,reference_full_scale_s"]
    for r in rows:
        lines.append(",".join(fmt_float(x) if isinstance(x, float) else str(x) for x in r))
    out = args.out or "bench_latency.csv"
    atomic_write(out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_export_attn(args) -> int:
    if args.max_new_items < 1:
        raise ConfigError("--max-new-items must be >= 1")
    if args.example_id < 0:
        raise ConfigError("--example-id must be >= 0")
    model, _ = load_model(args.checkpoint)
    layer = args.layer if args.layer is not None else model.cfg.layers // 2
    if not 0 <= layer < model.cfg.layers:
        raise ConfigError(f"--layer {layer} out of range [0, {model.cfg.layers})")
    trace = tv.make_trace(args.task, args.seed, args.example_id)
    check_budget("--max-new-items", args.max_new_items, model.cfg.max_len, [trace])
    gen_cfg = inf.GenerationConfig(mode="mixed", max_new_items=args.max_new_items, temperature=0.0)
    res = inf.generate(inf.build_prompt(model, trace), model, gen_cfg, seeded_rng(args.seed, "attn", args.example_id))
    inf.export_attention(res.seq, model, layer, args.out)
    print(f"attention heatmap -> {args.out} (+ .values.json)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latentsketch",
                                description="mixed text/latent chain-of-thought trainer")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic task dataset")
    g.add_argument("--task", required=True, choices=tv.TASKS)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    g.add_argument("--pgm", action="store_true", help="also render images as PGM (debug)")
    g.add_argument("--pgm-limit", type=int, default=8)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train-sft", help="supervised fine-tuning")
    t.add_argument("--config", required=True)
    t.add_argument("--resume", default=None, help="checkpoint to resume from")
    t.set_defaults(fn=cmd_train_sft)

    r = sub.add_parser("train-rl", help="GRPO refinement from an SFT checkpoint")
    r.add_argument("--config", required=True)
    r.add_argument("--from-checkpoint", required=True, dest="from_checkpoint")
    r.add_argument("--dump-rollouts", action="store_true")
    r.set_defaults(fn=cmd_train_rl)

    e = sub.add_parser("eval", help="greedy exact-match evaluation")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--task", required=True, choices=tv.TASKS)
    e.add_argument("--mode", default="mixed", choices=("mixed", "language_only"))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--max-new-items", type=int, default=inf.MAX_NEW_ITEMS)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="run an ablation suite")
    a.add_argument("--suite", required=True, choices=ABLATIONS)
    a.add_argument("--config", required=True)
    a.set_defaults(fn=cmd_ablate)

    b = sub.add_parser("bench-latency", help="latency comparison of generation paths")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--k", type=int, default=32)
    b.add_argument("--t-steps", type=int, default=50, dest="t_steps")
    b.add_argument("--repeat", type=int, default=5)
    b.add_argument("--tool-span", type=int, default=128, dest="tool_span",
                   help="code-span length of the simulated tool call")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bench_latency)

    x = sub.add_parser("export-attn", help="export a latent-attention heatmap")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--task", default="visual_search", choices=tv.TASKS)
    x.add_argument("--example-id", type=int, required=True, dest="example_id")
    x.add_argument("--seed", type=int, default=9000)
    x.add_argument("--layer", type=int, default=None)
    x.add_argument("--max-new-items", type=int, default=inf.MAX_NEW_ITEMS)
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export_attn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - harness boundary
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
