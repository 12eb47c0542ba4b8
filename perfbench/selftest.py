"""Fast self-test of the benchmark (about half a minute on two cores).

    python3 perfbench/selftest.py

1. Runs each workload for a few operations at small sizes, untraced and
   traced, and checks that the printed result has the agreed keys, passes its
   output checks, and names exactly the metrics and units of BENCHMARK.json.
2. Checks that the cache-free rollout replay rejects a corrupted token, a
   corrupted latent row and a corrupted behaviour log-probability.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import BENCH_DIR, ROOT, single_thread_env

os.environ.update(single_thread_env())

SMALL_OPS = {"sft_joint": 10, "grpo_group": 2}


def run_bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--ops", str(SMALL_OPS[workload]), "--small"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)


def check_results(spec: dict) -> list[str]:
    errors = []
    for workload in SMALL_OPS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                              f"attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                errors.append(f"{where}: metrics {sorted(got.items())} differ from BENCHMARK.json")
            print(f"ok {where}: {result['attempted']} operations attempted", flush=True)
    return errors


def corrupted_copies(seq, new_items: int) -> dict:
    """The generation with one generated text token changed, and with one
    latent row moved by 1e-6 of its scale."""
    import numpy as np
    from latentsketch import sequence as sq
    from latentsketch import vocab

    generated = list(enumerate(seq.items))[len(seq) - new_items:]
    text_at = next(i for i, it in generated if it.kind == sq.TEXT)
    latent_at = next(i for i, it in generated if it.kind == sq.LATENT)
    bad_token = seq.copy()
    old = bad_token.items[text_at].value
    bad_token.items[text_at] = sq.MixedItem.text(vocab.STR2ID["A"] if old != vocab.STR2ID["A"]
                                                 else vocab.STR2ID["B"])
    bad_latent = seq.copy()
    row = bad_latent.items[latent_at].value.copy()
    row[0] += 1e-6 * max(1.0, float(np.max(np.abs(row))))
    bad_latent.items[latent_at] = sq.MixedItem.latent(row)
    return {"token": bad_token, "latent row": bad_latent}


def check_corruption() -> list[str]:
    sys.path.insert(0, BENCH_DIR)
    import worker  # puts the program's sources on sys.path
    import checks
    from latentsketch import grpo, inference
    from latentsketch.util import seeded_rng

    gw = worker.GrpoGroup(seed=5, small=True)
    gw.setup()
    cfg = gw.config(-1)
    group = grpo.sample_group(gw.model, gw.traces[0], cfg, 0, 0, 0)
    r = group.rollouts[0]

    def replay(seq, logprobs):
        return checks.replay_generation(gw.model, inference.build_prompt(gw.model, gw.traces[0]), seq,
                                        cfg.max_new_items, cfg.temperature,
                                        seeded_rng(cfg.seed, "rollout", 0, 0, 0), logprobs)

    errors = []
    if replay(r.seq, r.logprobs_old):
        errors.append("rollout replay rejects an untouched rollout")
    for what, seq in corrupted_copies(r.seq, r.new_items).items():
        if not replay(seq, r.logprobs_old):
            errors.append(f"rollout replay accepts a corrupted {what}")
    bad_logprobs = r.logprobs_old.copy()
    bad_logprobs[-1] += 1e-6
    if not replay(r.seq, bad_logprobs):
        errors.append("rollout replay accepts a corrupted behaviour log-probability")
    print("ok the rollout replay rejects a corrupted token, latent row and log-probability", flush=True)
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    errors = check_corruption() + check_results(spec)
    for e in errors:
        print(f"FAIL {e}")
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
