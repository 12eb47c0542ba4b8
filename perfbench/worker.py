"""Run one benchmark workload in this (fresh) process and print its raw figures.

    python3 perfbench/worker.py --workload sft_joint --seed 1 --seconds 25 [--trace]
        [--setup-only] [--ops N] [--small]

``run.py`` starts this script with one BLAS/OpenMP thread and turns its output
into metrics.  Set-up time runs from before the first import of numpy to the
end of the workload's set-up.  One warm-up operation runs before the timed
region; output checks run outside it.  The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from common import FIXTURE_PATH, OUT_DIR, ROOT, SRC_DIR, THREAD_VARS  # noqa: E402

sys.path.insert(0, SRC_DIR)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from latentsketch import diffusion, grpo, inference, model, sft  # noqa: E402
from latentsketch import toyvision as tv  # noqa: E402
from latentsketch.util import seeded_rng  # noqa: E402

WARMUP_OPS = 1
# Encoder pre-pass of a fresh model, as the train-sft command runs it by default.
ENCODER_PRETRAIN_STEPS = 200
ENCODER_LR = 1e-2


def block_count(trace) -> int:
    return sum(step.image is not None for step in trace.steps)


def by_rotation(traces) -> list:
    """Regroup grid_rotation traces so that consecutive entries cycle through
    1, 2 and 3 quarter turns (1, 2 and 3 latent blocks): cost per example
    follows the block count, and cycling gives every run the same mix."""
    pools = [[t for t in traces if block_count(t) == r] for r in (1, 2, 3)]
    return [t for triple in zip(*pools) for t in triple]


def trace_items(trace, m: int) -> int:
    """Items of the teacher-forced SFT sequence, counted from the trace alone."""
    n_ctx = (trace.input_image.height // tv.PATCH) * (trace.input_image.width // tv.PATCH)
    steps = sum(len(s.text) + (m + 2 if s.image is not None else 0) for s in trace.steps)
    return 1 + n_ctx + len(trace.question) + steps + len(trace.answer) + 1


class SftJoint:
    """Joint-objective SFT steps from a fresh model with a pretrained encoder."""

    def __init__(self, seed: int, small: bool):
        self.seed = seed  # no small variant: a step at batch 8 takes ~0.2 s

    def setup(self) -> None:
        self.model = model.build_model(model.ModelConfig(), self.seed)
        tv.pretrain_encoder(self.model.store, ENCODER_PRETRAIN_STEPS, ENCODER_LR, self.seed)
        tv.align_pattern_tokens(self.model.store)
        # grid_rotation traces with one or two latent blocks, mixed with visual_search
        pool = [t for t in tv.generate_dataset("grid_rotation", 192, self.seed) if block_count(t) <= 2]
        pool += tv.generate_dataset("visual_search", 128, self.seed)
        self.traces = [pool[i] for i in seeded_rng(self.seed, "bench-mix").permutation(len(pool))]
        self.cfg = sft.SftConfig(steps=4000, batch_size=8, seed=self.seed)

    def batch(self, step: int) -> list:
        return [self.traces[i] for i in sft.batch_indices(step, self.cfg.batch_size,
                                                          len(self.traces), self.cfg.seed)]

    def check_before(self) -> list[str]:
        self.encoder = {n: t.data.copy() for n, t in self.model.store.entries.items()
                        if self.model.store.group[n] == "vision_encoder"}
        self.first = [sft.build_example(t, self.model, self.cfg.m_latent) for t in self.batch(0)]
        failures = []
        counted = [trace_items(t, self.cfg.m_latent) for t in self.batch(0)]
        if counted != [len(ex.seq) for ex in self.first]:
            failures.append("item count of the first batch disagrees with build_example")
        # the first batch's shortest and longest example: the shorter is padded
        by_len = sorted(self.first, key=lambda ex: len(ex.seq))
        failures += checks.fd_gradient_check(self.model, [by_len[0], by_len[-1]],
                                             seeded_rng(self.seed, "bench-fd"))
        self.loss_before = checks.loss_on(self.model, self.first, seeded_rng(self.seed, "bench-loss"))
        self.failures = []
        return failures

    def op(self, i: int):
        return sft.train_sft(self.model, self.traces, self.cfg, start_step=i, end_step=i + 1)

    def after_op(self, i: int, result) -> int:
        if len(result) != 1:
            self.failures.append(f"step {i} trained {len(result)} batches")
        return sum(trace_items(t, self.cfg.m_latent) for t in self.batch(i))

    def check_after(self) -> list[str]:
        failures = list(self.failures)
        after = checks.loss_on(self.model, self.first, seeded_rng(self.seed, "bench-loss"))
        if not after < self.loss_before:
            failures.append(f"loss on the first batch did not fall: {self.loss_before:.6g} -> {after:.6g}")
        for name, before in self.encoder.items():
            if not np.array_equal(self.model.store[name].data, before):
                failures.append(f"frozen parameter {name} changed")
        return failures


class GrpoGroup:
    """GRPO iterations at G=8 and temperature 0.8 from the SFT fixture.

    Every operation starts from the fixture's weights and a fresh optimizer,
    so all of a run's iterations sample from the same policy: left to drift,
    one seed's policy moved to rollouts that cost three times as much within
    ten iterations, and another's did not.
    """

    LIVE_SEARCH = 12  # on-policy groups sampled at most to find one that is not degenerate

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.queries = 1 if small else 3

    def setup(self) -> None:
        self.model, _ = model.load_model(FIXTURE_PATH)
        self.traces = by_rotation(tv.generate_dataset("grid_rotation", 384, self.seed))
        self.dump = os.path.join(OUT_DIR, f"rollouts-{os.getpid()}.txt")

    def config(self, i: int) -> grpo.GrpoConfig:
        # one train_rl iteration per operation, each with its own query draw
        return grpo.GrpoConfig(group_size=8, temperature=0.8, max_new_items=48, iters=1,
                               seed=self.seed * 1_000_003 + i, queries_per_iter=self.queries)

    def queries_of(self, i: int) -> list:
        """The op's queries: one each with 1, 2 and 3 quarter turns."""
        n = self.queries
        return [self.traces[(i * n + j) % len(self.traces)] for j in range(n)]

    def check_before(self) -> list[str]:
        self.initial = self.model.store.clone_values()
        self.failures = []
        return []

    def op(self, i: int):
        return grpo.train_rl(self.model, self.queries_of(i), self.config(i), rollout_dump_path=self.dump)

    def after_op(self, i: int, result) -> int:
        cfg = self.config(i)
        with open(self.dump, encoding="utf-8") as f:
            lines = f.read().splitlines()
        self.failures += [f"iteration {i}: {f}" for f in
                          checks.check_rollout_dump(lines, self.queries_of(i), cfg.group_size * self.queries,
                                                    result[0])]
        store = self.model.store
        for name, before in self.initial.items():
            if store.group[name] != "backbone" and not np.array_equal(store[name].data, before):
                self.failures.append(f"iteration {i}: parameter {name} changed under RL")
            store[name].data[...] = before
        store.opt_state.clear()
        return round(result[0]["mean_len"] * cfg.group_size * self.queries)

    def check_after(self) -> list[str]:
        if os.path.exists(self.dump):
            os.unlink(self.dump)
        failures = list(self.failures)
        # Untimed groups sampled on-policy from the fixture.  The first three
        # queries have 1, 2 and 3 turns: one rollout of each is replayed without
        # a cache.  The objective is checked on the first live group.
        cfg = self.config(-1)
        live = None
        for q in range(self.LIVE_SEARCH):
            group = grpo.sample_group(self.model, self.traces[q], cfg, 0, q, q)
            if q < 3:
                r = group.rollouts[0]
                failures += [f"rollout of query {q}: {f}" for f in checks.replay_generation(
                    self.model, inference.build_prompt(self.model, self.traces[q]), r.seq,
                    cfg.max_new_items, cfg.temperature, seeded_rng(cfg.seed, "rollout", 0, q, 0),
                    r.logprobs_old)]
            if live is None and not group.degenerate:
                live = group
            if live is not None and q >= 2:
                break
        if live is None:
            failures.append(f"all of {self.LIVE_SEARCH} on-policy groups are degenerate")
        else:
            # on-policy, every ratio is 1, so the surrogate equals the mean advantage
            obj = grpo.grpo_objective(live, self.model, cfg.clip_eps, cfg.temperature).item()
            if abs(obj - float(np.mean(live.advantages))) > 1e-9:
                failures.append(f"on-policy objective {obj!r} differs from the mean advantage")
        return failures


WORKLOADS = {"sft_joint": SftJoint, "grpo_group": GrpoGroup}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true", help="record layer spans and report per-layer figures")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    ap.add_argument("--ops", type=int, default=0, help="run exactly this many timed operations")
    ap.add_argument("--small", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True  # set-up spans (checkpoint load) are kept under op -1
    wl = WORKLOADS[args.workload](args.seed, args.small)
    wl.setup()
    setup_s = time.perf_counter() - T_PROCESS
    if tracer is not None:
        tracer.active = False
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failures = wl.check_before()
    attempted = failed = items = denoise_steps = 0
    op_s: list[float] = []
    traced_s: list[float] = []  # traced run: every other timed op runs with spans on

    def run_op(i: int, timed: bool) -> None:
        nonlocal attempted, failed, items, denoise_steps
        attempted += 1
        traced = tracer is not None and timed and (len(op_s) + len(traced_s)) % 2 == 0
        if tracer is not None:
            tracer.op, tracer.active = len(traced_s), traced
        calls0 = diffusion.CALLS["denoise_step"]
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        n_items = wl.after_op(i, result)
        if traced:
            traced_s.append(elapsed)
            denoise_steps += diffusion.CALLS["denoise_step"] - calls0
        elif timed:
            op_s.append(elapsed)
            items += n_items

    for i in range(WARMUP_OPS):
        run_op(i, timed=False)
    start = time.perf_counter()
    i = WARMUP_OPS
    while ((attempted - WARMUP_OPS < args.ops) if args.ops
           else (time.perf_counter() - start < args.seconds)):
        run_op(i, timed=True)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += wl.check_after()

    out = {"setup_s": setup_s, "op_s": op_s, "items": items, "attempted": attempted,
           "failed": failed, "failures": failures, "peak_rss_mb": peak_rss_mb,
           "threads": {k: os.environ.get(k) for k in THREAD_VARS}}
    if tracer is not None:
        n = max(len(traced_s), 1)
        layers = spans.layer_metrics(tracer, n, sum(traced_s), denoise_steps)
        untraced = sum(op_s) / len(op_s) if op_s else 0.0
        layers["trace.slowdown"] = sum(traced_s) / n / untraced if untraced else 0.0
        out["layers"] = layers
        out["traced_s"] = traced_s
        out["self_ms"] = spans.self_times(tracer, n)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(path)
        out["chrome_trace"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
