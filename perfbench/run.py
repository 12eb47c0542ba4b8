"""Benchmark entry point: joint SFT steps and GRPO iterations (mixed-mode decoding).

    python3 perfbench/run.py --workload {sft_joint,grpo_group} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each measurement runs in a fresh worker
process (``worker.py``) with one BLAS/OpenMP thread.

--trace 0  times the workload without wrappers and reports the end-to-end
           metrics.  Set-up time is the median of five set-ups, each in its
           own process: two before the measured run, its own, two after.
--trace 1  installs span wrappers around each layer's public functions and
           records spans on every other timed operation; reports the
           per-layer metrics over the traced operations and the tracing
           slowdown, traced against untraced operation time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 when the fixture does not match its digest; a worker
that fails (the program missing, say) ends the run with a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import BENCH_DIR, FIXTURE_PATH, FIXTURE_SHA256, OUT_DIR, ROOT, sha256_file
from common import single_thread_env

WORKLOADS = ("sft_joint", "grpo_group")
WORKER_TIMEOUT_S = 170
SETUPS_AROUND = 2  # fresh-process set-ups before and after the measured run


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_worker(args: argparse.Namespace, seconds: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), *extra]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.small:
        cmd.append("--small")
    env = dict(os.environ, **single_thread_env())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    # set-ups before and after the measured run, so their median spans its time window
    setups = [run_worker(args, args.seconds, "--setup-only")["setup_s"] for _ in range(SETUPS_AROUND)]
    run = run_worker(args, args.seconds)
    setups.append(run["setup_s"])
    setups += [run_worker(args, args.seconds, "--setup-only")["setup_s"] for _ in range(SETUPS_AROUND)]
    op_s = run["op_s"]
    busy = sum(op_s)
    metrics = {
        "ops_per_s": len(op_s) / busy,
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "items_per_s": run["items"] / busy,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return metrics, run


def per_layer(args: argparse.Namespace) -> tuple[dict, dict]:
    traced = run_worker(args, args.seconds, "--trace")
    return traced["layers"], traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload != "sft_joint":
        if not os.path.isfile(FIXTURE_PATH) or sha256_file(FIXTURE_PATH) != FIXTURE_SHA256:
            print(f"fixture {FIXTURE_PATH} is missing or does not match its digest", file=sys.stderr)
            return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    metrics, record = (per_layer if args.trace else end_to_end)(args)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "result": result, "worker": record}, f, indent=1)
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(f"{args.workload} seed={args.seed} threads={record['threads']} "
          f"ops={len(record['op_s'])} attempted={record['attempted']} failed={record['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
