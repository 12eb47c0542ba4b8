"""Make the decode checkpoint fixture that grpo_group loads.

    python3 perfbench/make_fixture.py

Runs a fixed-seed joint SFT on grid_rotation through the program's own
pipeline (``cli.run_sft_pipeline``), then saves the weights without optimizer
state to ``perfbench/fixture/sft_grid_rotation.lsk`` and prints its SHA-256.
After a deliberate re-make, copy that digest into ``common.FIXTURE_SHA256``.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

from common import FIXTURE_PATH, OUT_DIR, SRC_DIR, sha256_file, single_thread_env


def main() -> int:
    os.environ.update(single_thread_env())
    sys.path.insert(0, SRC_DIR)
    from latentsketch import cli
    from latentsketch.model import load_model, save_model

    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["seed"] = 7
    cfg["data"].update(task="grid_rotation", train_count=2000, train_seed=7)
    cfg["sft"].update(mode="joint", steps=300, batch_size=8)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="fixture-run-", dir=OUT_DIR) as out_dir:
        cli.run_sft_pipeline(cfg, out_dir)
        model, step = load_model(os.path.join(out_dir, "checkpoint.lsk"))
    save_model(FIXTURE_PATH, model, step=step, include_opt=False)
    print(f"{FIXTURE_PATH}: {os.path.getsize(FIXTURE_PATH)} bytes, sha256 {sha256_file(FIXTURE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
