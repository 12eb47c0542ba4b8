"""The committed pilot configs are re-run from scratch and their metrics CSVs
(and the RL pilot's rollout dump) byte-compared with the frozen copies next
to them in ``pilots/``; the checkpoints of the RL pilot and of the
default-model SFT pilot are compared with the SHA-256 pinned there."""

import hashlib
import json
import os

import pytest

from latentsketch.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PILOTS = os.path.join(ROOT, "pilots")


def pilot_config(name, tmp_path, monkeypatch) -> str:
    """The pilot's config with its output directory moved under tmp_path."""
    monkeypatch.delenv("LATENT_SKETCH_SEED", raising=False)
    with open(os.path.join(PILOTS, f"{name}.json"), encoding="utf-8") as f:
        cfg = json.load(f)
    cfg["paths"]["out_dir"] = str(tmp_path / "run")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_frozen(tmp_path, produced, frozen):
    got = (tmp_path / "run" / produced).read_bytes()
    with open(os.path.join(PILOTS, frozen), "rb") as f:
        assert got == f.read()


def assert_pinned(tmp_path, produced, pin):
    with open(os.path.join(PILOTS, pin), encoding="utf-8") as f:
        pinned = f.read().strip()
    assert hashlib.sha256((tmp_path / "run" / produced).read_bytes()).hexdigest() == pinned


# each SFT pilot, with the file that pins its checkpoint's SHA-256 or None:
# sft_smoke is a 2-layer d=16 model; sft_default30 trains the default model
# for 30 steps, so it runs the default shapes, and on two usable cores the
# helper thread's splits
SFT_PILOTS = {"sft_smoke": None, "sft_default30": "sft_default30.checkpoint.sha256"}


@pytest.mark.parametrize("name", SFT_PILOTS)
def test_pilot_metrics_byte_identical(name, tmp_path, monkeypatch, capsys):
    assert main(["train-sft", "--config", pilot_config(name, tmp_path, monkeypatch)]) == 0
    assert_frozen(tmp_path, "metrics.csv", f"{name}.metrics.csv")
    if SFT_PILOTS[name] is not None:
        assert_pinned(tmp_path, "checkpoint.lsk", SFT_PILOTS[name])


def test_rl_pilot_byte_identical(tmp_path, monkeypatch, capsys):
    """GRPO from the benchmark's SFT checkpoint: metrics, every rollout, and
    the trained checkpoint, so a change to the gradient or the step shows
    even where the rollouts of the pilot's iterations do not move."""
    fixture = os.path.join(ROOT, "perfbench", "fixture", "sft_grid_rotation.lsk")
    assert main(["train-rl", "--config", pilot_config("rl_smoke", tmp_path, monkeypatch),
                 "--from-checkpoint", fixture, "--dump-rollouts"]) == 0
    assert_frozen(tmp_path, "rl_metrics.csv", "rl_smoke.rl_metrics.csv")
    assert_frozen(tmp_path, "rollouts.txt", "rl_smoke.rollouts.txt")
    assert_pinned(tmp_path, "rl_checkpoint.lsk", "rl_smoke.rl_checkpoint.sha256")
