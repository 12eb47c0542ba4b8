"""The committed pilot configs are re-run from scratch and their metrics CSVs
byte-compared with the frozen copies next to them in ``pilots/``."""

import json
import os

import pytest

from latentsketch.cli import main

PILOTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pilots")


@pytest.mark.parametrize("name", ["sft_smoke"])
def test_pilot_metrics_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LATENT_SKETCH_SEED", raising=False)
    with open(os.path.join(PILOTS, f"{name}.json"), encoding="utf-8") as f:
        cfg = json.load(f)
    cfg["paths"]["out_dir"] = str(tmp_path / "run")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train-sft", "--config", str(path)]) == 0
    got = (tmp_path / "run" / "metrics.csv").read_bytes()
    with open(os.path.join(PILOTS, f"{name}.metrics.csv"), "rb") as f:
        assert got == f.read()
