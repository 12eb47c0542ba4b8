import numpy as np
import pytest

from latentsketch import toyvision as tv
from latentsketch.model import ModelConfig, build_model, load_model, save_model
from latentsketch.optim import CheckpointError, read_records, write_records

from test_optim import record_starts


def test_build_deterministic_by_seed():
    a = build_model(ModelConfig(layers=1, heads=2, d=8), seed=3)
    b = build_model(ModelConfig(layers=1, heads=2, d=8), seed=3)
    c = build_model(ModelConfig(layers=1, heads=2, d=8), seed=4)
    for name in a.store.entries:
        assert np.array_equal(a.store[name].data, b.store[name].data)
    assert any(not np.array_equal(a.store[n].data, c.store[n].data) for n in a.store.entries)


def test_save_load_roundtrip_preserves_config_and_values(tmp_path):
    m = build_model(ModelConfig(layers=2, heads=2, d=16, k_latent=3, t_steps=7), seed=9)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=9)
    path = str(tmp_path / "m.lsk")
    save_model(path, m, step=17)
    loaded, step = load_model(path)
    assert step == 17
    assert loaded.cfg == m.cfg
    for name in m.store.entries:
        assert np.array_equal(loaded.store[name].data, m.store[name].data), name


def test_similarity_head_roundtrip(tmp_path):
    """A similarity model holds no diffusion parameter, its conditioning
    projection included; a checkpoint that still carries a cond_w record, as
    older ones do, loads with the record ignored."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, head="similarity"), seed=2)
    assert "diffusion_head/cond_w" not in m.store.entries
    path = str(tmp_path / "sim.lsk")
    save_model(path, m)
    write_records(path, {**read_records(path), "diffusion_head/cond_w": np.ones((8, 8))})
    loaded, _ = load_model(path)
    assert loaded.cfg.head == "similarity"
    assert "diffusion_head/sim_w" in loaded.store.entries
    assert "diffusion_head/eps/w0" not in loaded.store.entries
    assert loaded.store.entries.keys() == m.store.entries.keys()
    for name in m.store.entries:
        assert np.array_equal(loaded.store[name].data, m.store[name].data), name


def test_group_assignment_covers_three_groups():
    m = build_model(ModelConfig(layers=1, heads=2, d=8), seed=1)
    groups = set(m.store.group.values())
    assert groups == {"backbone", "diffusion_head", "vision_encoder"}
    assert m.store.group["diffusion_head/cond_w"] == "diffusion_head"
    assert m.store.group["backbone/lm_head/w"] == "backbone"
    assert m.store.group["vision_encoder/proj"] == "vision_encoder"


def test_unknown_head_rejected():
    with pytest.raises(ValueError):
        build_model(ModelConfig(head="nope"), seed=0)


def test_truncated_checkpoint_raises_named_error(tmp_path):
    """Cuts at every record boundary and inside every record's header and payload."""
    m = build_model(ModelConfig(layers=1, heads=1, d=4, max_len=8, k_latent=1, t_steps=2), seed=1)
    path = tmp_path / "m.lsk"
    save_model(str(path), m)
    blob = path.read_bytes()
    starts = record_starts(read_records(str(path)))
    cuts = {0, 3, 6} | set(starts[:-1]) | {a + 5 for a in starts[:-1]} \
        | {(a + b) // 2 for a, b in zip(starts, starts[1:])} | {b - 1 for b in starts[1:]}
    cut_path = tmp_path / "cut.lsk"
    for cut in sorted(cuts):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match=rf"truncated checkpoint {cut_path}: .*byte"):
            load_model(str(cut_path))
    assert load_model(str(path))[0].cfg == m.cfg


def test_every_meta_record_is_required(tmp_path):
    """A checkpoint without meta/step is refused, as one without any other meta
    record is; a record load_model does not read, such as the meta/frozen_encoder
    that older checkpoints carry, is ignored."""
    path = str(tmp_path / "m.lsk")
    m = build_model(ModelConfig(layers=1, heads=1, d=4, max_len=8), seed=1)
    save_model(path, m, step=5)
    records = read_records(path)
    assert "meta/frozen_encoder" not in records
    write_records(path, {**records, "meta/frozen_encoder": np.array([1.0])})
    loaded, step = load_model(path)
    assert step == 5 and loaded.cfg == m.cfg
    del records["meta/step"]
    write_records(path, records)
    with pytest.raises(CheckpointError, match="no record 'meta/step'"):
        load_model(path)
