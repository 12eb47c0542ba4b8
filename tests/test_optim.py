import numpy as np
import pytest

from latentsketch.model import ModelConfig, build_model, load_model, save_model
from latentsketch.optim import (
    CheckpointError,
    LrSchedule,
    ParamStore,
    adamw_step,
    clip_grad_norm,
    cosine_lr,
    read_records,
    write_records,
)


def make_store():
    store = ParamStore()
    store.add("backbone/w", np.array([1.0, -2.0, 3.0]), "backbone")
    store.add("diffusion_head/w", np.array([[0.5, 0.5]]), "diffusion_head")
    store.add("vision_encoder/w", np.array([4.0]), "vision_encoder")
    return store


LRS = {"backbone": 0.1, "diffusion_head": 0.2, "vision_encoder": 0.05}


def test_zero_grad_zero_decay_is_fixed_point():
    store = make_store()
    before = store.clone_values()
    for t in store.entries.values():
        t.grad = np.zeros_like(t.data)
    adamw_step(store, LRS, weight_decay=0.0)
    for name, t in store.entries.items():
        assert np.array_equal(t.data, before[name])


def test_first_step_hand_evaluated():
    # g=1, lr=0.1, wd=0: bias-corrected mhat=1, vhat=1 -> theta drops by ~0.1
    store = ParamStore()
    p = store.add("backbone/x", np.array([0.0]), "backbone")
    p.grad = np.array([1.0])
    adamw_step(store, {"backbone": 0.1}, weight_decay=0.0)
    assert p.data[0] == pytest.approx(-0.1, rel=1e-6)


def test_frozen_group_untouched():
    """A frozen group is one left out of the learning-rate map: it keeps its
    values bitwise and gets no AdamW moments, though it has a gradient; a
    listed group steps."""
    store = make_store()
    for t in store.entries.values():
        t.grad = np.ones_like(t.data)
    before = store.clone_values()
    for _ in range(2):
        adamw_step(store, {"backbone": 0.1}, weight_decay=0.01)
    for name in ("diffusion_head/w", "vision_encoder/w"):
        assert store[name].data.tobytes() == before[name].tobytes(), name
    assert set(store.opt_state) == {"backbone/w"}
    assert store.opt_state["backbone/w"]["t"] == 2
    assert not np.array_equal(store["backbone/w"].data, before["backbone/w"])


def test_non_finite_grad_errors():
    store = make_store()
    store["backbone/w"].grad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(FloatingPointError):
        adamw_step(store, LRS, weight_decay=0.01)


def test_decoupled_weight_decay_direction():
    store = ParamStore()
    p = store.add("backbone/x", np.array([10.0]), "backbone")
    p.grad = np.array([0.0])
    adamw_step(store, {"backbone": 0.1}, weight_decay=0.01)
    assert p.data[0] == pytest.approx(10.0 - 0.1 * 0.01 * 10.0)


def test_cosine_boundaries_and_midpoint():
    sched = LrSchedule(peak_lr=1.0, floor_lr=0.1, warmup_steps=10, total_steps=110)
    assert cosine_lr(10, sched) == pytest.approx(1.0)
    assert cosine_lr(110, sched) == pytest.approx(0.1)
    assert cosine_lr(60, sched) == pytest.approx((1.0 + 0.1) / 2.0)
    assert cosine_lr(5, sched) == pytest.approx(0.5)  # linear warmup
    with pytest.raises(ValueError):
        cosine_lr(111, sched)


def test_lr_schedule_invariants():
    with pytest.raises(ValueError):
        LrSchedule(peak_lr=0.1, floor_lr=0.2, warmup_steps=0, total_steps=10)
    with pytest.raises(ValueError):
        LrSchedule(peak_lr=1.0, floor_lr=0.0, warmup_steps=10, total_steps=10)


def test_clip_grad_norm_scales_to_bound():
    store = make_store()
    store["backbone/w"].grad = np.array([3.0, 0.0, 4.0])  # norm 5
    pre = clip_grad_norm(store, 1.0)
    assert pre == pytest.approx(5.0)
    assert np.linalg.norm(store["backbone/w"].grad) == pytest.approx(1.0)
    # below the bound: untouched
    store["backbone/w"].grad = np.array([0.3, 0.0, 0.4])
    pre = clip_grad_norm(store, 1.0)
    assert pre == pytest.approx(0.5)
    assert np.linalg.norm(store["backbone/w"].grad) == pytest.approx(0.5)


def stepped_model():
    """A tiny model after one AdamW step on every parameter, so it has optimizer state."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=16), seed=5)
    for t in m.store.entries.values():
        t.grad = np.ones_like(t.data)
    adamw_step(m.store, LRS, weight_decay=0.01)
    return m


def test_checkpoint_roundtrip_bitwise(tmp_path):
    m = stepped_model()
    path = str(tmp_path / "ck.lsk")
    save_model(path, m, step=3)
    fresh, step = load_model(path)
    assert step == 3
    for name in m.store.entries:
        assert np.array_equal(fresh.store[name].data, m.store[name].data)
        assert fresh.store.opt_state[name]["t"] == 1
        for k in ("m", "v"):
            assert np.array_equal(fresh.store.opt_state[name][k], m.store.opt_state[name][k])
    # re-serialization is byte-identical
    path2 = str(tmp_path / "ck2.lsk")
    save_model(path2, fresh, step=3)
    assert open(path, "rb").read() == open(path2, "rb").read()
    # so is the byte format alone
    path3 = str(tmp_path / "ck3.lsk")
    write_records(path3, read_records(path))
    assert open(path, "rb").read() == open(path3, "rb").read()


def test_checkpoint_magic_rejected(tmp_path):
    p = tmp_path / "bad.lsk"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_records(str(p))


def test_opt_state_under_opt_prefix(tmp_path):
    path = str(tmp_path / "ck.lsk")
    save_model(path, stepped_model())
    records = read_records(path)
    assert "opt/m/backbone/tok_emb" in records
    assert "opt/v/backbone/tok_emb" in records
    assert records["opt/t/backbone/tok_emb"][0] == 1.0
    save_model(path, stepped_model(), include_opt=False)
    assert not any(name.startswith("opt/") for name in read_records(path))


def test_duplicate_and_unknown_group_rejected():
    store = ParamStore()
    store.add("backbone/a", np.zeros(1), "backbone")
    with pytest.raises(ValueError):
        store.add("backbone/a", np.zeros(1), "backbone")
    with pytest.raises(ValueError):
        store.add("x", np.zeros(1), "no_such_group")


def record_starts(records):
    """Byte offset where each record starts, in file order, plus the file size."""
    at, starts = 8, []
    for name in sorted(records):
        starts.append(at)
        at += 8 + len(name.encode("utf-8")) + 4 * records[name].ndim + 8 * records[name].size
    return starts + [at]


def test_every_truncation_is_detected_or_a_record_boundary(tmp_path):
    path = tmp_path / "ck.lsk"
    write_records(str(path), {name: t.data for name, t in make_store().entries.items()})
    blob = path.read_bytes()
    records = read_records(str(path))
    starts = record_starts(records)
    assert starts[-1] == len(blob)
    cut_path = tmp_path / "cut.lsk"
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        if cut in starts:
            # a cut between records leaves a readable prefix of the records
            kept = read_records(str(cut_path))
            assert list(kept) == sorted(records)[: starts.index(cut)]
            continue
        with pytest.raises(CheckpointError, match=rf"truncated checkpoint {cut_path}: .* at byte \d+ "
                                                  rf"needs \d+ bytes, the file ends at byte {cut}"):
            read_records(str(cut_path))
