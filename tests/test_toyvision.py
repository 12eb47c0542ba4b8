import numpy as np
import pytest

from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.optim import ParamStore
from latentsketch.util import seeded_rng


def fresh_encoder(d=8, seed=0):
    store = ParamStore()
    tv.init_encoder(store, d, seeded_rng(seed, "enc"))
    return store


def rotate_oracle(cells: np.ndarray, turns: int) -> np.ndarray:
    """Independent quarter-turn: transpose then flip rows, repeated."""
    out = cells.copy()
    for _ in range(turns % 4):
        out = out.T[::-1, :].copy()
    return out


# -- encoder -------------------------------------------------------------------


def test_encode_shapes():
    store = fresh_encoder()
    img = tv.ToyImage(4, 4, np.zeros((4, 4), dtype=int))
    assert tv.encode_image(store, img).shape == (4, 8)


def test_constant_image_zero_positions_identical_rows():
    store = fresh_encoder()
    store["vision_encoder/pos"].data[:] = 0.0
    img = tv.ToyImage(8, 8, np.zeros((8, 8), dtype=int))
    emb = tv.encode_image(store, img)
    assert np.all(emb == emb[0])


def test_single_patch_matches_direct_matrix_arithmetic():
    store = fresh_encoder()
    img = tv.ToyImage(2, 2, np.array([[1, 0], [3, 5]]))
    emb = tv.encode_image(store, img)
    proj = store["vision_encoder/proj"].data
    active = [0 * tv.PALETTE + 1, 1 * tv.PALETTE + 0, 2 * tv.PALETTE + 3, 3 * tv.PALETTE + 5]
    want = proj[active].sum(axis=0) + store["vision_encoder/pos"].data[0, 0]
    assert np.allclose(emb[0], want, atol=0, rtol=0)


def test_encode_rejects_bad_inputs():
    store = fresh_encoder()
    with pytest.raises(ValueError):
        tv.encode_image(store, tv.ToyImage(3, 4, np.zeros((3, 4), dtype=int)))
    with pytest.raises(ValueError):
        tv.ToyImage(2, 2, np.full((2, 2), tv.PALETTE))


def test_locality_cell_outside_patch_leaves_row_unchanged():
    store = fresh_encoder()
    rng = seeded_rng(1, "loc")
    cells = rng.integers(0, tv.PALETTE, (8, 8))
    base = tv.encode_image(store, tv.ToyImage(8, 8, cells))
    flipped = cells.copy()
    flipped[7, 7] = (flipped[7, 7] + 1) % tv.PALETTE  # inside the last patch only
    after = tv.encode_image(store, tv.ToyImage(8, 8, flipped))
    assert np.array_equal(base[:-1], after[:-1])
    assert not np.array_equal(base[-1], after[-1])


# -- pooling -------------------------------------------------------------------


def test_compress_identity_when_m_equals_n():
    rows = np.arange(12.0).reshape(4, 3)
    out = tv.compress_latents(rows, 4)
    assert np.array_equal(out, rows)


def test_compress_hand_example():
    rows = np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])
    out = tv.compress_latents(rows, 2)
    assert np.array_equal(out, [[2.0, 2.0], [6.0, 6.0]])


def test_compress_constant_rows_any_m():
    rows = np.tile([2.5, -1.0], (8, 1))
    for m in (1, 2, 4, 8):
        assert np.allclose(tv.compress_latents(rows, m), [2.5, -1.0])


def test_compress_permutation_equivariant_within_groups():
    rng = seeded_rng(2, "perm")
    rows = rng.normal(size=(8, 5))
    base = tv.compress_latents(rows, 2)
    shuffled = rows.copy()
    shuffled[0:4] = rows[[2, 0, 3, 1]]   # permute inside the first pooling group
    shuffled[4:8] = rows[[7, 6, 5, 4]]   # and inside the second
    assert np.allclose(tv.compress_latents(shuffled, 2), base, atol=1e-15)


def test_compress_rejects_non_divisor():
    with pytest.raises(ValueError):
        tv.compress_latents(np.zeros((6, 2)), 4)


# -- dataset generators -----------------------------------------------------------


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        tv.generate_dataset("no_such_task", 1, 0)
    with pytest.raises(ValueError):
        tv.generate_dataset("grid_rotation", 0, 0)


@pytest.mark.parametrize("task", tv.TASKS)
def test_make_trace_equals_its_dataset_entry(task):
    for i in (0, 3, 9):
        want = tv.generate_dataset(task, i + 1, 13)[i]
        assert tv.dump_dataset([tv.make_trace(task, 13, i)]) == tv.dump_dataset([want])


def test_generate_deterministic_and_seed_sensitive():
    a = tv.generate_dataset("grid_rotation", 4, 11)
    b = tv.generate_dataset("grid_rotation", 4, 11)
    c = tv.generate_dataset("grid_rotation", 4, 12)
    assert tv.dump_dataset(a) == tv.dump_dataset(b)
    assert tv.dump_dataset(a) != tv.dump_dataset(c)


def test_grid_rotation_traces_pass_rotation_oracle():
    traces = tv.generate_dataset("grid_rotation", 200, 3)
    for t in traces:
        imaged = [s for s in t.steps if s.image is not None]
        r = len(imaged)
        assert 1 <= r <= 3  # R drawn from {1,2,3}, never 0
        final = imaged[-1].image
        assert np.array_equal(final.cells, rotate_oracle(t.input_image.cells, r))
        for i, step in enumerate(imaged, start=1):
            assert np.array_equal(step.image.cells, rotate_oracle(t.input_image.cells, i))
        # the trailing verification step names exactly one matching letter,
        # and it is the gold answer
        words = vocab.decode(t.steps[-1].text)
        assert t.steps[-1].image is None and words[0] == "compare"
        assert words.count("match") == 1
        gold = vocab.decode(t.answer)[-1]
        # layout per candidate: letter, 4 agreement bits, verdict
        midx = words.index("match")
        assert words[midx - 5] == gold
        assert all(b == "1" for b in words[midx - 4 : midx])


def test_grid_rotation_answer_letter_names_matching_candidate():
    traces = tv.generate_dataset("grid_rotation", 100, 4)
    for t in traces:
        words = vocab.decode(t.question)
        r = int(words[4])
        assert words.count("choices:") == 1
        # candidate serializations start right after each letter
        per_letter = {}
        idx = words.index("choices:") + 1
        while idx < len(words):
            letter = words[idx]
            per_letter[letter] = words[idx + 1 : idx + 5]
            idx += 5
        assert sorted(per_letter) == ["A", "B", "C", "D"]
        gold_letter = vocab.decode(t.answer)[-1]
        core = t.input_image.cells[2:6, 2:6]
        expect = tv.serialize_core((rotate_oracle(core, r) > 0).astype(int))
        assert per_letter[gold_letter] == expect
        # distractors are the other rotations: all four serializations distinct
        assert len({tuple(v) for v in per_letter.values()}) == 4


def test_visual_search_traces_consistent():
    traces = tv.generate_dataset("visual_search", 100, 9)
    for t in traces:
        cells = t.input_image.cells
        frame_cells = np.argwhere(cells == tv.FRAME_COLOR)
        assert len(frame_cells) == 8  # 3x3 ring minus the center
        cy, cx = frame_cells.mean(axis=0).astype(int)
        target_color = cells[cy, cx]
        assert target_color in tv.OPTION_COLORS
        words = vocab.decode(t.question)
        gold_letter = vocab.decode(t.answer)[-1]
        pos = words.index(gold_letter, words.index("choices:"))
        assert int(words[pos + 1]) == target_color
        assert len(t.steps) == 2
        for s in t.steps:
            assert s.image.height == 16 and s.image.width == 16
        # the final zoom is the 4x4 block around the target, upsampled by 4
        block = cells[(cy // 4) * 4 : (cy // 4) * 4 + 4, (cx // 4) * 4 : (cx // 4) * 4 + 4]
        assert np.array_equal(t.steps[1].image.cells, tv.upsample(block, 4))


@pytest.mark.slow
@pytest.mark.parametrize("task", tv.TASKS)
def test_answer_letter_marginal_uniform(task):
    traces = tv.generate_dataset(task, 10_000, 21)
    counts = {letter: 0 for letter in "ABCD"}
    for t in traces:
        counts[vocab.decode(t.answer)[-1]] += 1
    for letter, n in counts.items():
        assert abs(n / 10_000 - 0.25) < 0.03, (letter, n)


def test_dataset_roundtrip_and_record_fields():
    traces = tv.generate_dataset("visual_search", 3, 1)
    text = tv.dump_dataset(traces)
    import json
    rec = json.loads(text.splitlines()[0])
    assert set(rec) == {"task", "seed", "image", "question", "steps", "answer"}
    back = tv.load_dataset(text)
    assert tv.dump_dataset(back) == text


def test_render_pgm_header_and_size():
    """Width before height in the header; cell code c is gray level 51 c."""
    cells = np.arange(24).reshape(4, 6) % tv.PALETTE
    blob = tv.render_pgm(cells, tv.PALETTE - 1)
    assert blob.startswith(b"P5\n6 4\n255\n")
    assert blob[len(b"P5\n6 4\n255\n"):] == (cells * 51).astype(np.uint8).tobytes()
    assert tv.render_pgm(np.zeros((2, 3)), 0.0) == b"P5\n3 2\n255\n" + bytes(6)


def test_pretrain_encoder_freezes_and_drops_probe():
    store = fresh_encoder(d=8, seed=4)
    final = tv.pretrain_encoder(store, 20, 1e-2, seed=4)
    assert np.isfinite(final)
    assert "vision_encoder" in store.frozen_groups
    assert "vision_encoder/probe_w" not in store.entries
    assert "vision_encoder/probe_b" not in store.entries
