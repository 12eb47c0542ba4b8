"""Synthetic visual-reasoning tasks with gold interleaved traces, the toy
patch encoder whose outputs live in backbone space, and average-pool latent
compression.

Two tasks:

* ``grid_rotation`` — an 8x8 image holds an asymmetric 4x4 glyph; the question
  serializes four candidate glyphs (the four quarter-turn rotations, shuffled
  onto letters) and asks which one equals the glyph after R turns.  Gold steps
  rotate the image once per step, each with the rotated image attached.
* ``visual_search`` — a 16x16 image holds one cell framed by a marker ring
  among colored distractors; the question asks for the framed cell's color
  code among four lettered options.  Gold steps zoom into the quadrant and
  then the sub-quadrant containing the target, upsampled back to 16x16 so all
  intermediate images share encoder geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import vocab
from .optim import ParamStore, adamw_step
from .util import seeded_rng

PALETTE = 6          # 0 background, 1 marker frame, 2..5 colors
PATCH = 2
FRAME_COLOR = 1
OPTION_COLORS = (2, 3, 4, 5)
MAX_PATCH_GRID = 8   # 16x16 cells at patch size 2
PATTERN_TOKEN_SCALE = 0.06  # align_pattern_tokens' scale on the encoder rows

TASKS = ("grid_rotation", "visual_search")


@dataclass
class ToyImage:
    height: int
    width: int
    cells: np.ndarray  # int array [height, width], entries < PALETTE

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        if self.cells.shape != (self.height, self.width):
            raise ValueError("cell grid does not match declared dimensions")
        if any(side % PATCH or not 0 < side <= MAX_PATCH_GRID * PATCH for side in self.cells.shape):
            raise ValueError(f"image sides must be multiples of {PATCH} up to {MAX_PATCH_GRID * PATCH}, "
                             f"not {self.height}x{self.width}")
        if self.cells.min() < 0 or self.cells.max() >= PALETTE:
            raise ValueError(f"cell code outside palette [0, {PALETTE})")


@dataclass
class TraceStep:
    text: list[int]
    image: ToyImage | None


@dataclass
class AnnotatedTrace:
    input_image: ToyImage
    question: list[int]
    steps: list[TraceStep]
    answer: list[int]
    task_id: str
    seed: int


# -- encoder -------------------------------------------------------------------


def init_encoder(store: ParamStore, d: int, rng: np.random.Generator) -> None:
    in_dim = PATCH * PATCH * PALETTE
    store.add("vision_encoder/proj", rng.normal(0.0, 1.0 / np.sqrt(in_dim), (in_dim, d)), "vision_encoder")
    store.add("vision_encoder/pos", rng.normal(0.0, 0.02, (MAX_PATCH_GRID, MAX_PATCH_GRID, d)), "vision_encoder")


def _patches(cells: np.ndarray) -> np.ndarray:
    """The PATCH x PATCH patches of a cell grid in raster order, each one's
    cells row-major -> [N, PATCH * PATCH]."""
    gh, gw = cells.shape[0] // PATCH, cells.shape[1] // PATCH
    return cells.reshape(gh, PATCH, gw, PATCH).transpose(0, 2, 1, 3).reshape(gh * gw, PATCH * PATCH)


def _patch_onehot(img: ToyImage) -> np.ndarray:
    """One-hot-flatten every PATCH x PATCH patch, raster order -> [N, patch*patch*PALETTE]."""
    blocks = _patches(img.cells)
    onehot = np.zeros((len(blocks), PATCH * PATCH * PALETTE), dtype=np.float64)
    cols = np.arange(PATCH * PATCH) * PALETTE + blocks
    onehot[np.arange(len(blocks))[:, None], cols] = 1.0
    return onehot


def encode_image(store: ParamStore, img: ToyImage) -> np.ndarray:
    """Patch one-hot -> linear projection to d, plus 2-D patch-position
    embedding: one row [N, d] per patch, raster order."""
    onehot = _patch_onehot(img)
    gh, gw = img.height // PATCH, img.width // PATCH
    pos = store["vision_encoder/pos"].data[:gh, :gw].reshape(gh * gw, -1)
    return onehot @ store["vision_encoder/proj"].data + pos


def compress_latents(rows: np.ndarray, m: int) -> np.ndarray:
    """Average-pool N rows [N, d] to m rows over contiguous groups."""
    n = rows.shape[0]
    if m < 1 or n % m:
        raise ValueError(f"m={m} must divide the {n} embedding rows")
    return rows.reshape(m, n // m, -1).mean(axis=1)


def pretrain_encoder(store: ParamStore, steps: int, lr: float, seed: int) -> float:
    """Fit the encoder through an autoencoding probe (embedding -> per-cell
    code logits); returns the last step's loss.

    The probe head is scaffolding in a store of its own, so only the
    projection and position table go on into SFT, which leaves them fixed.
    """
    d = store["vision_encoder/proj"].data.shape[1]
    out_dim = PATCH * PATCH * PALETTE
    rng0 = seeded_rng(seed, "enc-probe-init")
    probe = ParamStore()
    probe.add("vision_encoder/probe_w", rng0.normal(0.0, 1.0 / np.sqrt(d), (d, out_dim)), "vision_encoder")
    probe.add("vision_encoder/probe_b", np.zeros(out_dim), "vision_encoder")
    last = float("nan")
    for step in range(steps):
        rng = seeded_rng(seed, "enc-pretrain", step)
        imgs = [ToyImage(8, 8, rng.integers(0, PALETTE, (8, 8))) for _ in range(4)]
        imgs.append(ToyImage(16, 16, rng.integers(0, PALETTE, (16, 16))))
        onehots, codes, poss = [], [], []
        for img in imgs:
            onehots.append(_patch_onehot(img))
            poss.append(_pos_index(img.height // PATCH, img.width // PATCH))
            codes.append(_patches(img.cells))
        onehot = np.concatenate(onehots, axis=0)
        pos_idx = np.concatenate(poss, axis=0)
        target = np.concatenate(codes, axis=0).reshape(-1)
        pos_flat = ad.reshape(store["vision_encoder/pos"], (MAX_PATCH_GRID * MAX_PATCH_GRID, d))
        emb = ad.add(ad.affine(onehot, store["vision_encoder/proj"]),
                     ad.take_rows(pos_flat, pos_idx))
        logits = ad.affine(emb, probe["vision_encoder/probe_w"], probe["vision_encoder/probe_b"])
        logits = ad.reshape(logits, (onehot.shape[0] * PATCH * PATCH, PALETTE))
        loss = ad.mean_(ad.cross_entropy(logits, target))
        store.zero_grad()
        probe.zero_grad()
        ad.backward(loss)
        adamw_step(store, {"vision_encoder": lr}, weight_decay=0.0)
        adamw_step(probe, {"vision_encoder": lr}, weight_decay=0.0)
        last = loss.item()
    return last


def align_pattern_tokens(store: ParamStore) -> None:
    """Initialize the 16 pattern-word embeddings from the pre-trained encoder.

    The desk stand-in for a pretrained VLM's text-vision alignment: token
    p<c> starts at the (color-averaged) encoder projection of a 2x2 patch
    holding pattern c, so candidate words and visual tokens share a space
    from step one.  Rows remain trainable afterwards.
    """
    proj = store["vision_encoder/proj"].data
    tok = store["backbone/tok_emb"].data
    for code in range(16):
        bits = [(code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1]
        acc = np.zeros(proj.shape[1])
        for color in OPTION_COLORS:
            cols = [slot * PALETTE + (color if b else 0) for slot, b in enumerate(bits)]
            acc += proj[cols].sum(axis=0)
        tok[vocab.STR2ID[f"p{code}"]] = PATTERN_TOKEN_SCALE * acc / len(OPTION_COLORS)


def _pos_index(gh: int, gw: int) -> np.ndarray:
    """Flat indices into the [MAX_PATCH_GRID^2, d] position table, raster order."""
    rows = np.repeat(np.arange(gh), gw)
    cols = np.tile(np.arange(gw), gh)
    return rows * MAX_PATCH_GRID + cols


# -- task generators -----------------------------------------------------------


def rotate_quarter(cells: np.ndarray, turns: int) -> np.ndarray:
    """Counter-clockwise quarter turns."""
    return np.rot90(cells, k=turns % 4)


def serialize_core(core: np.ndarray) -> list[str]:
    """Candidate glyph as one pattern-code word per encoder patch, raster order.

    The code packs the patch's binary cells (row-major, first cell highest)
    into 0..15, matching the encoder's patch geometry so candidates and
    visual tokens align.
    """
    weights = 1 << np.arange(PATCH * PATCH)[::-1]
    return [f"p{int(b @ weights)}" for b in _patches(core)]


def _sample_core(rng: np.random.Generator) -> np.ndarray:
    """Asymmetric 4x4 binary glyph core: all four rotations pairwise distinct."""
    while True:
        core = (rng.random((4, 4)) < 0.5).astype(np.int64)
        count = int(core.sum())
        if not 5 <= count <= 11:
            continue
        rots = [rotate_quarter(core, k) for k in range(4)]
        if all(not np.array_equal(rots[i], rots[j]) for i in range(4) for j in range(i + 1, 4)):
            return core


def _grid_rotation_trace(seed: int, index: int) -> AnnotatedTrace:
    rng = seeded_rng("grid_rotation", seed, index)
    core = _sample_core(rng)
    color = int(rng.choice(OPTION_COLORS))
    cells = np.zeros((8, 8), dtype=np.int64)
    cells[2:6, 2:6] = core * color
    r = int(rng.integers(1, 4))  # quarter turns, never 0: the input itself is no answer
    letter_rots = rng.permutation(4)
    answer_idx = int(np.where(letter_rots == r)[0][0])

    q = ["rotate", "the", "glyph", "by", str(r), "quarter", "turns", "which", "option", "matches", "choices:"]
    for j, letter in enumerate("ABCD"):
        q.append(letter)
        q.extend(serialize_core(rotate_quarter(core, int(letter_rots[j]))))
    question = vocab.encode(q)

    steps = []
    for turn in range(1, r + 1):
        img = ToyImage(8, 8, rotate_quarter(cells, turn))
        steps.append(TraceStep(text=vocab.encode(["rotate", str(turn)]), image=img))
    # gold rationale closes with an option-by-option verification pass: one
    # agreement bit per candidate patch against the rotated glyph, then the verdict
    final_codes = serialize_core(rotate_quarter(core, r))
    verdicts = ["compare"]
    for j, letter in enumerate("ABCD"):
        cand_codes = serialize_core(rotate_quarter(core, int(letter_rots[j])))
        bits = ["1" if a == b else "0" for a, b in zip(cand_codes, final_codes)]
        verdicts.extend([letter, *bits, "match" if j == answer_idx else "not"])
    steps.append(TraceStep(text=vocab.encode(verdicts), image=None))
    answer = vocab.encode(["answer:", "ABCD"[answer_idx]])
    return AnnotatedTrace(ToyImage(8, 8, cells), question, steps, answer, "grid_rotation", seed)


def upsample(cells: np.ndarray, factor: int) -> np.ndarray:
    return np.kron(cells, np.ones((factor, factor), dtype=np.int64))


def _visual_search_trace(seed: int, index: int) -> AnnotatedTrace:
    rng = seeded_rng("visual_search", seed, index)
    cells = np.zeros((16, 16), dtype=np.int64)
    # target center placed so its 3x3 frame stays inside one 4x4 sub-quadrant
    block_r, block_c = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    cy = block_r * 4 + 1 + int(rng.integers(0, 2))
    cx = block_c * 4 + 1 + int(rng.integers(0, 2))
    target_color = int(rng.choice(OPTION_COLORS))
    cells[cy - 1 : cy + 2, cx - 1 : cx + 2] = FRAME_COLOR
    cells[cy, cx] = target_color
    # distractor cells: colored, never the frame color, never on the frame
    for _ in range(30):
        y, x = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        if abs(y - cy) <= 1 and abs(x - cx) <= 1:
            continue
        cells[y, x] = int(rng.choice(OPTION_COLORS))

    letter_colors = rng.permutation(np.array(OPTION_COLORS))
    answer_idx = int(np.where(letter_colors == target_color)[0][0])
    q = ["find", "the", "marked", "cell", "what", "is", "the", "color", "code", "at", "it", "choices:"]
    for j, letter in enumerate("ABCD"):
        q.extend([letter, str(int(letter_colors[j]))])
    question = vocab.encode(q)

    quad1 = (cy // 8) * 2 + (cx // 8) + 1
    crop1 = cells[(cy // 8) * 8 : (cy // 8) * 8 + 8, (cx // 8) * 8 : (cx // 8) * 8 + 8]
    ry, rx = cy % 8, cx % 8
    quad2 = (ry // 4) * 2 + (rx // 4) + 1
    crop2 = crop1[(ry // 4) * 4 : (ry // 4) * 4 + 4, (rx // 4) * 4 : (rx // 4) * 4 + 4]
    steps = [
        TraceStep(vocab.encode(["zoom", "quadrant", str(quad1)]), ToyImage(16, 16, upsample(crop1, 2))),
        TraceStep(vocab.encode(["zoom", "quadrant", str(quad2)]), ToyImage(16, 16, upsample(crop2, 4))),
    ]
    answer = vocab.encode(["answer:", "ABCD"[answer_idx]])
    return AnnotatedTrace(ToyImage(16, 16, cells), question, steps, answer, "visual_search", seed)


def make_trace(task_id: str, seed: int, index: int) -> AnnotatedTrace:
    """Trace `index` of the task's dataset under `seed`, a pure function of the three."""
    if task_id not in TASKS:
        raise ValueError(f"unknown task {task_id!r}; expected one of {TASKS}")
    maker = _grid_rotation_trace if task_id == "grid_rotation" else _visual_search_trace
    return maker(seed, index)


def generate_dataset(task_id: str, count: int, seed: int) -> list[AnnotatedTrace]:
    if count < 1:
        raise ValueError("count must be >= 1")
    return [make_trace(task_id, seed, i) for i in range(count)]


# -- dataset serialization -------------------------------------------------------


def trace_to_record(trace: AnnotatedTrace) -> dict:
    return {
        "task": trace.task_id,
        "seed": trace.seed,
        "image": trace.input_image.cells.tolist(),
        "question": list(trace.question),
        "steps": [
            {"text": list(s.text), "image": s.image.cells.tolist() if s.image is not None else None}
            for s in trace.steps
        ],
        "answer": list(trace.answer),
    }


def _text_ids(ids) -> list[int]:
    """A record's token ids, each an integer id of a text token."""
    ids = list(ids)
    bad = [t for t in ids if type(t) is not int or not 0 <= t < vocab.VOCAB_SIZE or t in vocab.CONTROL_IDS]
    if bad:
        raise ValueError(f"not text token ids: {bad}")
    return ids


def record_to_trace(rec: dict) -> AnnotatedTrace:
    img = np.asarray(rec["image"], dtype=np.int64)
    steps = []
    for s in rec["steps"]:
        sim = None
        if s["image"] is not None:
            arr = np.asarray(s["image"], dtype=np.int64)
            sim = ToyImage(arr.shape[0], arr.shape[1], arr)
        steps.append(TraceStep(text=_text_ids(s["text"]), image=sim))
    return AnnotatedTrace(ToyImage(img.shape[0], img.shape[1], img), _text_ids(rec["question"]),
                          steps, _text_ids(rec["answer"]), rec["task"], rec["seed"])


def dump_dataset(traces: list[AnnotatedTrace]) -> str:
    return "".join(json.dumps(trace_to_record(t), separators=(",", ":")) + "\n" for t in traces)


def load_dataset(text: str) -> list[AnnotatedTrace]:
    """The traces of a JSONL text, one record a line; a bad record raises
    ValueError naming its 1-based line."""
    traces = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            traces.append(record_to_trace(json.loads(line)))
        except KeyError as e:
            raise ValueError(f"line {n}: missing key {e}") from e
        except (ValueError, TypeError, IndexError) as e:
            raise ValueError(f"line {n}: {e}") from e
    return traces


def render_pgm(values: np.ndarray, peak: float) -> bytes:
    """Portable graymap (P5) of a [height, width] grid: values 0..peak spread
    over the 8-bit range, all black when peak is not positive."""
    height, width = values.shape
    pixels = np.zeros((height, width)) if peak <= 0 else np.round(values / peak * 255.0)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.astype(np.uint8).tobytes()
