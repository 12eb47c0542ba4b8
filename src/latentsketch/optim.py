"""Parameter store with group tags, AdamW with per-group learning rates,
cosine learning-rate schedule, global-norm clipping, and the checkpoint's
byte format: named float64 records.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .util import atomic_write

GROUPS = ("backbone", "diffusion_head", "vision_encoder")

CHECKPOINT_MAGIC = b"LSK1"
CHECKPOINT_VERSION = 1

ADAM_BETAS = (0.9, 0.999)  # moment decay rates
ADAM_EPS = 1e-8  # added to the second-moment root


class ParamStore:
    """Named parameters, each tagged with exactly one group, plus AdamW moments."""

    def __init__(self):
        self.entries: dict[str, Tensor] = {}
        self.group: dict[str, str] = {}
        # sidecar optimizer state: name -> {"m": ndarray, "v": ndarray, "t": int}
        self.opt_state: dict[str, dict] = {}

    def add(self, name: str, data: np.ndarray, group: str) -> Tensor:
        if group not in GROUPS:
            raise ValueError(f"unknown parameter group {group!r}")
        if name in self.entries:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self.entries[name] = t
        self.group[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def zero_grad(self) -> None:
        for t in self.entries.values():
            t.grad = None

    def clone_values(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.entries.items()}


@dataclass
class LrSchedule:
    peak_lr: float
    floor_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.floor_lr > self.peak_lr:
            raise ValueError("floor_lr must not exceed peak_lr")
        if self.warmup_steps >= self.total_steps:
            raise ValueError("warmup_steps must be < total_steps")


def cosine_lr(step: int, sched: LrSchedule) -> float:
    """Linear warmup to the peak, then cosine decay to the floor."""
    if step > sched.total_steps:
        raise ValueError(f"step {step} exceeds total_steps {sched.total_steps}")
    if step < sched.warmup_steps:
        return sched.peak_lr * step / sched.warmup_steps
    progress = (step - sched.warmup_steps) / (sched.total_steps - sched.warmup_steps)
    return sched.floor_lr + (sched.peak_lr - sched.floor_lr) * 0.5 * (1.0 + np.cos(np.pi * progress))


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most max_norm; returns the pre-clip norm."""
    sq = 0.0
    for t in store.entries.values():
        if t.grad is not None:
            sq += float(np.sum(t.grad * t.grad))
    norm = float(np.sqrt(sq))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for t in store.entries.values():
            if t.grad is not None:
                t.grad *= scale
    return norm


def adamw_step(store: ParamStore, lr_by_group: dict[str, float], weight_decay: float) -> None:
    """One decoupled-weight-decay Adam step over every parameter with a grad
    whose group is a key of lr_by_group; every other parameter, and its AdamW
    moments, stays as it is."""
    b1, b2 = ADAM_BETAS
    for name, t in store.entries.items():
        lr = lr_by_group.get(store.group[name])
        g = t.grad
        if lr is None or g is None:
            continue
        if not np.isfinite(np.sum(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
        state = store.opt_state.get(name)
        if state is None:
            state = {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data), "t": 0}
            store.opt_state[name] = state
        state["t"] += 1
        m, v = state["m"], state["v"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        denom = np.sqrt(v / (1.0 - b2 ** state["t"]))
        denom += ADAM_EPS
        update = m / (1.0 - b1 ** state["t"])
        update /= denom
        if weight_decay:
            update += weight_decay * t.data
        update *= lr
        t.data -= update


# -- checkpoint format ---------------------------------------------------------
#
# magic "LSK1" | version u32 LE | records:
#   [name-length u32 LE][UTF-8 name][rank u32 LE][dims u32 LE each][payload f64 LE]
# model.save_model decides which records a checkpoint holds.


def write_records(path: str, records: dict[str, np.ndarray]) -> None:
    """Atomically write named float64 arrays in the checkpoint format."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for name in sorted(records):
        arr = np.ascontiguousarray(records[name], dtype=np.float64)
        nb = name.encode("utf-8")
        parts += [struct.pack("<I", len(nb)), nb, struct.pack("<I", arr.ndim)]
        parts += [struct.pack("<I", dim) for dim in arr.shape]
        parts.append(arr.tobytes())
    atomic_write(path, b"".join(parts))


class CheckpointError(ValueError):
    """A checkpoint file that is truncated, malformed or of another vocabulary;
    the message names the file, and for a truncated one the byte offset where
    reading stopped."""


def read_records(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(n: int, what: str) -> bytes:
            at = f.tell()
            b = f.read(n)
            if len(b) != n:
                raise CheckpointError(f"truncated checkpoint {path}: {what} at byte {at} "
                                      f"needs {n} bytes, the file ends at byte {size}")
            return b

        magic = take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
        (version,) = struct.unpack("<I", take(4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} in {path}")
        out: dict[str, np.ndarray] = {}
        while f.tell() < size:
            (name_len,) = struct.unpack("<I", take(4, "record header"))
            name = take(name_len, "record name").decode("utf-8")
            (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
            payload = take(8 * math.prod(dims), f"payload of {name!r}")
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        return out
