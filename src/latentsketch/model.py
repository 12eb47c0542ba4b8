"""Whole-model assembly: configuration, parameter initialization across the
three groups, and checkpoint save/load: which records a checkpoint holds,
with self-describing metadata.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import backbone as bb
from . import diffusion as df
from . import toyvision as tv
from .optim import CheckpointError, ParamStore, read_records, write_records
from .util import seeded_rng
from .vocab import VOCAB_SIZE

HEAD_DIFFUSION = "diffusion"
HEAD_SIMILARITY = "similarity"


@dataclass
class ModelConfig:
    """The backbone's fields, then the diffusion schedule and the latent head."""

    layers: int = 4
    heads: int = 4
    d: int = 64
    vocab: ClassVar[int] = VOCAB_SIZE  # not a field: the committed vocabulary is the only one
    max_len: int = 256
    k_latent: int = 4
    t_steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.28
    head: str = HEAD_DIFFUSION

    def __post_init__(self):
        for name in ("layers", "heads", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d % self.heads:
            raise ValueError("model width must be divisible by head count")
        if self.k_latent < 1:
            raise ValueError("k_latent must be >= 1")
        self.schedule()  # the noise schedule checks t_steps and the betas

    def schedule(self) -> df.NoiseSchedule:
        return df.linear_schedule(self.t_steps, self.beta_start, self.beta_end)


class Model:
    """Parameter store plus config and noise schedule; the unit that checkpoints."""

    def __init__(self, cfg: ModelConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store
        self.bcfg = cfg  # the name the benchmark (perfbench/) reads; the program reads cfg
        self.sched = cfg.schedule()


def build_model(cfg: ModelConfig, seed: int) -> Model:
    store = ParamStore()
    rng = seeded_rng(seed, "model-init")
    tv.init_encoder(store, cfg.d, rng)
    bb.init_backbone(store, cfg, rng)
    if cfg.head == HEAD_DIFFUSION:
        # conditioning projection c = W h feeding the latent decoder
        store.add("diffusion_head/cond_w", rng.normal(0.0, 0.02, (cfg.d, cfg.d)), "diffusion_head")
        df.init_epsilon_net(store, cfg.d, cfg.d, rng)
    elif cfg.head == HEAD_SIMILARITY:
        store.add("diffusion_head/sim_w", rng.normal(0.0, 0.02, (cfg.d, cfg.d)), "diffusion_head")
        store.add("diffusion_head/sim_b", np.zeros(cfg.d), "diffusion_head")
    else:
        raise ValueError(f"unknown head {cfg.head!r}")
    return Model(cfg, store)


# every numeric ModelConfig field, in declaration order; the head is stored as 0/1
_META_FIELDS = tuple(f for f in fields(ModelConfig) if f.name != "head")


def save_model(path: str, model: Model, step: int = 0, include_opt: bool = True) -> None:
    """Write each parameter under its own name, its AdamW moments under
    "opt/m/", "opt/v/" and "opt/t/" plus its name, and scalar metadata under
    "meta/": the _META_FIELDS, the vocabulary size, the head and the step."""
    records = {name: t.data for name, t in model.store.entries.items()}
    if include_opt:
        for name, state in model.store.opt_state.items():
            records[f"opt/m/{name}"] = state["m"]
            records[f"opt/v/{name}"] = state["v"]
            records[f"opt/t/{name}"] = np.array([float(state["t"])])
    for f in _META_FIELDS:
        records[f"meta/{f.name}"] = np.array([float(getattr(model.cfg, f.name))])
    records["meta/vocab"] = np.array([float(VOCAB_SIZE)])
    records["meta/head"] = np.array([0.0 if model.cfg.head == HEAD_DIFFUSION else 1.0])
    records["meta/step"] = np.array([float(step)])
    write_records(path, records)


def load_model(path: str) -> tuple[Model, int]:
    records = read_records(path)

    def require(names) -> None:
        # records are written whole and in name order, so a complete checkpoint
        # holds every expected name; a missing one means the file was cut short
        for name in names:
            if name not in records:
                raise CheckpointError(f"truncated checkpoint {path}: no record {name!r} "
                                      f"before the file ends at byte {os.path.getsize(path)}")

    require([f"meta/{f.name}" for f in _META_FIELDS] + ["meta/vocab", "meta/head", "meta/step"])
    n_vocab = int(records["meta/vocab"][0])
    if n_vocab != VOCAB_SIZE:
        raise CheckpointError(f"checkpoint {path} has a {n_vocab}-token vocabulary, this build's has {VOCAB_SIZE}")
    # each value is cast back to the type of its field's default (int or float)
    kwargs = {f.name: type(f.default)(records[f"meta/{f.name}"][0]) for f in _META_FIELDS}
    kwargs["head"] = HEAD_DIFFUSION if records["meta/head"][0] == 0.0 else HEAD_SIMILARITY
    model = build_model(ModelConfig(**kwargs), seed=0)
    store = model.store
    require(store.entries)
    for name, t in store.entries.items():
        if records[name].shape != t.data.shape:
            raise ValueError(f"shape mismatch for {name!r}")
        t.data = records[name]  # read_records returns fresh float64 arrays
        if f"opt/m/{name}" in records:
            store.opt_state[name] = {"m": records[f"opt/m/{name}"], "v": records[f"opt/v/{name}"],
                                     "t": int(records[f"opt/t/{name}"][0])}
    return model, int(records["meta/step"][0])
