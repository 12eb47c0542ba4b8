"""Whole-model assembly: configuration, parameter initialization across the
three groups, and checkpoint save/load with self-describing metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import backbone as bb
from . import diffusion as df
from . import toyvision as tv
from .optim import (ParamStore, read_records, records_into_store, require_records,
                    store_to_records, write_records)
from .util import seeded_rng

HEAD_DIFFUSION = "diffusion"
HEAD_SIMILARITY = "similarity"


@dataclass
class ModelConfig(bb.BackboneConfig):
    """The backbone's fields, then the diffusion schedule and the latent head."""

    t_steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.28
    head: str = HEAD_DIFFUSION

    def schedule(self) -> df.NoiseSchedule:
        return df.linear_schedule(self.t_steps, self.beta_start, self.beta_end)


class Model:
    """Parameter store plus config and noise schedule; the unit that checkpoints."""

    def __init__(self, cfg: ModelConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store
        self.bcfg = cfg  # a ModelConfig is the backbone's config
        self.sched = cfg.schedule()

    @property
    def frozen_encoder(self) -> bool:
        return "vision_encoder" in self.store.frozen_groups


def build_model(cfg: ModelConfig, seed: int) -> Model:
    store = ParamStore()
    rng = seeded_rng(seed, "model-init")
    tv.init_encoder(store, cfg.d, rng)
    bb.init_backbone(store, cfg, rng)
    if cfg.head == HEAD_DIFFUSION:
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
    records = store_to_records(model.store, include_opt=include_opt)
    for f in _META_FIELDS:
        records[f"meta/{f.name}"] = np.array([float(getattr(model.cfg, f.name))])
    records["meta/head"] = np.array([0.0 if model.cfg.head == HEAD_DIFFUSION else 1.0])
    records["meta/step"] = np.array([float(step)])
    records["meta/frozen_encoder"] = np.array([1.0 if model.frozen_encoder else 0.0])
    write_records(path, records)


def load_model(path: str) -> tuple[Model, int]:
    records = read_records(path)
    require_records(path, records, [f"meta/{f.name}" for f in _META_FIELDS] + ["meta/head", "meta/step"])
    # each value is cast back to the type of its field's default (int or float)
    kwargs = {f.name: type(f.default)(records[f"meta/{f.name}"][0]) for f in _META_FIELDS}
    kwargs["head"] = HEAD_DIFFUSION if records["meta/head"][0] == 0.0 else HEAD_SIMILARITY
    cfg = ModelConfig(**kwargs)
    model = build_model(cfg, seed=0)
    require_records(path, records, model.store.entries)
    records_into_store(records, model.store)
    if records.get("meta/frozen_encoder", np.zeros(1))[0] == 1.0:
        model.store.freeze("vision_encoder")
    return model, int(records["meta/step"][0])
