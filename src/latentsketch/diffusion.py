"""Conditional diffusion latent decoder: DDPM noise schedule, stacked-MLP
epsilon predictor with sinusoidal timestep embeddings, an ancestral sampler
batched over rows with one generator each, the per-row noise-regression
training loss, and the batched latent step of block emission.

The sampler does not run the autodiff graph: it evaluates the epsilon net
through a numpy closure prepared once per call (``prepare_eps``), which
computes the condition and timestep columns of the first layer up front.

Variance-preserving convention throughout: the forward noising uses
sqrt(alpha_bar[t]) and sqrt(1 - alpha_bar[t]), and the reverse step is the
standard epsilon-parameterized update

    z_{t-1} = (z_t - (1 - alpha_t)/sqrt(1 - alpha_bar_t) * eps(z_t, t, c)) / sqrt(alpha_t)
              + sigma_t * xi

with sigma_t = sqrt(beta_t) for t > 1 and sigma_1 = 0 (last step noiseless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParamStore

T_EMBED_DIM = 32
EPS_NET = "diffusion_head/eps"  # parameter-name prefix of the epsilon network

# instrumented call counter, read as before/after deltas: the language-only
# generation mode must never touch this module
CALLS = {"sample_latent": 0, "denoise_step": 0}


@dataclass
class NoiseSchedule:
    """Per-timestep coefficients, 1-indexed; index 0 is the no-noise boundary."""

    t_steps: int
    beta: np.ndarray = field(repr=False)        # [T+1], beta[0] = 0
    alpha: np.ndarray = field(repr=False)       # 1 - beta
    alpha_bar: np.ndarray = field(repr=False)   # running product, alpha_bar[0] = 1
    sigma: np.ndarray = field(repr=False)       # sampler noise scale, sigma[1] = 0
    t_embed: np.ndarray = field(init=False, repr=False)  # [T+1, T_EMBED_DIM] sinusoidal table

    def __post_init__(self):
        b = self.beta[1:]
        if np.any(b <= 0.0) or np.any(np.diff(b) < 0.0):
            raise ValueError("beta must be strictly positive and non-decreasing")
        if np.any(np.diff(self.alpha_bar) >= 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if np.any(self.alpha_bar[1:] >= 1.0):
            raise ValueError("alpha_bar must stay below 1 for t >= 1")
        if self.sigma[1] != 0.0:
            raise ValueError("sigma[1] must be zero: the final denoise step is deterministic")
        self.t_embed = sinusoidal_table(self.t_steps)


def linear_schedule(t_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    beta = np.concatenate([[0.0], np.linspace(beta_start, beta_end, t_steps)])
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta)
    sigma[1] = 0.0
    return NoiseSchedule(t_steps, beta, alpha, alpha_bar, sigma)


# -- epsilon network -------------------------------------------------------------


def sinusoidal_table(t_steps: int) -> np.ndarray:
    """Fixed timestep embedding table [T+1, T_EMBED_DIM]."""
    t = np.arange(t_steps + 1, dtype=np.float64)[:, None]
    half = T_EMBED_DIM // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)[None, :]
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def init_epsilon_net(store: ParamStore, d: int, d_c: int, rng: np.random.Generator,
                     width: int | None = None) -> None:
    """Three GELU hidden layers of width 4d (overridable) over concat(z_t, t_embed, c)."""
    wid = 4 * d if width is None else width
    dims = [d + T_EMBED_DIM + d_c, wid, wid, wid]
    for i in range(3):
        store.add(f"{EPS_NET}/w{i}", rng.normal(0.0, 1.0 / np.sqrt(dims[i]), (dims[i], dims[i + 1])), "diffusion_head")
        store.add(f"{EPS_NET}/b{i}", np.zeros(dims[i + 1]), "diffusion_head")
    store.add(f"{EPS_NET}/w_out", rng.normal(0.0, 1.0 / np.sqrt(wid), (wid, d)), "diffusion_head")
    store.add(f"{EPS_NET}/b_out", np.zeros(d), "diffusion_head")


def eps_forward(store: ParamStore, sched: NoiseSchedule, z_t, t_idx: np.ndarray, c) -> Tensor:
    """Predict the injected noise from (z_t, t, c); rows are independent."""
    t_idx = np.atleast_1d(np.asarray(t_idx, dtype=np.int64))
    if t_idx.min() < 1 or t_idx.max() > sched.t_steps:
        raise ValueError(f"timestep outside [1, {sched.t_steps}]")
    x = ad.concat([ad.as_tensor(z_t), Tensor(sched.t_embed[t_idx]), ad.as_tensor(c)], axis=-1)
    for i in range(3):
        x = ad.gelu(ad.affine(x, store[f"{EPS_NET}/w{i}"], store[f"{EPS_NET}/b{i}"]))
    return ad.affine(x, store[f"{EPS_NET}/w_out"], store[f"{EPS_NET}/b_out"])


# -- forward noising and reverse sampling -----------------------------------------


def noisify(z: np.ndarray, t: int | np.ndarray, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """z_t = sqrt(alpha_bar_t) z + sqrt(1 - alpha_bar_t) eps (t = 0 allowed as identity)."""
    t = np.asarray(t, dtype=np.int64)
    if t.min() < 0 or t.max() > sched.t_steps:
        raise ValueError(f"timestep outside [0, {sched.t_steps}]")
    ab = sched.alpha_bar[t]
    if np.ndim(ab):
        ab = ab[:, None]
    return np.sqrt(ab) * z + np.sqrt(1.0 - ab) * eps


def denoise_step(z_t: np.ndarray, t: int, xi: np.ndarray, sched: NoiseSchedule,
                 eps_fn) -> np.ndarray:
    """One reverse step t -> t-1 of the rows z_t [n, d] with the noise
    predictor eps_fn(z, t), which holds its condition rows; xi [n, d] is
    injected for testability."""
    if not 1 <= t <= sched.t_steps:
        raise ValueError(f"timestep {t} outside [1, {sched.t_steps}]")
    CALLS["denoise_step"] += 1
    eps = eps_fn(z_t, np.full(z_t.shape[0], t, dtype=np.int64))
    coef = (1.0 - sched.alpha[t]) / np.sqrt(1.0 - sched.alpha_bar[t])
    return (z_t - coef * eps) / np.sqrt(sched.alpha[t]) + sched.sigma[t] * xi


def _gelu(x: np.ndarray) -> np.ndarray:
    return x * ad.normal_cdf(x)


def prepare_eps(store: ParamStore, sched: NoiseSchedule, c: np.ndarray):
    """The epsilon net at the condition rows c [n, d_c], as a no-grad numpy
    eps_fn(z, t) for denoise_step.

    Layer 0 of eps_forward, concat(z, t_embed[t], c) @ w0 + b0, is split by
    input columns: the condition part and the timestep part (with the bias,
    one row per t) are computed here once, so each call multiplies only the
    d z-columns.  Equals eps_forward to rounding, and raises
    FloatingPointError on a non-finite output as the autodiff ops do.
    """
    w = {name: store[f"{EPS_NET}/{name}"].data for name in ("w0", "b0", "w1", "b1", "w2", "b2", "w_out", "b_out")}
    d = w["b_out"].shape[0]
    w0_z, w0_t, w0_c = np.split(w["w0"], [d, d + T_EMBED_DIM])
    c_part = c @ w0_c
    t_part = sched.t_embed @ w0_t + w["b0"]

    def eps_fn(z: np.ndarray, t_idx: np.ndarray) -> np.ndarray:
        x = _gelu(z @ w0_z + c_part + t_part[t_idx])
        x = _gelu(x @ w["w1"] + w["b1"])
        x = _gelu(x @ w["w2"] + w["b2"])
        out = x @ w["w_out"] + w["b_out"]
        if not math.isfinite(out.sum()):
            raise FloatingPointError("non-finite values in the epsilon net")
        return out

    return eps_fn


def _normal_draws(rngs: list[np.random.Generator], steps: int, d: int) -> np.ndarray:
    """[steps, n, d] standard normals, row i's from rngs[i]: the numbers that
    one d-row per generator per step, in row order, would draw, taken in one
    (steps, rows, d) draw per distinct generator."""
    rows_of: dict[int, tuple[np.random.Generator, list[int]]] = {}
    for i, r in enumerate(rngs):
        rows_of.setdefault(id(r), (r, []))[1].append(i)
    out = np.empty((steps, len(rngs), d))
    for r, rows in rows_of.values():
        out[:, rows] = r.standard_normal((steps, len(rows), d))
    return out


def sample_latent(c: np.ndarray, store: ParamStore, sched: NoiseSchedule,
                  rngs: list[np.random.Generator]) -> np.ndarray:
    """Ancestral sampling with the store's epsilon net (through prepare_eps)
    from pure noise down to z^(0), one row [n, d] per condition row of c
    [n, d_c] and one generator per row: row i draws its z_T and each xi from
    rngs[i], in the order a one-row call draws them.  Deterministic given
    (c, rngs)."""
    CALLS["sample_latent"] += 1
    n = c.shape[0]
    if len(rngs) != n:
        raise ValueError(f"{len(rngs)} generators for {n} condition rows")
    d = store[f"{EPS_NET}/b_out"].data.shape[0]
    eps_fn = prepare_eps(store, sched, c)
    draws = iter(_normal_draws(rngs, 1 + int(np.sum(sched.sigma[1:] > 0.0)), d))
    z = next(draws)
    for t in range(sched.t_steps, 0, -1):
        xi = next(draws) if sched.sigma[t] > 0.0 else np.zeros((n, d))
        z = denoise_step(z, t, xi, sched, eps_fn)
    return z


# -- training loss and block emission ----------------------------------------------


def noise_regression(z_clean: np.ndarray, c, store: ParamStore, sched: NoiseSchedule,
                     rng: np.random.Generator | None,
                     draws: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Per-row noise-regression loss [n]: the mean over d of the squared residual
    eps_forward(z_t, t, c) - eps, with z_t = noisify(z_clean, t, eps).

    Each row draws t ~ Uniform{1..T}, then all rows draw eps ~ N(0, I), from rng;
    `draws` injects the (t, eps) pair instead.  Differentiable w.r.t. the net and c.
    """
    z_clean = np.atleast_2d(np.asarray(z_clean, dtype=np.float64))
    if draws is None:
        t = rng.integers(1, sched.t_steps + 1, size=z_clean.shape[0])
        eps = rng.standard_normal(z_clean.shape)
    else:
        t, eps = draws
    pred = eps_forward(store, sched, noisify(z_clean, t, eps, sched), t, c)
    resid = ad.sub(pred, Tensor(eps))
    return ad.mean_(ad.mul(resid, resid), axis=1)


def emit_block(h_last: np.ndarray, store: ParamStore, sched: NoiseSchedule,
               rngs: list[np.random.Generator], head: str) -> np.ndarray:
    """One batched latent step: the next latent row [n, d] of each of n streams
    inside a block, from their last hidden states h_last [n, d].

    Row i conditions on c = h_last[i] @ cond_w and is an ancestral sample at c
    drawn from rngs[i]; for the similarity head it is the projection of
    h_last[i].  The caller appends the rows, so the next step conditions on
    them.
    """
    if head == "similarity":
        return h_last @ store["diffusion_head/sim_w"].data + store["diffusion_head/sim_b"].data
    return sample_latent(h_last @ store["diffusion_head/cond_w"].data, store, sched, rngs)
