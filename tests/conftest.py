import os

# One BLAS/OpenMP thread for the whole suite, set before numpy loads: timing
# tests (criterion 09) then do not depend on how busy the host's other cores
# are, and results match the single-thread benchmark processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from latentsketch import autodiff as ad  # noqa: E402
from latentsketch import toyvision as tv  # noqa: E402
from latentsketch.model import Model, ModelConfig, build_model  # noqa: E402


def use_cores(monkeypatch, n):
    """Let the program see n usable cores (a chunked decode forks up to n - 1
    children, SFT opens its helper thread at n >= 2); never more than 8, so
    that no test asks for many processes."""
    assert 1 <= n <= 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-relative disagreement; robust to near-zero entries."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def fd_grad(f, t: ad.Tensor, h: float = 1e-5, coords=None) -> np.ndarray:
    """Central finite differences of a scalar-valued f against tensor t.

    coords: optional flat indices to probe (full Jacobian otherwise).
    """
    if coords is None:
        coords = range(t.data.size)
    out = np.zeros(len(list(coords)) if not isinstance(coords, range) else t.data.size)
    vals = []
    for fi in coords:
        ix = np.unravel_index(fi, t.data.shape)
        orig = t.data[ix]
        t.data[ix] = orig + h
        lp = f().item()
        t.data[ix] = orig - h
        lm = f().item()
        t.data[ix] = orig
        vals.append((lp - lm) / (2.0 * h))
    return np.asarray(vals)


def gradcheck(f, tensors, h: float = 1e-5, tol: float = 1e-6, rng=None, max_coords: int = 24) -> float:
    """Compare autodiff grads of scalar f() against central differences.

    Returns the worst norm-relative error across the given tensors.
    """
    loss = f()
    for t in tensors:
        t.grad = None
    ad.backward(loss)
    # snapshot all analytic grads first; f() may reset them during FD probing
    probes = []
    for t in tensors:
        n = t.data.size
        if rng is not None and n > max_coords:
            coords = sorted(rng.choice(n, max_coords, replace=False).tolist())
        else:
            coords = list(range(n))
        an = np.array([t.grad[np.unravel_index(i, t.data.shape)] for i in coords])
        probes.append((t, coords, an))
    worst = 0.0
    for t, coords, an in probes:
        fd = fd_grad(f, t, h, coords)
        err = rel_error(fd, an)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} on tensor of shape {t.data.shape}"
    return worst


def strip_images(trace: tv.AnnotatedTrace) -> tv.AnnotatedTrace:
    """The trace with its step texts and without its intermediate images: the
    latent-free traces that a data.file may hold."""
    steps = [tv.TraceStep(text=list(s.text), image=None) for s in trace.steps]
    return tv.AnnotatedTrace(trace.input_image, list(trace.question), steps, list(trace.answer),
                             trace.task_id, trace.seed)


@pytest.fixture()
def tiny_model() -> Model:
    """1-layer, d=8 model with a pre-passed encoder; cheap per-test."""
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=160, k_latent=2, t_steps=5), seed=3)
    tv.pretrain_encoder(m.store, 3, 1e-2, seed=3)
    return m


@pytest.fixture()
def small_model() -> Model:
    """2-layer, d=16 model with a pre-passed encoder."""
    m = build_model(ModelConfig(layers=2, heads=2, d=16, max_len=192, k_latent=2, t_steps=8), seed=5)
    tv.pretrain_encoder(m.store, 3, 1e-2, seed=5)
    return m
