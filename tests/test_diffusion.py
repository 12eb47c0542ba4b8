import numpy as np
import pytest

from latentsketch import autodiff as ad
from latentsketch import backbone as bb
from latentsketch import diffusion as df
from latentsketch import inference as inf
from latentsketch import sequence as sq
from latentsketch import toyvision as tv
from latentsketch import vocab
from latentsketch.model import ModelConfig, build_model
from latentsketch.optim import ParamStore
from latentsketch.util import seeded_rng

from conftest import gradcheck


def make_net(d=4, d_c=4, seed=0):
    store = ParamStore()
    df.init_epsilon_net(store, d, d_c, seeded_rng(seed, "eps"))
    return store


def zero_net(store):
    for name in store.entries:
        store[name].data[:] = 0.0


ZERO_EPS = lambda z, t: np.zeros_like(z)


# -- schedule -------------------------------------------------------------------


def test_linear_schedule_identities():
    sched = ModelConfig(t_steps=50).schedule()
    assert sched.alpha_bar[0] == 1.0
    assert np.array_equal(sched.alpha_bar, np.cumprod(sched.alpha))
    assert sched.sigma[1] == 0.0
    assert np.all(np.diff(sched.beta[1:]) >= 0.0)
    assert np.all(np.diff(sched.alpha_bar) < 0.0)
    assert np.array_equal(sched.t_embed, df.sinusoidal_table(50))


def test_schedule_invariant_violations_raise():
    with pytest.raises(ValueError):
        df.NoiseSchedule(2, np.array([0.0, 0.2, 0.1]), np.array([1.0, 0.8, 0.9]),
                         np.array([1.0, 0.8, 0.72]), np.array([0.0, 0.0, 0.1]))
    sched = ModelConfig(t_steps=5).schedule()
    bad_sigma = sched.sigma.copy()
    bad_sigma[1] = 0.5
    with pytest.raises(ValueError):
        df.NoiseSchedule(5, sched.beta, sched.alpha, sched.alpha_bar, bad_sigma)


# -- noisify ---------------------------------------------------------------------


def test_noisify_boundary_t0_identity():
    sched = ModelConfig(t_steps=10).schedule()
    z = np.array([1.5, -2.0])
    eps = np.array([0.3, 0.7])
    assert np.array_equal(df.noisify(z, 0, eps, sched), z)


def test_noisify_zero_eps_pure_scaling():
    sched = ModelConfig(t_steps=10).schedule()
    z = np.array([2.0, 4.0])
    out = df.noisify(z, 7, np.zeros(2), sched)
    assert np.allclose(out, np.sqrt(sched.alpha_bar[7]) * z, atol=0)


def test_noisify_hand_example_quarter_alpha_bar():
    # custom one-step schedule with alpha_bar[1] = 0.25
    sched = df.NoiseSchedule(1, np.array([0.0, 0.75]), np.array([1.0, 0.25]),
                             np.array([1.0, 0.25]), np.array([0.0, 0.0]))
    out = df.noisify(np.array([1.0, 0.0]), 1, np.array([0.0, 1.0]), sched)
    assert np.allclose(out, [0.5, np.sqrt(0.75)], atol=1e-15)


def test_noisify_range_check():
    sched = ModelConfig(t_steps=5).schedule()
    with pytest.raises(ValueError):
        df.noisify(np.zeros(2), 6, np.zeros(2), sched)


# -- denoise_step -----------------------------------------------------------------


def test_denoise_zero_predictor_closed_form():
    sched = ModelConfig(t_steps=10).schedule()
    z = np.array([[1.0, -3.0]])
    out = df.denoise_step(z, 5, np.zeros((1, 2)), sched, eps_fn=ZERO_EPS)
    assert np.allclose(out, z / np.sqrt(sched.alpha[5]), atol=1e-15)


def test_denoise_vanishing_noise_limit():
    beta = np.array([0.0, 1e-12])
    sched = df.NoiseSchedule(1, beta, 1.0 - beta, np.cumprod(1.0 - beta),
                             np.array([0.0, 0.0]))
    z = np.array([[0.7, -0.2]])
    out = df.denoise_step(z, 1, np.zeros((1, 2)), sched, eps_fn=ZERO_EPS)
    assert np.max(np.abs(out - z)) < 1e-9


def test_denoise_t_range():
    sched = ModelConfig(t_steps=5).schedule()
    with pytest.raises(ValueError):
        df.denoise_step(np.zeros((1, 2)), 0, np.zeros((1, 2)), sched, eps_fn=ZERO_EPS)


def test_denoise_posterior_mean_monte_carlo():
    """T=1 reverse pass with the analytic optimal predictor recovers the source
    mean within 3 standard errors over 10,000 samples."""
    sched = df.NoiseSchedule(1, np.array([0.0, 0.6]), np.array([1.0, 0.4]),
                             np.array([1.0, 0.4]), np.array([0.0, 0.0]))
    mu0, s0 = 1.7, 0.8
    ab = sched.alpha_bar[1]
    rng = seeded_rng(42, "mc")
    n = 10_000
    z0 = rng.normal(mu0, s0, size=(n, 1))
    eps = rng.standard_normal((n, 1))
    z1 = df.noisify(z0, np.ones(n, dtype=int), eps, sched)

    def optimal_eps(z, t):
        post_mean = (np.sqrt(ab) * s0 ** 2 * z + (1 - ab) * mu0) / (ab * s0 ** 2 + (1 - ab))
        return (z - np.sqrt(ab) * post_mean) / np.sqrt(1.0 - ab)

    out = df.denoise_step(z1, 1, np.zeros((n, 1)), sched, eps_fn=optimal_eps)
    se = out.std() / np.sqrt(n)
    assert abs(out.mean() - mu0) < 3 * se + 1e-12


def test_noisify_denoise_algebraic_round_trip():
    """With the analytically optimal predictor substituted, one denoise step at
    fixed t reproduces the posterior-mean coefficients to 1e-9."""
    sched = ModelConfig(t_steps=20).schedule()
    rng = seeded_rng(3, "rt")
    z = rng.normal(size=(1, 4))
    eps = rng.standard_normal((1, 4))
    for t in (1, 7, 20):
        z_t = df.noisify(z, t, eps, sched)
        ab_t, ab_prev = sched.alpha_bar[t], sched.alpha_bar[t - 1]
        alpha_t = sched.alpha[t]
        eps_hat = (z_t - np.sqrt(ab_t) * z) / np.sqrt(1.0 - ab_t)
        assert np.max(np.abs(eps_hat - eps)) < 1e-9  # predictor recovers the injected noise
        out = df.denoise_step(z_t, t, np.zeros((1, 4)), sched, eps_fn=lambda zz, tt: eps_hat)
        want = (np.sqrt(alpha_t) * (1 - ab_prev) / (1 - ab_t)) * z_t \
             + (np.sqrt(ab_prev) * (1 - alpha_t) / (1 - ab_t)) * z
        assert np.max(np.abs(out - want)) < 1e-9


# -- sample_latent -----------------------------------------------------------------


def test_sample_latent_deterministic_and_shaped():
    store = make_net()
    sched = ModelConfig(t_steps=8).schedule()
    c = np.array([[0.2, -0.1, 0.4, 0.0]])
    a = df.sample_latent(c, store, sched, [seeded_rng(5, "s")])
    b = df.sample_latent(c, store, sched, [seeded_rng(5, "s")])
    assert a.shape == (1, 4)
    assert np.array_equal(a, b)
    c2 = df.sample_latent(c, store, sched, [seeded_rng(6, "s")])
    assert not np.array_equal(a, c2)


def test_sample_latent_zero_net_variance_closed_form():
    """Zero predictor: the sampler is linear-Gaussian, variance follows the
    recursion v_{t-1} = v_t / alpha_t + sigma_t^2 from v_T = 1."""
    sched = ModelConfig(t_steps=10).schedule()
    v = 1.0
    for t in range(10, 0, -1):
        v = v / sched.alpha[t] + sched.sigma[t] ** 2
    store = make_net(d=2, d_c=2)
    # a zero output layer makes the predictor exactly 0
    store["diffusion_head/eps/w_out"].data[:] = 0.0
    store["diffusion_head/eps/b_out"].data[:] = 0.0
    rng = seeded_rng(11, "var")
    n = 10_000
    zs = df.sample_latent(np.zeros((n, 2)), store, sched, [rng] * n)
    emp = zs.var(axis=0)
    assert abs(zs.mean()) < 0.05
    assert np.all(np.abs(emp - v) / v < 0.10)


def test_sample_latent_rows_draw_from_their_own_generators():
    """Row i of a batched call equals a one-row call with rngs[i].  Callers
    that share one generator across rows ([rng] * n) draw what a single (n, d)
    draw would, so their numbers do not change."""
    store = make_net()
    sched = ModelConfig(t_steps=6).schedule()
    c = seeded_rng(7, "rows").normal(size=(3, 4))
    got = df.sample_latent(c, store, sched, [seeded_rng(7, "row", i) for i in range(3)])
    for i in range(3):
        [want] = df.sample_latent(c[i : i + 1], store, sched, [seeded_rng(7, "row", i)])
        assert np.max(np.abs(got[i] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    a, b = seeded_rng(8, "n"), seeded_rng(8, "n")
    assert np.array_equal(a.standard_normal((5, 4)), np.stack([b.standard_normal(4) for _ in range(5)]))
    with pytest.raises(ValueError, match="generators"):
        df.sample_latent(c, store, sched, [a, b])


def test_prepared_eps_equals_eps_forward_at_every_t():
    store = make_net(d=4, d_c=5, seed=3)
    sched = ModelConfig(t_steps=12).schedule()
    rng = seeded_rng(9, "prep")
    c = rng.normal(size=(7, 5))
    eps_fn = df.prepare_eps(store, sched, c)
    for t in range(1, sched.t_steps + 1):
        z = rng.normal(size=(7, 4)) * 3.0
        tt = np.full(7, t)
        with ad.no_grad():
            want = df.eps_forward(store, sched, z, tt, c).data
        got = eps_fn(z, tt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sample_latent_shared_generators_draw_in_row_order():
    """Generators shared across rows as [a, b, a, e, b, a, e]: the rows equal,
    bitwise, a reference loop that draws z_T and then each step's xi one row
    at a time, in row order, and takes the same prepared net on the whole batch."""
    store = make_net()
    sched = ModelConfig(t_steps=6).schedule()
    c = seeded_rng(12, "shared").normal(size=(7, 4))
    layout = "abaebae"

    def rngs():
        gens = {k: seeded_rng(12, "gen", k) for k in "abe"}
        return [gens[k] for k in layout]

    net = df.prepare_eps(store, sched, c)
    ref = rngs()
    z = np.stack([r.standard_normal(4) for r in ref])
    for t in range(sched.t_steps, 0, -1):
        xi = np.stack([r.standard_normal(4) for r in ref]) if sched.sigma[t] > 0.0 else np.zeros((7, 4))
        z = df.denoise_step(z, t, xi, sched, net)
    got = df.sample_latent(c, store, sched, rngs())
    assert np.array_equal(got, z)


def test_sample_latent_nan_condition_raises():
    store = make_net()
    sched = ModelConfig(t_steps=4).schedule()
    c = np.zeros((3, 4))
    c[1, 2] = np.nan
    with pytest.raises(FloatingPointError):
        df.sample_latent(c, store, sched, [seeded_rng(0, "nan", i) for i in range(3)])


def test_sampler_call_counter():
    store = make_net()
    sched = ModelConfig(t_steps=4).schedule()
    before = dict(df.CALLS)
    df.sample_latent(np.zeros((1, 4)), store, sched, [seeded_rng(0, "c")])
    assert df.CALLS["sample_latent"] - before["sample_latent"] == 1
    assert df.CALLS["denoise_step"] - before["denoise_step"] == 4


# -- noise_regression --------------------------------------------------------------


def test_loss_zero_for_oracle_net():
    sched = ModelConfig(t_steps=6).schedule()
    rng = seeded_rng(1, "dl")
    z = rng.normal(size=(3, 4))
    t = np.array([2, 4, 6])
    eps = rng.standard_normal((3, 4))

    class OracleStore:
        pass

    # a net that returns the injected eps gives exactly zero loss; emulate by
    # monkeypatching eps_forward through a tiny store whose output we control
    store = make_net()
    import latentsketch.diffusion as dfm
    orig = dfm.eps_forward
    try:
        dfm.eps_forward = lambda *a, **k: ad.Tensor(eps)
        rows = df.noise_regression(z, np.zeros((3, 4)), store, sched, rng, draws=(t, eps))
    finally:
        dfm.eps_forward = orig
    assert rows.shape == (3,)
    assert np.all(rows.data == 0.0)


def test_loss_zero_net_expectation_near_one():
    """Identically-zero predictor: expected loss is Var(eps) = 1 per scalar."""
    store = make_net()
    zero_net(store)
    sched = ModelConfig(t_steps=10).schedule()
    rng = seeded_rng(2, "mc1")
    z = rng.normal(size=(10_000, 4)) * 0.5
    loss = ad.mean_(df.noise_regression(z, np.zeros((10_000, 4)), store, sched, rng))
    assert abs(loss.item() - 1.0) < 0.05


def test_loss_gradient_wrt_condition_matches_fd():
    store = make_net()
    sched = ModelConfig(t_steps=6).schedule()
    rng = seeded_rng(3, "fd")
    z = rng.normal(size=(2, 4))
    draws = (np.array([2, 5]), rng.standard_normal((2, 4)))
    c = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    gradcheck(lambda: ad.mean_(df.noise_regression(z, c, store, sched, None, draws=draws)),
              [c], tol=1e-5)


def test_loss_row_permutation_invariant_with_matched_draws():
    store = make_net()
    sched = ModelConfig(t_steps=6).schedule()
    rng = seeded_rng(4, "perm")
    z = rng.normal(size=(4, 4))
    c = rng.normal(size=(4, 4))
    t = np.array([1, 3, 5, 6])
    eps = rng.standard_normal((4, 4))
    base = df.noise_regression(z, c, store, sched, None, draws=(t, eps)).data
    perm = np.array([2, 0, 3, 1])
    permuted = df.noise_regression(z[perm], c[perm], store, sched, None,
                                   draws=(t[perm], eps[perm])).data
    assert np.max(np.abs(base[perm] - permuted)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_noise_regression_grads(seed):
    """Gradients of a weighted sum of the per-row losses, as joint_loss takes,
    w.r.t. the conditions and the net match central differences."""
    store = make_net(seed=seed)
    sched = ModelConfig(t_steps=6).schedule()
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 4))
    draws = (rng.integers(1, 7, size=3), rng.standard_normal((3, 4)))
    c = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.random(3))
    gradcheck(lambda: ad.sum_(ad.mul(df.noise_regression(z, c, store, sched, None, draws=draws), w)),
              [c, store[f"{df.EPS_NET}/w_out"], store[f"{df.EPS_NET}/b0"]], tol=1e-5, rng=rng)


def test_noise_regression_rows_value():
    """Row i is the mean over d of (eps_net(z_t, t, c) - eps)^2 at
    z_t = sqrt(ab_t) z + sqrt(1 - ab_t) eps, and rng draws t, then eps."""
    store = make_net(seed=4)
    sched = ModelConfig(t_steps=6).schedule()
    z = seeded_rng(5, "val").normal(size=(5, 4))
    c = seeded_rng(6, "val").normal(size=(5, 4))
    rows = df.noise_regression(z, c, store, sched, seeded_rng(7, "val"))
    r = seeded_rng(7, "val")
    t = r.integers(1, sched.t_steps + 1, size=5)
    eps = r.standard_normal((5, 4))
    ab = sched.alpha_bar[t][:, None]
    with ad.no_grad():
        pred = df.eps_forward(store, sched, np.sqrt(ab) * z + np.sqrt(1.0 - ab) * eps, t, c).data
    want = ((pred - eps) ** 2).mean(axis=1)
    assert rows.shape == (5,)
    assert np.max(np.abs(rows.data - want)) <= 1e-12 * np.max(want)


# -- emit_block --------------------------------------------------------------------


@pytest.fixture()
def block_model():
    m = build_model(ModelConfig(layers=1, heads=2, d=8, max_len=64, k_latent=3, t_steps=4), seed=21)
    tv.pretrain_encoder(m.store, 2, 1e-2, seed=21)
    return m


def start_biased(model, bias=50.0):
    model.store["backbone/lm_head/b"].data[vocab.START_ID] = bias
    return model


def one_block(model, rng):
    """Greedy decode with a budget of exactly one block: START, K rows, END."""
    prompt = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.text(30)])
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=model.cfg.k_latent + 2, temperature=0.0)
    res = inf.generate(prompt, model, cfg, rng)
    rows = [it.value for it in res.seq.items if it.kind == sq.LATENT]
    assert len(rows) == model.cfg.k_latent and res.seq.items[-1].value == sq.END
    return np.array(rows)


def test_emit_block_counts_and_determinism(block_model):
    m = start_biased(block_model)
    before = dict(df.CALLS)
    rows = one_block(m, seeded_rng(1, "e"))
    assert rows.shape == (3, 8)
    assert df.CALLS["sample_latent"] - before["sample_latent"] == 3
    assert np.array_equal(rows, one_block(m, seeded_rng(1, "e")))
    assert not np.array_equal(rows, one_block(m, seeded_rng(2, "e")))


def test_emit_block_feedback_changes_conditions(block_model, monkeypatch):
    """Inside generate_group, each latent row of each stream is sampled from
    the last hidden state of a cache-free forward over that stream's prefix,
    the rows already emitted included, so successive conditions differ."""
    m = start_biased(block_model, 2.0)
    calls = []
    real = df.emit_block

    def spy(h_last, *args, **kwargs):
        rows = real(h_last, *args, **kwargs)
        calls.append((h_last.copy(), rows))
        return rows

    monkeypatch.setattr(df, "emit_block", spy)
    prompt = sq.MixedSequence([sq.MixedItem.ctrl(sq.BOS), sq.MixedItem.text(30)])
    cfg = inf.GenerationConfig(mode="mixed", max_new_items=14, temperature=1.0)
    group = inf.generate_group([prompt] * 3, m, cfg, [seeded_rng(3, "fb", g) for g in range(3)])
    # the prompt holds no latent rows, so each emitted row is found by its value
    emitted = {it.value.tobytes(): (g, n) for g, res in enumerate(group)
               for n, it in enumerate(res.seq.items) if it.kind == sq.LATENT}
    cond_w = m.store["diffusion_head/cond_w"].data
    by_pos = {}
    for h_last, rows in calls:
        assert h_last.shape == rows.shape == (len(rows), m.cfg.d)
        for h, row in zip(h_last, rows):
            g, n = emitted[row.tobytes()]
            ids, text_mask, latents = sq.to_arrays(sq.MixedSequence(group[g].seq.items[:n]), m.cfg.d)
            with ad.no_grad():
                hidden, _, _ = bb.forward_batch(m.store, m.cfg, ids[None], text_mask[None], latents[None])
            want = hidden.data[0, -1]
            assert np.max(np.abs(h - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            by_pos[g, n] = h @ cond_w
    assert len(by_pos) == len(emitted)
    streams = {g for g, _ in by_pos}
    assert len(streams) >= 2
    pairs = [(c, by_pos[g, n + 1]) for (g, n), c in by_pos.items() if (g, n + 1) in by_pos]
    assert len(pairs) >= 2 * len(streams)
    for c0, c1 in pairs:
        assert not np.allclose(c0, c1)


def test_emit_block_k1_single_calls():
    m = start_biased(build_model(ModelConfig(layers=1, heads=2, d=8, max_len=32, k_latent=1,
                                             t_steps=3), seed=22))
    before = dict(df.CALLS)
    rows = one_block(m, seeded_rng(0, "k1"))
    assert rows.shape == (1, 8)
    assert df.CALLS["sample_latent"] - before["sample_latent"] == 1


def test_sinusoidal_table_shape_and_range():
    tab = df.sinusoidal_table(50)
    assert tab.shape == (51, df.T_EMBED_DIM)
    assert np.all(np.abs(tab) <= 1.0)
    assert not np.array_equal(tab[1], tab[2])
