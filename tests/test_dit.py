import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from thzgen.dataset import Dataset, DatasetHeader
from thzgen.dit import (
    ROWS,
    DitConfig,
    DitDenoiser,
    adaln,
    dgelu,
    gelu,
    init_params,
    layer_norm,
    patchify,
    positional_table,
    unpatchify,
)
from thzgen.errors import NumericError
from thzgen.training import evaluate_loss


def small_config(**overrides):
    defaults = dict(
        n_rx=8, n_tx=8, patch_size=4, embed_dim=8, depth=1, n_heads=2, mlp_ratio=2
    )
    defaults.update(overrides)
    return DitConfig(**defaults)


def randomized_denoiser(config, seed=0):
    """Denoiser with every parameter tensor non-zero so all gradients flow."""
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    for name in params:
        params[name] = rng.normal(0.0, 0.05, size=params[name].shape)
    return DitDenoiser(config, params=params)


# -- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="patch size"):
        DitConfig(n_rx=6, n_tx=16)
    with pytest.raises(ValueError, match="heads"):
        DitConfig(n_rx=8, n_tx=16, embed_dim=64, n_heads=5)
    with pytest.raises(ValueError, match="divisible by 4"):
        DitConfig(n_rx=8, n_tx=16, embed_dim=6, n_heads=2)


def test_config_derived_sizes():
    cfg = DitConfig(n_rx=8, n_tx=16, patch_size=4, embed_dim=64, n_heads=4)
    assert cfg.grid == (2, 4)
    assert cfg.n_tokens == 8
    assert cfg.patch_dim == 32
    assert cfg.head_dim == 16


# -- tokenization -----------------------------------------------------------

def test_patchify_shapes():
    x = np.arange(2 * 8 * 16, dtype=float).reshape(2, 8, 16)
    patches = patchify(x, 4)
    assert patches.shape == (8, 32)
    batched = patchify(np.stack([x, x]), 4)
    assert batched.shape == (2, 8, 32)
    np.testing.assert_array_equal(batched[0], patches)


def test_patchify_ordering():
    # First token is the top-left patch, flattened as (channel, row, col).
    x = np.random.default_rng(0).normal(size=(2, 8, 16))
    patches = patchify(x, 4)
    np.testing.assert_array_equal(patches[0], x[:, :4, :4].ravel())
    np.testing.assert_array_equal(patches[1], x[:, :4, 4:8].ravel())
    np.testing.assert_array_equal(patches[4], x[:, 4:, :4].ravel())


def test_patchify_round_trip():
    x = np.random.default_rng(1).normal(size=(3, 2, 8, 16))
    np.testing.assert_array_equal(unpatchify(patchify(x, 4), 4, 8, 16), x)
    np.testing.assert_array_equal(unpatchify(patchify(x, 2), 2, 8, 16), x)


def test_patchify_rejects_indivisible():
    with pytest.raises(ValueError):
        patchify(np.zeros((2, 9, 16)), 4)


# -- positional table and embeddings ----------------------------------------

def test_positional_table_properties():
    tab = positional_table((4, 8), 64)
    assert tab.shape == (32, 64)
    assert np.abs(tab).max() <= 1.0
    # Distinct grid cells get distinct rows.
    assert len({tuple(np.round(row, 12)) for row in tab}) == 32
    np.testing.assert_array_equal(tab, positional_table((4, 8), 64))
    with pytest.raises(ValueError):
        positional_table((2, 2), 6)


def test_timestep_embedding():
    den = DitDenoiser(small_config())
    e = den.embed_timestep([0.1, 1.0, 5.0])
    assert e.shape == (3, 8)
    assert not np.allclose(e[0], e[1])
    with pytest.raises(ValueError):
        den.embed_timestep([0.5, -1.0])
    with pytest.raises(ValueError):
        den.embed_timestep(0.0)


def test_condition_embedding():
    den = DitDenoiser(small_config())
    cond = np.random.default_rng(2).normal(size=(3, 8))
    e = den.embed_condition(cond)
    assert e.shape == (3, 8)
    assert not np.allclose(e[0], e[1])
    with pytest.raises(ValueError):
        den.embed_condition(np.full(8, np.nan))


# -- normalization ----------------------------------------------------------

def test_layer_norm_statistics():
    x = np.random.default_rng(3).normal(2.0, 5.0, size=(4, 6, 32))
    out, _ = layer_norm(x)
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)


def test_adaln_zero_map_is_layer_norm():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 16))
    c = rng.normal(size=(2, 16))
    out = adaln(x, c, np.zeros((16, 32)), np.zeros(32))
    np.testing.assert_array_equal(out, layer_norm(x)[0])


# -- attention internals ----------------------------------------------------

def test_attention_rows_sum_to_one():
    cfg = small_config()
    den = randomized_denoiser(cfg)
    tok = np.random.default_rng(5).normal(size=(2, cfg.n_tokens, cfg.embed_dim))
    sc = np.random.default_rng(6).normal(size=(2, cfg.embed_dim))
    _, cache = den._block_forward(tok, sc, 0)
    np.testing.assert_allclose(cache["attn"].sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(cache["attn"] >= 0)


def test_block_token_permutation_equivariance():
    cfg = small_config()
    den = randomized_denoiser(cfg, seed=1)
    rng = np.random.default_rng(7)
    tok = rng.normal(size=(1, cfg.n_tokens, cfg.embed_dim))
    sc = rng.normal(size=(1, cfg.embed_dim))
    perm = rng.permutation(cfg.n_tokens)
    out, _ = den._block_forward(tok, sc, 0)
    out_p, _ = den._block_forward(tok[:, perm], sc, 0)
    np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)


# -- preconditioning and forward --------------------------------------------

def test_identity_at_init():
    # Zero-initialized head and modulation maps make the network residual
    # vanish, so the denoiser is exactly the skip term at initialization.
    cfg = small_config(depth=2)
    den = DitDenoiser(cfg, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    h = rng.normal(size=(3, 2, 8, 8))
    cond = rng.normal(size=(3, 8))
    for sigma in (0.05, 1.0, 7.0):
        out, _ = den.forward(h, np.full(3, sigma), cond)
        np.testing.assert_allclose(out, h / (1.0 + sigma**2), rtol=1e-15, atol=0)


def test_small_sigma_returns_input():
    den = randomized_denoiser(small_config())
    rng = np.random.default_rng(10)
    h = rng.normal(size=(2, 8, 8))
    out = den.evaluate(h, 1e-6, rng.normal(size=8))
    np.testing.assert_allclose(out, h, atol=1e-4)


def test_large_sigma_suppresses_skip():
    den = randomized_denoiser(small_config())
    rng = np.random.default_rng(11)
    h = rng.normal(size=(2, 8, 8)) * 1e3
    out = den.evaluate(h, 1e3, rng.normal(size=8))
    # c_skip ~ 1e-6: the skip contribution of a unit-scale clean signal
    # hidden inside h is negligible next to the network term.
    assert np.abs(out).max() < np.abs(h).max() * 0.1


def test_forward_rejects_nonpositive_sigma():
    den = DitDenoiser(small_config())
    with pytest.raises(ValueError):
        den.forward(np.zeros((1, 2, 8, 8)), np.array([0.0]), np.zeros((1, 8)))


def test_evaluate_single_matches_batch():
    den = randomized_denoiser(small_config(depth=2))
    rng = np.random.default_rng(12)
    h = rng.normal(size=(4, 2, 8, 8))
    cond = rng.normal(size=(4, 8))
    batch = den.evaluate(h, np.full(4, 0.7), cond)
    for i in range(4):
        np.testing.assert_allclose(den.evaluate(h[i], 0.7, cond[i]), batch[i], atol=1e-12)
    assert den.evaluate(h[0], 0.7, cond[0]).shape == (2, 8, 8)


# -- gradients --------------------------------------------------------------

def fd_check(den, names_and_indices, rel_tol=1e-5):
    rng = np.random.default_rng(13)
    cfg = den.config
    h0 = rng.normal(size=(2, 2, cfg.n_rx, cfg.n_tx))
    cond = rng.normal(size=(2, cfg.condition_dim))
    sigmas = np.array([0.3, 2.0])
    noise = rng.normal(size=h0.shape)
    _, grads = den.loss_and_grads(h0, cond, sigmas, noise)
    eps = 1e-6
    for name, idx in names_and_indices:
        base = den.params[name][idx]
        den.params[name][idx] = base + eps
        lp, _ = den.loss_and_grads(h0, cond, sigmas, noise)
        den.params[name][idx] = base - eps
        lm, _ = den.loss_and_grads(h0, cond, sigmas, noise)
        den.params[name][idx] = base
        fd = (lp - lm) / (2 * eps)
        scale = max(abs(fd), abs(grads[name][idx]))
        # Absolute floor covers entries whose gradient is at the level of the
        # finite-difference roundoff noise (~1e-16 / eps).
        assert abs(grads[name][idx] - fd) < rel_tol * scale + 5e-10, name


def test_gradients_match_finite_differences():
    den = randomized_denoiser(small_config(), seed=2)
    fd_check(
        den,
        [
            ("patch.w", (3, 1)), ("patch.b", (0,)),
            ("t_mlp.w1", (2, 4)), ("t_mlp.b2", (5,)),
            ("p_mlp.w1", (1, 3)), ("p_mlp.w2", (0, 2)),
            ("block0.mod.w", (4, 7)), ("block0.mod.b", (20,)),
            ("block0.qkv.w", (2, 9)), ("block0.qkv.b", (15,)),
            ("block0.proj.w", (6, 1)), ("block0.proj.b", (4,)),
            ("block0.fc1.w", (3, 10)), ("block0.fc2.w", (12, 2)),
            ("final.mod.w", (5, 11)), ("final.mod.b", (3,)),
            ("head.w", (7, 8)), ("head.b", (30,)),
        ],
    )


def test_gradients_second_block():
    den = randomized_denoiser(small_config(depth=2), seed=3)
    fd_check(den, [("block1.qkv.w", (0, 5)), ("block1.fc1.b", (7,)),
                   ("block1.mod.w", (2, 33))])


def test_zero_loss_gives_zero_gradients():
    cfg = small_config()
    den = DitDenoiser(cfg, rng=np.random.default_rng(14))
    h0 = np.zeros((2, 2, 8, 8))
    loss, grads = den.loss_and_grads(
        h0, np.zeros((2, 8)), np.array([0.5, 1.5]), np.zeros_like(h0)
    )
    assert loss == 0.0
    for name, g in grads.items():
        np.testing.assert_array_equal(g, 0.0, err_msg=name)


# -- GELU -------------------------------------------------------------------

def test_gelu_returns_the_erf_factor_dgelu_reuses():
    x = np.random.default_rng(15).normal(0.0, 3.0, size=(4, 5, 16))
    act, e = gelu(x)
    np.testing.assert_array_equal(act, 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))))
    np.testing.assert_array_equal(e, 1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_array_equal(
        dgelu(x, e),
        0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        + x * np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi),
    )
    step = 1e-6
    fd = (gelu(x + step)[0] - gelu(x - step)[0]) / (2 * step)
    np.testing.assert_allclose(dgelu(x, e), fd, atol=1e-8)


# -- cache-free inference ---------------------------------------------------

def slice_samples(cfg):
    """Samples per denoise slice, as DitDenoiser.denoise sizes it."""
    return max(2, ROWS // cfg.n_tokens)


@pytest.mark.parametrize("patch_size", [2, 4])
def test_denoise_and_evaluate_equal_forward_exactly(patch_size):
    cfg = small_config(patch_size=patch_size, depth=2)
    den = randomized_denoiser(cfg, seed=4)
    s = slice_samples(cfg)
    rng = np.random.default_rng(16)
    for b in (1, s - 1, s, s + 1, 3 * s + 5):
        h = rng.normal(size=(b, 2, cfg.n_rx, cfg.n_tx))
        cond = rng.normal(size=(b, cfg.condition_dim))
        sigma = np.exp(rng.uniform(-4.0, 2.0, size=b))
        ref, _ = den.forward(h, sigma, cond)
        np.testing.assert_array_equal(den.denoise(h, sigma, cond), ref, err_msg=str(b))
        np.testing.assert_array_equal(den.evaluate(h, sigma, cond), ref, err_msg=str(b))
        # Scalar sigma and one condition vector shared by the whole batch.
        ref, _ = den.forward(h, np.full(b, 0.8), np.tile(cond[0], (b, 1)))
        np.testing.assert_array_equal(den.evaluate(h, 0.8, cond[0]), ref, err_msg=str(b))
    np.testing.assert_array_equal(den.evaluate(h[0], 0.8, cond[0]), ref[0])


def test_evaluate_loss_matches_forward_reference():
    cfg = small_config(patch_size=2)
    den = randomized_denoiser(cfg, seed=5)
    rng = np.random.default_rng(17)
    n = 70  # one full chunk of 64 and a short one
    header = DatasetHeader(n_rx=cfg.n_rx, n_tx=cfg.n_tx, k_rx=1, k_tx=1, sample_count=n)
    ds = Dataset(header=header, conditions=rng.normal(size=(n, 8)),
                 tensors=rng.normal(size=(n, 2, cfg.n_rx, cfg.n_tx)))
    sigmas = np.exp(rng.uniform(-4.0, 2.0, size=n))
    noise = rng.normal(size=ds.tensors.shape)
    total = 0.0
    for start in range(0, n, 64):
        sl = slice(start, start + 64)
        h0 = ds.tensors[sl]
        out, _ = den.forward(h0 + sigmas[sl, None, None, None] * noise[sl],
                             sigmas[sl], ds.conditions[sl])
        total += float(np.sum((out - h0) ** 2) / h0[0].size)
    assert evaluate_loss(den, ds, sigmas, noise) == total / n


def test_non_finite_output_names_samples_and_sigma():
    cfg = small_config(patch_size=2)
    den = randomized_denoiser(cfg, seed=6)
    s = slice_samples(cfg)
    rng = np.random.default_rng(18)
    b = 3 * s
    h = rng.normal(size=(b, 2, cfg.n_rx, cfg.n_tx))
    h[s + 2] = np.inf
    sigma = np.linspace(0.5, 2.0, b)
    cond = rng.normal(size=(b, cfg.condition_dim))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError) as info:
            den.denoise(h, sigma, cond)
        with pytest.raises(NumericError, match=f"samples 0-{b - 1}"):
            den.forward(h, sigma, cond)
    msg = str(info.value)
    assert f"samples {s}-{2 * s - 1}" in msg
    assert f"sigma {sigma[s]:g} to {sigma[2 * s - 1]:g}" in msg


def test_evaluate_peak_memory_is_bounded_by_slices():
    # The toy sampling config: 32 tokens, so 8 samples per slice.  Without
    # slicing, one B=512 call holds every block's activations (~800 MB).
    cfg = DitConfig(n_rx=8, n_tx=16, patch_size=2, embed_dim=64, depth=4, n_heads=4)
    den = randomized_denoiser(cfg, seed=7)
    rng = np.random.default_rng(19)
    h = rng.normal(size=(512, 2, cfg.n_rx, cfg.n_tx))
    cond = rng.normal(size=cfg.condition_dim)
    tracemalloc.start()
    try:
        den.evaluate(h, 3.0, cond)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64.0
