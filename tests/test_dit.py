import hashlib
import math
import os
import select
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzgen import _lanes, dit
from thzgen.checkpoint import CheckpointMeta
from thzgen.dataset import Dataset
from thzgen.diffusion import denoising_loss
from thzgen.dit import (
    ROWS,
    DitConfig,
    DitDenoiser,
    dgelu,
    gelu,
    init_params,
    layer_norm,
    param_shapes,
    patchify,
    positional_table,
    unpatchify,
)
from thzgen.errors import NumericError
from thzgen.training import evaluate_loss

from test_checkpoint import small_configs


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
    for name in ("patch_size", "embed_dim", "n_heads", "mlp_ratio"):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got 0$"):
            DitConfig(n_rx=8, n_tx=16, **{name: 0})
    # Negative antenna counts would pass the divisibility checks (8 tokens).
    with pytest.raises(ValueError, match=r"^n_rx must be an integer >= 1, got -8$"):
        DitConfig(n_rx=-8, n_tx=-16)
    with pytest.raises(ValueError, match=r"^n_tx must be an integer >= 1, got 0$"):
        DitConfig(n_rx=8, n_tx=0)


def test_config_derived_sizes():
    cfg = DitConfig(n_rx=8, n_tx=16, patch_size=4, embed_dim=64, n_heads=4)
    assert cfg.grid == (2, 4)
    assert cfg.n_tokens == 8
    assert cfg.patch_dim == 32
    assert cfg.head_dim == 16


# -- parameter layout -------------------------------------------------------

def assert_views_of_one_vector(params, shapes):
    assert list(params) == list(shapes)
    assert all(params[name].shape == shape for name, shape in shapes.items())
    assert all(np.shares_memory(view, params.vector) for view in params.values())
    np.testing.assert_array_equal(
        np.concatenate([view.ravel() for view in params.values()]), params.vector
    )


def test_params_and_grads_are_views_of_one_vector_in_table_order():
    cfg = small_config(depth=2)
    shapes = param_shapes(cfg)
    params = init_params(cfg, np.random.default_rng(0))
    assert params.vector.shape == (sum(np.prod(s, dtype=int) for s in shapes.values()),)
    assert_views_of_one_vector(params, shapes)
    den = randomized_denoiser(cfg)
    assert_views_of_one_vector(den.params, shapes)
    rng = np.random.default_rng(1)
    h0 = rng.normal(size=(2, 2, cfg.n_rx, cfg.n_tx))
    _, grads = den.loss_and_grads(h0, rng.normal(size=(2, 8)), np.array([0.5, 2.0]),
                                  rng.normal(size=h0.shape))
    assert_views_of_one_vector(grads, shapes)
    assert not np.shares_memory(grads.vector, den.params.vector)


def test_init_params_keeps_the_draw_order():
    # Fan-in scaled normal draws for these weights, in this order; the rest
    # (biases, adaLN modulation maps, head) are zero.
    cfg = small_config(depth=2)
    rng = np.random.default_rng(4)
    drawn = ["patch.w", "t_mlp.w1", "t_mlp.w2", "p_mlp.w1", "p_mlp.w2"]
    for i in range(cfg.depth):
        drawn += [f"block{i}.{layer}.w" for layer in ("qkv", "proj", "fc1", "fc2")]
    shapes = param_shapes(cfg)
    expected = {name: np.zeros(shape) for name, shape in shapes.items()}
    for name in drawn:
        shape = shapes[name]
        expected[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
    params = init_params(cfg, np.random.default_rng(4))
    for name in shapes:
        np.testing.assert_array_equal(params[name], expected[name], err_msg=name)
    # Names, shapes and values as the per-tensor initializer produced them.
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(str(params[name].shape).encode())
        digest.update(params[name].tobytes())
    assert digest.hexdigest() == (
        "20fbe982f5e387421557c8fbb5dabb289d9063501c64748b7ebd1616ce3d82d9"
    )


@pytest.mark.parametrize("fault", ["missing", "unexpected", "shape"])
def test_layout_check_names_the_tensor(fault):
    cfg = small_config()
    params = dict(init_params(cfg, np.random.default_rng(0)))
    if fault == "missing":
        del params["block0.fc1.b"]
    elif fault == "unexpected":
        params["block0.extra.w"] = np.zeros(3)
    else:
        params["block0.fc1.b"] = np.zeros(7)
    name = "block0.extra.w" if fault == "unexpected" else "block0.fc1.b"
    with pytest.raises(ValueError, match=fault) as info:
        DitDenoiser(cfg, params=params)
    assert name in str(info.value)


def test_denoiser_copies_the_passed_tensors_not_their_vector():
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(0))
    # Replacing an entry detaches it from params.vector; the model must
    # still see the replacement.
    params["head.w"] = np.full(params["head.w"].shape, 0.25)
    den = DitDenoiser(cfg, params=params)
    np.testing.assert_array_equal(den.params["head.w"], 0.25)
    assert not np.shares_memory(den.params.vector, params.vector)
    params["patch.w"][...] = 7.0
    assert not np.any(den.params["patch.w"] == 7.0)
    # A plain dict of arrays works the same way.
    plain = DitDenoiser(cfg, params={k: v.copy() for k, v in den.params.items()})
    np.testing.assert_array_equal(plain.params.vector, den.params.vector)


def test_grads_are_fresh_per_call():
    cfg = small_config()
    den = randomized_denoiser(cfg)
    rng = np.random.default_rng(2)
    h0 = rng.normal(size=(2, 2, cfg.n_rx, cfg.n_tx))
    args = (h0, rng.normal(size=(2, 8)), np.array([0.5, 2.0]), rng.normal(size=h0.shape))
    _, first = den.loss_and_grads(*args)
    kept = first.vector.copy()
    den.params["head.w"] += 0.1
    _, second = den.loss_and_grads(*args)
    np.testing.assert_array_equal(first.vector, kept)
    assert not np.array_equal(second.vector, kept)


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


@given(data=st.data(), lead=st.lists(st.integers(1, 3), max_size=2),
       channels=st.integers(1, 3), n_rx=st.integers(1, 24), n_tx=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_patchify_round_trip_property(data, lead, channels, n_rx, n_tx, seed):
    divisors = [p for p in range(1, min(n_rx, n_tx) + 1) if n_rx % p == 0 == n_tx % p]
    p = data.draw(st.sampled_from(divisors), label="patch_size")
    x = np.random.default_rng(seed).normal(size=(*lead, channels, n_rx, n_tx))
    patches = patchify(x, p)
    assert patches.shape == (*lead, (n_rx // p) * (n_tx // p), channels * p * p)
    back = unpatchify(patches, p, n_rx, n_tx)
    assert back.shape == x.shape and back.tobytes() == x.tobytes()


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


def test_forward_embeds_each_noise_level():
    # The conditioning vector c = e_t + e_p differs between samples that share
    # the condition but not the noise level.
    den = randomized_denoiser(small_config())
    cond = np.tile(np.random.default_rng(2).normal(size=8), (3, 1))
    _, cache = den.forward(np.zeros((3, 2, 8, 8)), np.array([0.1, 1.0, 5.0]), cond)
    assert cache["c"].shape == (3, 8)
    assert not np.allclose(cache["c"][0], cache["c"][1])
    with pytest.raises(ValueError, match="sigma must be > 0"):
        den.evaluate(np.zeros((2, 2, 8, 8)), np.array([0.5, -1.0]), cond[:2])
    with pytest.raises(ValueError, match="sigma must be > 0"):
        den.evaluate(np.zeros((2, 8, 8)), 0.0, cond[0])


def test_forward_embeds_each_condition():
    den = randomized_denoiser(small_config())
    cond = np.random.default_rng(2).normal(size=(3, 8))
    _, cache = den.forward(np.zeros((3, 2, 8, 8)), np.ones(3), cond)
    assert cache["c"].shape == (3, 8)
    assert not np.allclose(cache["c"][0], cache["c"][1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_condition_is_a_value_error(bad):
    # Rejected before the network runs, not reported as non-finite output.
    den = randomized_denoiser(small_config())
    h = np.zeros((3, 2, 8, 8))
    cond = np.random.default_rng(2).normal(size=(3, 8))
    cond[1, 4] = bad
    msg = "condition vector contains non-finite values"
    with pytest.raises(ValueError, match=msg):
        den.forward(h, np.ones(3), cond)
    with pytest.raises(ValueError, match=msg):
        den.evaluate(h, np.ones(3), cond)
    with pytest.raises(ValueError, match=msg):
        den.evaluate(h[0], 1.0, np.full(8, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sigma_is_a_value_error(bad):
    # Named as a bad sigma, not reported as non-finite output after warnings.
    den = randomized_denoiser(small_config())
    h = np.zeros((3, 2, 8, 8))
    cond = np.random.default_rng(2).normal(size=(3, 8))
    sigma = np.array([1.0, bad, 0.5])
    msg = f"sigma must be finite, got {bad:g}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=msg):
            den.forward(h, sigma, cond)
        with pytest.raises(ValueError, match=msg):
            den.evaluate(h, sigma, cond)
        with pytest.raises(ValueError, match=msg):
            den.evaluate(h[0], bad, cond[0])


# -- normalization ----------------------------------------------------------

def test_layer_norm_statistics():
    x = np.random.default_rng(3).normal(2.0, 5.0, size=(4, 6, 32))
    out, _ = layer_norm(x)
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)


def test_zero_modulation_maps_leave_plain_layer_norm():
    # adaLN-Zero: with a zero modulation map, adaLN is exactly LayerNorm.
    cfg = small_config()
    den = randomized_denoiser(cfg, seed=4)
    for name in ("block0.mod.w", "block0.mod.b", "final.mod.w", "final.mod.b"):
        den.params[name][...] = 0.0
    rng = np.random.default_rng(4)
    _, cache = den.forward(rng.normal(size=(2, 2, 8, 8)), np.array([0.5, 2.0]),
                           rng.normal(size=(2, 8)))
    block = cache["blocks"][0]
    np.testing.assert_array_equal(block["m1"], block["ln1"])
    np.testing.assert_array_equal(block["m2"], block["ln2"])
    np.testing.assert_array_equal(cache["y"], cache["lnf"])


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
    den = DitDenoiser(cfg, params=init_params(cfg, np.random.default_rng(8)))
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
    cfg = small_config()
    den = DitDenoiser(cfg, params=init_params(cfg, np.random.default_rng(0)))
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
    den = DitDenoiser(cfg, params=init_params(cfg, np.random.default_rng(14)))
    h0 = np.zeros((2, 2, 8, 8))
    loss, grads = den.loss_and_grads(
        h0, np.zeros((2, 8)), np.array([0.5, 1.5]), np.zeros_like(h0)
    )
    assert loss == 0.0
    for name, g in grads.items():
        np.testing.assert_array_equal(g, 0.0, err_msg=name)


# -- GELU -------------------------------------------------------------------

def test_gelu_is_the_tanh_formula():
    x = np.random.default_rng(15).normal(0.0, 3.0, size=(4, 5, 16))
    act, e = gelu(x)
    e_ref = 1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
    np.testing.assert_array_equal(e, e_ref)
    np.testing.assert_array_equal(act, 0.5 * x * e_ref)


def test_gelu_is_within_5e_4_of_the_erf_form():
    x = np.linspace(-10.0, 10.0, 20001)
    exact = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    assert np.abs(gelu(x)[0] - exact).max() <= 5e-4


def assert_dgelu_matches_central_difference(x, step=1e-6):
    fd = (gelu(x + step)[0] - gelu(x - step)[0]) / (2 * step)
    np.testing.assert_allclose(dgelu(x, gelu(x)[1]), fd, atol=1e-8)


def test_dgelu_matches_central_difference():
    assert_dgelu_matches_central_difference(
        np.random.default_rng(15).normal(0.0, 3.0, size=(4, 5, 16))
    )


@settings(max_examples=200)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_dgelu_matches_finite_difference_property(x0):
    assert_dgelu_matches_central_difference(np.array([x0]))


# -- cache-free inference ---------------------------------------------------

def slice_samples(cfg):
    """Samples per inference slice, as DitDenoiser.evaluate sizes it."""
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
        np.testing.assert_array_equal(den.evaluate(h, sigma, cond), ref, err_msg=str(b))
        # Scalar sigma and one condition vector shared by the whole batch.
        ref, _ = den.forward(h, np.full(b, 0.8), np.tile(cond[0], (b, 1)))
        np.testing.assert_array_equal(den.evaluate(h, 0.8, cond[0]), ref, err_msg=str(b))
    np.testing.assert_array_equal(den.evaluate(h[0], 0.8, cond[0]), ref[0])


def test_evaluate_loss_matches_forward_reference():
    cfg = small_config(patch_size=2)
    den = randomized_denoiser(cfg, seed=5)
    rng = np.random.default_rng(17)
    n = 70  # 16 samples per slice: four full slices and a short one
    header = CheckpointMeta(n_rx=cfg.n_rx, n_tx=cfg.n_tx, k_rx=1, k_tx=1)
    ds = Dataset(header=header, conditions=rng.normal(size=(n, 8)),
                 tensors=rng.normal(size=(n, 2, cfg.n_rx, cfg.n_tx)))
    sigmas = np.exp(rng.uniform(-4.0, 2.0, size=n))
    noise = rng.normal(size=ds.tensors.shape)
    out, _ = den.forward(ds.tensors + sigmas[:, None, None, None] * noise, sigmas,
                         ds.conditions)
    assert evaluate_loss(den, ds, sigmas, noise) == float(np.mean((out - ds.tensors) ** 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3, 70])
def test_denoising_loss_equals_the_training_loss(dtype, batch):
    # The non-gradient loss and the training step's loss are one number: the
    # same perturbation, the same output bytes from sliced inference as from
    # the whole-batch forward, and the same mean.  80 tokens make 3 samples a
    # slice, so B=70 is 22 slices and a lone last sample that joins the 22nd.
    cfg = small_config(patch_size=2, n_tx=40)
    assert dit.slice_edges(cfg, 70)[-2:] == [66, 70]
    den = DitDenoiser(cfg, params=randomized_denoiser(cfg, seed=12).params, dtype=dtype)
    rng = np.random.default_rng(25)
    h0 = rng.normal(size=(batch, 2, cfg.n_rx, cfg.n_tx))
    cond = rng.normal(size=(batch, cfg.condition_dim))
    sigmas = np.exp(rng.uniform(-4.0, 2.0, size=batch))
    noise = rng.standard_normal(h0.shape)
    loss = denoising_loss(den, h0, cond, sigmas, noise)
    assert loss == den.loss_and_grads(h0, cond, sigmas, noise)[0]


# -- float32 inference ------------------------------------------------------

def float32_twin(den):
    """A float32 denoiser holding ``den``'s weights."""
    return DitDenoiser(den.config, params=den.params, dtype=np.float32)


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_float32_denoise_and_evaluate_equal_whole_batch_forward(monkeypatch, lanes):
    use_lanes(monkeypatch, lanes)
    cfg = small_config(patch_size=2, depth=2)
    den = float32_twin(randomized_denoiser(cfg, seed=4))
    s = slice_samples(cfg)
    rng = np.random.default_rng(23)
    for b in (1, s - 1, s, s + 1, 3 * s + 5):
        h = rng.normal(size=(b, 2, cfg.n_rx, cfg.n_tx))
        cond = rng.normal(size=(b, cfg.condition_dim))
        sigma = np.exp(rng.uniform(-4.0, 2.0, size=b))
        ref = den._forward(h, sigma, cond)
        assert ref.dtype == np.float64
        np.testing.assert_array_equal(den.evaluate(h, sigma, cond), ref, err_msg=str(b))
        ref = den._forward(h, np.full(b, 0.8), np.tile(cond[0], (b, 1)))
        np.testing.assert_array_equal(den.evaluate(h, 0.8, cond[0]), ref, err_msg=str(b))


def test_float32_denoise_is_close_to_float64_forward():
    # The toy sampling config, over noise levels from 0.02 to 7.
    cfg = DitConfig(n_rx=8, n_tx=16, patch_size=2, embed_dim=64, depth=4, n_heads=4)
    den = randomized_denoiser(cfg, seed=9)
    rng = np.random.default_rng(24)
    h = 3.0 * rng.normal(size=(24, 2, cfg.n_rx, cfg.n_tx))
    cond = rng.normal(size=(24, cfg.condition_dim))
    sigma = np.exp(np.linspace(-4.0, 2.0, 24))
    ref, _ = den.forward(h, sigma, cond)
    got = float32_twin(den).evaluate(h, sigma, cond)
    assert 0.0 < np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_float32_forward_holds_no_float64_activation(monkeypatch):
    cfg = small_config(patch_size=2, depth=2)
    den = float32_twin(randomized_denoiser(cfg, seed=10))
    assert den.params.vector.dtype == den.pos.dtype == np.float32
    inputs = []
    linear = dit._linear
    monkeypatch.setattr(dit, "_linear", lambda x, w, b: inputs.append(x.dtype)
                        or linear(x, w, b))
    rng = np.random.default_rng(25)
    h = rng.normal(size=(4, 2, cfg.n_rx, cfg.n_tx))
    cache = {"blocks": []}  # records every activation backward would read
    out = den._forward(h, np.exp(rng.uniform(-4.0, 2.0, size=4)),
                       rng.normal(size=(4, cfg.condition_dim)), cache)
    assert out.dtype == np.float64
    assert inputs and set(inputs) == {np.dtype(np.float32)}
    wide = [name for name, a in cache.items() if name != "blocks" and a.dtype != np.float32]
    wide += [f"block{i}.{name}" for i, bc in enumerate(cache["blocks"])
             for name, a in bc.items() if a.dtype != np.float32]
    assert wide == ["c_out"]

    # Backward: every layer's output gradient and input, and every parameter
    # gradient, stay float32, though d_out and c_out are float64.
    seen = []
    linear_backward = dit._linear_backward

    def spy(dy, x, params, grads, w, b):
        seen.append((w, dy.dtype, x.dtype))
        return linear_backward(dy, x, params, grads, w, b)

    monkeypatch.setattr(dit, "_linear_backward", spy)
    grads = den.backward(cache, rng.normal(size=out.shape))
    assert grads.vector.dtype == np.float32
    assert {name for name, _, _ in seen} == {n for n, shape in den.shapes.items() if len(shape) == 2}
    assert [s for s in seen if s[1:] != (np.float32, np.float32)] == []


def test_float32_denoiser_trains_on_the_rounded_float64_draws():
    cfg = small_config()
    den64 = randomized_denoiser(cfg, seed=11)
    den = float32_twin(den64)
    rng = np.random.default_rng(26)
    h0 = rng.normal(size=(2, 2, cfg.n_rx, cfg.n_tx))
    cond, sigmas = rng.normal(size=(2, 8)), np.array([0.5, 2.0])
    loss, grads = den.loss_and_grads(h0, cond, sigmas, rng.normal(size=h0.shape))
    assert type(loss) is float and np.isfinite(loss)
    assert grads.vector.dtype == np.float32
    assert_views_of_one_vector(grads, den.shapes)
    # A float32 denoiser built from a seed's draws holds them, rounded.
    draws = init_params(cfg, np.random.default_rng(3))
    np.testing.assert_array_equal(
        DitDenoiser(cfg, params=draws, dtype=np.float32).params.vector,
        DitDenoiser(cfg, params=draws).params.vector.astype(np.float32))


# Over 2000 draws of these configs and noise levels from 0.01 to 20, the
# float32 gradient was within 3.8e-7 of the float64 one, relative to its
# norm, and the loss within 1.7e-7, relative; the bound leaves 25x margin.
F32_GRAD_BOUND = 1e-5


@settings(max_examples=60)
@given(config=small_configs(), seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 4))
def test_float32_gradients_agree_with_float64(config, seed, batch):
    den64 = randomized_denoiser(config, seed=seed)
    den32 = float32_twin(den64)
    rng = np.random.default_rng(seed)
    h0 = rng.normal(size=(batch, 2, config.n_rx, config.n_tx))
    cond = rng.normal(size=(batch, config.condition_dim))
    sigmas = np.exp(rng.uniform(np.log(0.01), np.log(20.0), size=batch))
    noise = rng.normal(size=h0.shape)
    loss64, g64 = den64.loss_and_grads(h0, cond, sigmas, noise)
    loss32, g32 = den32.loss_and_grads(h0, cond, sigmas, noise)
    assert g32.vector.dtype == np.float32
    scale = np.linalg.norm(g64.vector)
    assert scale > 0
    assert np.linalg.norm(g32.vector - g64.vector) <= F32_GRAD_BOUND * scale
    assert abs(loss32 - loss64) <= F32_GRAD_BOUND * loss64


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
            den.evaluate(h, sigma, cond)
        with pytest.raises(NumericError, match=f"samples 0-{b - 1}"):
            den.forward(h, sigma, cond)
    msg = str(info.value)
    assert f"samples {s}-{2 * s - 1}" in msg
    assert f"sigma {sigma[s]:g} to {sigma[2 * s - 1]:g}" in msg


def test_evaluate_names_an_overflow_without_a_warning():
    # Weights float32 holds, whose activations overflow it: the output check
    # names the samples, and numpy does not warn first (an error here).
    cfg = small_config(patch_size=2)
    den = randomized_denoiser(cfg, seed=8)
    big = DitDenoiser(cfg, params={name: 1e30 * w for name, w in den.params.items()},
                      dtype=np.float32)
    rng = np.random.default_rng(20)
    h = rng.normal(size=(4, 2, cfg.n_rx, cfg.n_tx))
    with pytest.raises(NumericError, match=r"^non-finite activations in the output head for "
                                           r"samples 0-3 "):
        big.evaluate(h, 1.0, rng.normal(size=cfg.condition_dim))


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


# -- inference lanes --------------------------------------------------------

needs_blas_setter = pytest.mark.skipif(
    not _lanes._blas_single_threaded,
    reason="no OpenBLAS thread setter: every call runs on one lane")


def use_lanes(monkeypatch, cpus):
    """Split every ``evaluate`` call over up to ``cpus`` lanes, whatever its work."""
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_lanes, "ITEM_FLOPS", 0)


def lane_case(b, seed=21):
    """A 32-token config (8 samples per slice) and b random inputs."""
    cfg = small_config(n_tx=16, patch_size=2, embed_dim=16, depth=2)
    den = randomized_denoiser(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(b, 2, cfg.n_rx, cfg.n_tx))
    cond = rng.normal(size=(b, cfg.condition_dim))
    sigma = np.linspace(0.5, 2.0, b)
    return den, h, sigma, cond


def split_slices_0_and_1(monkeypatch, den, sigma):
    """Run slice 1 on its lane before slice 0 on the calling thread ends.

    With one lane per slice, slice 0 is the caller's and slice 1 is lane
    1's; slice 0 waits until slice 1 has run.  Returns the thread id that
    ran each slice.
    """
    use_lanes(monkeypatch, 2)
    caller = threading.get_ident()
    slice_1_ran = threading.Event()
    starts = dit.slice_edges(den.config, len(sigma))[:-1]
    index = {sigma[start]: i for i, start in enumerate(starts)}
    threads = {}
    run = den._forward

    def forward(h, sigma, cond, cache=None):
        i = index[sigma[0]]
        threads[i] = threading.get_ident()
        if i == 0 and not slice_1_ran.wait(timeout=60):
            raise TimeoutError("no helper lane ran slice 1")
        try:
            return run(h, sigma, cond, cache)
        finally:
            if i == 1:
                slice_1_ran.set()

    monkeypatch.setattr(den, "_forward", forward)
    return caller, threads


def test_evaluate_bytes_do_not_depend_on_lane_count(monkeypatch):
    den, *_ = lane_case(1)
    rng = np.random.default_rng(22)
    cfg = den.config
    for b in (1, 9, 33, 512):
        h = rng.normal(size=(b, 2, cfg.n_rx, cfg.n_tx))
        cond = rng.normal(size=(b, cfg.condition_dim))
        sigma = np.exp(rng.uniform(-4.0, 2.0, size=b))
        outs = []
        for lanes in (1, 2, 3):
            use_lanes(monkeypatch, lanes)
            outs.append(den.evaluate(h, sigma, cond))
        for lanes, out in zip((2, 3), outs[1:]):
            np.testing.assert_array_equal(out, outs[0], err_msg=f"B={b}, {lanes} lanes")


def test_more_lanes_than_cores_run_each_slice_once(monkeypatch):
    den, h, sigma, cond = lane_case(8 * 60 + 3)
    cpus = _lanes.usable_cpus()
    use_lanes(monkeypatch, 1)
    expected = den.evaluate(h, sigma, cond)
    runs = []
    run = den._forward

    def counted(h, sigma, cond, cache=None):
        runs.append(sigma[0])
        return run(h, sigma, cond, cache)

    monkeypatch.setattr(den, "_forward", counted)
    use_lanes(monkeypatch, 2 * cpus + 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            runs.clear()
            np.testing.assert_array_equal(den.evaluate(h, sigma, cond), expected)
            assert sorted(runs) == list(sigma[dit.slice_edges(den.config, len(h))[:-1]])
    finally:
        sys.setswitchinterval(interval)


@needs_blas_setter
def test_lanes_follow_the_work_of_a_slice(monkeypatch):
    # The CLI test model's B=512 call is 16 slices of mostly interpreter
    # work, which a second lane slows; the toy model's slices are numpy work.
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
    cli_model = DitConfig(n_rx=8, n_tx=16, patch_size=4, embed_dim=16, depth=1,
                          n_heads=2, mlp_ratio=2)
    toy = DitConfig(n_rx=8, n_tx=16, patch_size=2, embed_dim=64, depth=4, n_heads=4)
    assert len(dit.slice_edges(cli_model, 512)) - 1 == 16
    assert dit.lane_count(cli_model, 512) == 1
    assert dit.lane_count(toy, 512) == 2
    assert dit.lane_count(toy, 8) == 1  # one slice
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 1)
    assert dit.lane_count(toy, 512) == 1
    # Where BLAS has no thread setter, every call runs on one lane.
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_lanes, "_blas_single_threaded", False)
    assert dit.lane_count(toy, 512) == 1


@needs_blas_setter
def test_short_calls_start_no_thread_and_long_ones_leave_none(monkeypatch):
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 3)
    den, h, sigma, cond = lane_case(40)  # 8 samples per slice
    work = dit.matmul_flops(den.config, 8)
    for flops, b, lanes in ((work, 8, 1), (work, 9, 1), (work, 16, 2), (work, 24, 3),
                            (work, 40, 3), (work + 1, 40, 1)):
        monkeypatch.setattr(_lanes, "ITEM_FLOPS", flops)
        assert dit.lane_count(den.config, b) == lanes, (flops, b)
        if lanes == 1:  # one slice (9 is 8 samples and a lone one), or too little work
            den.evaluate(h[:b], sigma[:b], cond[:b])
    assert made == []

    caller, run = threading.get_ident(), den._forward

    def slow_helpers(*args):  # a helper still runs when the caller's lane ends
        if threading.get_ident() != caller:
            time.sleep(0.05)
        return run(*args)

    monkeypatch.setattr(den, "_forward", slow_helpers)
    use_lanes(monkeypatch, 3)
    before = threading.active_count()
    for _ in range(2):
        den.evaluate(h[:40], sigma[:40], cond[:40])  # five slices, three lanes
    assert len(made) == 4
    assert not any(t.is_alive() for t in made)
    assert threading.active_count() == before


@needs_blas_setter
def test_lowest_failing_slice_is_named_whatever_finished_first(monkeypatch):
    den, h, sigma, cond = lane_case(24)  # slices 0-7, 8-15, 16-23
    h[3] = np.inf
    h[12] = np.inf
    caller, threads = split_slices_0_and_1(monkeypatch, den, sigma)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError) as info:
            den.evaluate(h, sigma, cond)
    assert threads[0] == caller != threads[1]
    msg = str(info.value)
    assert "samples 0-7 " in msg
    assert f"sigma {sigma[0]:g} to {sigma[7]:g}" in msg


@needs_blas_setter
def test_helper_lane_reraises_nonpositive_sigma(monkeypatch):
    den, h, sigma, cond = lane_case(24)
    sigma[10] = -1.0
    caller, threads = split_slices_0_and_1(monkeypatch, den, sigma)
    with pytest.raises(ValueError, match="sigma must be > 0"):
        den.evaluate(h, sigma, cond)
    assert threads[0] == caller != threads[1]


@needs_blas_setter
def test_helper_lane_keeps_the_callers_errstate(monkeypatch):
    den, h, sigma, cond = lane_case(24)
    h[10] = np.inf
    caller, threads = split_slices_0_and_1(monkeypatch, den, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="samples 8-15 "):
                den.evaluate(h, sigma, cond)
    assert threads[0] == caller != threads[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_multi_lane_calls(monkeypatch):
    use_lanes(monkeypatch, 2)
    den, h, sigma, cond = lane_case(40)
    expected = den.evaluate(h, sigma, cond).tobytes()  # runs on two lanes
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(den.evaluate(h, sigma, cond).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    got, done = b"", False
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while select.select([pipe], [], [], 60)[0]:
                chunk = pipe.read(1 << 16)
                if not chunk:
                    done = True
                    break
                got += chunk
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    assert done, "the forked child's multi-lane call hung"
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == expected
