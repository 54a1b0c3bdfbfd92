import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thzgen.cli import main
from thzgen.checkpoint import CheckpointMeta
from thzgen.dataset import Dataset, read_dataset, write_dataset
from thzgen.evaluation import (
    K1,
    K2,
    WINDOW_SIGMA,
    WINDOW_SIZE,
    angular_power,
    compare_power,
    nmse,
    ssim,
    ssim_complex,
)


def random_image(seed, shape=(8, 16)):
    return np.random.default_rng(seed).normal(size=shape)


# -- SSIM -------------------------------------------------------------------

def test_ssim_self_similarity():
    a = random_image(0)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def test_ssim_zero_images():
    assert ssim(np.zeros((8, 8)), np.zeros((8, 8))) == 1.0


def test_ssim_constant_images_closed_form():
    # Constant 1 vs constant 2: variance terms vanish, leaving the luminance
    # ratio (2*mu_a*mu_b + c1) / (mu_a^2 + mu_b^2 + c1) with range 2.
    c1 = (0.01 * 2.0) ** 2
    val = ssim(np.ones((8, 8)), np.full((8, 8), 2.0))
    assert val == pytest.approx((4.0 + c1) / (5.0 + c1), rel=1e-12)


def test_ssim_symmetry():
    a, b = random_image(1), random_image(2)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_joint_scale_invariance():
    # c1/c2 scale with the dynamic range, so scaling both inputs together
    # leaves the index unchanged; scaling only one does not.
    a, b = random_image(3), random_image(4)
    assert ssim(3.0 * a, 3.0 * b) == pytest.approx(ssim(a, b), rel=1e-10)
    assert ssim(a, 5.0 * a) < 0.999


def test_ssim_decreases_with_noise():
    rng = np.random.default_rng(5)
    base = random_image(6, (16, 16))
    levels = [0.05, 0.1, 0.2, 0.5, 1.0]
    means = []
    for level in levels:
        vals = [
            ssim(base, base + level * rng.normal(size=base.shape)) for _ in range(20)
        ]
        means.append(np.mean(vals))
    assert all(hi > lo for hi, lo in zip(means, means[1:]))
    assert means[0] > 0.9 > means[-1]


def test_ssim_window_clamped_to_small_inputs():
    a = random_image(7, (4, 4))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def test_ssim_input_validation():
    with pytest.raises(ValueError, match="mismatch"):
        ssim(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ValueError, match="3x3"):
        ssim(np.zeros((2, 8)), np.zeros((2, 8)))


def test_ssim_complex_modes():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert ssim_complex(a, a) == pytest.approx(1.0, abs=1e-12)
    # The magnitude comparison ignores a global phase.
    rotated = a * np.exp(1j * 0.8)
    assert ssim_complex(a, rotated) == pytest.approx(1.0, abs=1e-12)


def test_ssim_cdf(tmp_path):
    # The empirical SSIM CDF is written by `thzgen eval`: the per-pair values
    # sorted, at ordinates (i + 1) / n, with the mean taken over them.
    rng = np.random.default_rng(9)
    ref = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    gen = np.stack([ref + s * rng.normal(size=(8, 8)) for s in (1.0, 0.0, 0.3)])
    for name, mats in (("gen", gen), ("ref", ref[None])):
        write_dataset(tmp_path / name, Dataset(
            header=CheckpointMeta(n_rx=8, n_tx=8, k_rx=1, k_tx=1),
            conditions=np.zeros((len(mats), 8)),
            tensors=np.stack([mats.real, mats.imag], axis=1),
        ))
    # Scored on the matrices as stored, which the file rounds to float32.
    stored_ref = read_dataset(tmp_path / "ref").complex_matrices()[0]
    values = [ssim_complex(m, stored_ref)
              for m in read_dataset(tmp_path / "gen").complex_matrices()]
    out = tmp_path / "ssim.csv"
    assert main(["eval", "--gen", str(tmp_path / "gen"), "--ref", str(tmp_path / "ref"),
                 "--metrics", "ssim", "--out-csv", str(out)]) == 0
    with open(out) as f:
        rows = [r for r in csv.DictReader(f) if r["section"] == "ssim_cdf"]
    cdf = np.array([float(r["value"]) for r in rows if r["key"] == "value"])
    ordinates = [float(r["value"]) for r in rows if r["key"] == "ordinate"]
    assert np.all(np.diff(cdf) >= 0)
    np.testing.assert_allclose(cdf, sorted(values), rtol=1e-15)
    np.testing.assert_allclose(ordinates, [1 / 3, 2 / 3, 1.0])
    with open(out) as f:
        mean = [float(r["value"]) for r in csv.DictReader(f) if r["key"] == "mean"]
    assert mean == [pytest.approx(cdf.mean())]
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


# The 2-D window SSIM that the separable filter replaced, kept as a reference.

def reference_window(size_r, size_c, sigma):
    def g(n):
        x = np.arange(n) - (n - 1) / 2.0
        w = np.exp(-(x**2) / (2.0 * sigma**2))
        return w / w.sum()

    return np.outer(g(size_r), g(size_c))


def reference_moments(x, window):
    views = np.lib.stride_tricks.sliding_window_view(x, window.shape)
    return np.tensordot(views, window, axes=([2, 3], [0, 1]))


def reference_ssim(a, b):
    h, w = a.shape
    window = reference_window(min(WINDOW_SIZE, h), min(WINDOW_SIZE, w), WINDOW_SIGMA)
    data_range = max(np.abs(a).max(), np.abs(b).max())
    if data_range == 0.0:
        return 1.0
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2
    mu_a = reference_moments(a, window)
    mu_b = reference_moments(b, window)
    var_a = reference_moments(a * a, window) - mu_a**2
    var_b = reference_moments(b * b, window) - mu_b**2
    cov = reference_moments(a * b, window) - mu_a * mu_b
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


@given(
    h=st.integers(3, 64),
    w=st.integers(3, 256),
    log_scale=st.floats(-3.0, 3.0),
    noise=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=64, w=256, log_scale=0.0, noise=0.3, seed=0)  # the full 11x11 window
@example(h=5, w=256, log_scale=-3.0, noise=0.1, seed=1)  # rows clamped
@example(h=64, w=4, log_scale=3.0, noise=1.0, seed=2)  # columns clamped
@example(h=3, w=10, log_scale=1.0, noise=0.0, seed=3)  # both clamped
def test_ssim_matches_2d_window_reference(h, w, log_scale, noise, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    a = scale * (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w)))
    b = a + noise * scale * (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w)))
    assert abs(ssim(a.real, b.real) - reference_ssim(a.real, b.real)) <= 1e-12
    assert abs(ssim_complex(a, b) - reference_ssim(np.abs(a), np.abs(b))) <= 1e-12


def test_ssim_complex_working_set_is_small():
    # The 2-D window reference peaks at about 13.5 MB on this pair.
    rng = np.random.default_rng(14)
    a = rng.normal(size=(64, 256)) + 1j * rng.normal(size=(64, 256))
    b = a + 0.5 * rng.normal(size=(64, 256))
    tracemalloc.start()
    try:
        ssim_complex(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# -- angular power ----------------------------------------------------------

def test_angular_power_marginals():
    m = np.zeros((4, 8), dtype=complex)
    m[1, 2] = 3.0
    m[3, 5] = 4.0j
    out = angular_power(m)
    expected_tx = np.zeros(8)
    expected_tx[2], expected_tx[5] = 9.0, 16.0
    expected_rx = np.zeros(4)
    expected_rx[1], expected_rx[3] = 9.0, 16.0
    np.testing.assert_allclose(out.tx_profile, expected_tx)
    np.testing.assert_allclose(out.rx_profile, expected_rx)
    assert out.tx_profile.sum() == pytest.approx(out.rx_profile.sum())


def test_angular_power_averages_over_samples():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = 2.0
    b = np.zeros((2, 2), dtype=complex)
    b[1, 1] = 2.0
    out = angular_power(np.stack([a, b]))
    np.testing.assert_allclose(out.tx_profile, [2.0, 2.0])


# -- profile comparison -----------------------------------------------------

def test_compare_power_identical():
    out = angular_power(random_image(10, (4, 8)) + 0j)
    cmp = compare_power(out, out)
    for side in (cmp.tx, cmp.rx):
        assert side.tv_distance == pytest.approx(0.0, abs=1e-12)
        assert side.cosine_similarity == pytest.approx(1.0, abs=1e-12)
        assert side.argmax_match


def test_compare_power_disjoint():
    a = np.zeros((2, 4), dtype=complex)
    a[0, 0] = 1.0
    b = np.zeros((2, 4), dtype=complex)
    b[1, 3] = 1.0
    cmp = compare_power(angular_power(a), angular_power(b))
    assert cmp.tx.tv_distance == pytest.approx(1.0)
    assert cmp.tx.cosine_similarity == pytest.approx(0.0)
    assert not cmp.tx.argmax_match and not cmp.rx.argmax_match


def test_compare_power_scale_free_tv():
    # Total-variation compares normalized profiles, so a global power scale
    # does not register.
    m = random_image(11, (4, 8)) + 0j
    cmp = compare_power(angular_power(3.0 * m), angular_power(m))
    assert cmp.tx.tv_distance == pytest.approx(0.0, abs=1e-12)


def test_compare_power_rejects_zero_profile():
    good = angular_power(np.ones((2, 2), dtype=complex))
    bad = angular_power(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="zero-energy"):
        compare_power(good, bad)


# -- NMSE -------------------------------------------------------------------

def test_nmse_values():
    b = random_image(12) + 1j * random_image(13)
    assert nmse(b, b) == 0.0
    assert nmse(np.zeros_like(b), b) == pytest.approx(1.0)
    assert nmse(2.0 * b, b) == pytest.approx(1.0)


def test_nmse_validation():
    with pytest.raises(ValueError, match="mismatch"):
        nmse(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="zero norm"):
        nmse(np.ones((2, 2)), np.zeros((2, 2)))
