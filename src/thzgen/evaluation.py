"""Fidelity metrics on numpy arrays: SSIM, beamspace angular power profiles, NMSE.

SSIM's Gaussian window and stabilizing constants are the module constants below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Window taps per axis (before clamping) and sigma; C1 = (K1 * range)^2, C2 = (K2 * range)^2.
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03


def _gaussian_taps(n: int, sigma: float) -> np.ndarray:
    x = np.arange(n) - (n - 1) / 2.0
    w = np.exp(-(x**2) / (2.0 * sigma**2))
    return w / w.sum()


def _taps_pass(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode filter of ``x`` along axis 1, as shifted multiply-adds."""
    n = x.shape[1] - len(taps) + 1
    out = np.multiply(x[:, :n], taps[0])
    tmp = np.empty_like(out)
    for i in range(1, len(taps)):
        out += np.multiply(x[:, i : i + n], taps[i], out=tmp)
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean windowed luminance/contrast/structure similarity of two real matrices.

    The Gaussian window is clamped to the input dimensions so small channel
    matrices remain measurable; the dynamic range is the per-pair maximum
    absolute value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or min(a.shape) < 3:
        raise ValueError(f"inputs must be at least 3x3 matrices, got {a.shape}")

    data_range = max(np.abs(a).max(), np.abs(b).max())
    if data_range == 0.0:
        return 1.0
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2

    # The window is separable: one valid-mode pass down the rows, one along the columns.
    taps_r, taps_c = (_gaussian_taps(min(WINDOW_SIZE, n), WINDOW_SIGMA) for n in a.shape)
    rows = _taps_pass(np.stack((a, b, a * a, b * b, a * b)), taps_r)
    mu_a, mu_b, var_a, var_b, cov = _taps_pass(rows.swapaxes(1, 2), taps_c).swapaxes(1, 2)
    var_a -= mu_a**2
    var_b -= mu_b**2
    cov -= mu_a * mu_b

    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


def ssim_complex(a: np.ndarray, b: np.ndarray) -> float:
    """SSIM of complex channel matrices: |a| vs |b|, the intensity images."""
    return ssim(np.abs(a), np.abs(b))


@dataclass
class AngularPowerMap:
    tx_profile: np.ndarray  # (n_tx,) column marginals of mean |Hb|^2
    rx_profile: np.ndarray  # (n_rx,) row marginals


def angular_power(samples: np.ndarray) -> AngularPowerMap:
    """Mean power map of a complex (Nr, Nt) channel or (n, Nr, Nt) stack, reduced
    to Tx (column) and Rx (row) marginals."""
    mean_power = np.abs(samples) ** 2
    if mean_power.ndim == 3:
        mean_power = mean_power.mean(axis=0)
    return AngularPowerMap(
        tx_profile=mean_power.sum(axis=0),
        rx_profile=mean_power.sum(axis=1),
    )


@dataclass
class ProfileComparison:
    tv_distance: float
    cosine_similarity: float
    argmax_match: bool


@dataclass
class PowerComparison:
    tx: ProfileComparison
    rx: ProfileComparison


def _compare_profiles(gen: np.ndarray, ref: np.ndarray) -> ProfileComparison:
    if gen.shape != ref.shape:
        raise ValueError(f"profile shapes differ: {gen.shape} vs {ref.shape}")
    sg, sr = gen.sum(), ref.sum()
    if sg <= 0 or sr <= 0:
        raise ValueError("cannot compare a zero-energy power profile")
    tv = 0.5 * float(np.abs(gen / sg - ref / sr).sum())
    cosine = float(gen @ ref / (np.linalg.norm(gen) * np.linalg.norm(ref)))
    return ProfileComparison(
        tv_distance=tv,
        cosine_similarity=cosine,
        argmax_match=bool(np.argmax(gen) == np.argmax(ref)),
    )


def compare_power(gen: AngularPowerMap, ref: AngularPowerMap) -> PowerComparison:
    return PowerComparison(
        tx=_compare_profiles(gen.tx_profile, ref.tx_profile),
        rx=_compare_profiles(gen.rx_profile, ref.rx_profile),
    )


def nmse(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F^2 / ||b||_F^2."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = float(np.linalg.norm(b) ** 2)
    if ref == 0.0:
        raise ValueError("reference matrix has zero norm")
    return float(np.linalg.norm(a - b) ** 2) / ref
