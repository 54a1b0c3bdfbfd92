"""Fidelity metrics: SSIM (+ CDF), beamspace angular power profiles, NMSE."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BEAMSPACE, ChannelMatrix
from .dataset import Dataset


@dataclass(frozen=True)
class SsimParams:
    window_size: int = 11
    window_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03


def _gaussian_window(size_r: int, size_c: int, sigma: float) -> np.ndarray:
    def g(n):
        x = np.arange(n) - (n - 1) / 2.0
        w = np.exp(-(x**2) / (2.0 * sigma**2))
        return w / w.sum()

    return np.outer(g(size_r), g(size_c))


def _windowed_moments(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    views = np.lib.stride_tricks.sliding_window_view(x, window.shape)
    return np.tensordot(views, window, axes=([2, 3], [0, 1]))


def ssim(a: np.ndarray, b: np.ndarray, params: SsimParams = SsimParams()) -> float:
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

    h, w = a.shape
    window = _gaussian_window(
        min(params.window_size, h), min(params.window_size, w), params.window_sigma
    )
    data_range = max(np.abs(a).max(), np.abs(b).max())
    if data_range == 0.0:
        return 1.0
    c1 = (params.k1 * data_range) ** 2
    c2 = (params.k2 * data_range) ** 2

    mu_a = _windowed_moments(a, window)
    mu_b = _windowed_moments(b, window)
    var_a = _windowed_moments(a * a, window) - mu_a**2
    var_b = _windowed_moments(b * b, window) - mu_b**2
    cov = _windowed_moments(a * b, window) - mu_a * mu_b

    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


def ssim_complex(
    a: np.ndarray,
    b: np.ndarray,
    params: SsimParams = SsimParams(),
    mode: str = "magnitude",
) -> float:
    """SSIM of complex channel matrices.

    ``magnitude`` compares |a| vs |b| (the intensity image); ``realimag``
    averages SSIM over the real and imaginary parts.
    """
    if mode == "magnitude":
        return ssim(np.abs(a), np.abs(b), params)
    if mode == "realimag":
        return 0.5 * (
            ssim(np.real(a), np.real(b), params) + ssim(np.imag(a), np.imag(b), params)
        )
    raise ValueError(f"unknown SSIM mode {mode!r}")


@dataclass
class SsimCdf:
    values: np.ndarray  # sorted ascending
    cdf: np.ndarray  # empirical ordinates in (0, 1]
    mean: float

    @classmethod
    def from_values(cls, values) -> "SsimCdf":
        """Empirical CDF of already computed per-pair SSIM values."""
        if len(values) == 0:
            raise ValueError("no pairs to evaluate")
        values = np.sort(np.asarray(values, dtype=float))
        cdf = np.arange(1, len(values) + 1) / len(values)
        return cls(values=values, cdf=cdf, mean=float(values.mean()))


def ssim_cdf(pairs, params: SsimParams = SsimParams(), mode: str = "magnitude") -> SsimCdf:
    """Empirical CDF of per-pair SSIM values over (generated, reference) pairs."""
    return SsimCdf.from_values([ssim_complex(gen, ref, params, mode) for gen, ref in pairs])


@dataclass
class AngularPowerMap:
    tx_profile: np.ndarray  # (n_tx,) column marginals of mean |Hb|^2
    rx_profile: np.ndarray  # (n_rx,) row marginals
    sample_count: int


def _as_complex_stack(samples) -> np.ndarray:
    if isinstance(samples, Dataset):
        return samples.complex_matrices()
    if isinstance(samples, (list, tuple)) and samples and isinstance(
        samples[0], ChannelMatrix
    ):
        shapes = {m.entries.shape for m in samples}
        domains = {m.domain_tag for m in samples}
        if domains != {BEAMSPACE}:
            raise ValueError(f"expected beamspace channels, got domains {domains}")
        if len(shapes) != 1:
            raise ValueError(f"inconsistent channel shapes {shapes}")
        return np.stack([m.entries for m in samples])
    arr = np.asarray(samples)
    if arr.ndim == 2:
        arr = arr[None]
    return arr.astype(complex)


def angular_power(samples) -> AngularPowerMap:
    """Mean beamspace power map reduced to Tx (column) and Rx (row) marginals."""
    stack = _as_complex_stack(samples)
    mean_power = np.mean(np.abs(stack) ** 2, axis=0)
    return AngularPowerMap(
        tx_profile=mean_power.sum(axis=0),
        rx_profile=mean_power.sum(axis=1),
        sample_count=stack.shape[0],
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
