"""Stochastic multipath generation (GSCM-lite) and path containers.

``GscmConfig`` checks its statistics when built and is frozen, so
``draw_paths`` takes it as valid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_finite
from .geometry import ArrayGeometry


@dataclass
class Path:
    """One propagation path: its scatterer, or none for the line of sight.

    ``reflection_gain`` is the distance-independent gain factor; the channel
    models take each path's amplitude and phase from the geometry.
    """

    scatterer_position: np.ndarray | None = None
    reflection_gain: float = 1.0

    def __post_init__(self):
        if self.scatterer_position is not None:
            self.scatterer_position = np.asarray(self.scatterer_position, dtype=float)

    @property
    def is_los(self) -> bool:
        return self.scatterer_position is None


@dataclass
class PathSet:
    paths: list[Path]

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("a PathSet needs at least one path")
        if sum(p.is_los for p in self.paths) > 1:
            raise ValueError("at most one line-of-sight path is allowed")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


# draw_paths divides by the K factor 10 ** (k_db / 10), which is finite and
# non-zero in float64 only for |k_db| below about 3080 dB; with these bounds
# even a 25-sigma draw stays within 2800 dB.
K_FACTOR_MEAN_DB_LIMIT = 300.0
K_FACTOR_STD_DB_LIMIT = 100.0
# In metres from the Tx-Rx midpoint, far beyond any local cluster, so every
# path distance and its square stay finite in float64.
SCATTERER_RADIUS_LIMIT = 1e6
# draw_paths scales each amplitude by d ** (-(ple - 2) / 2) at the Tx-Rx
# distance d, and a scattered path by its square; across the coordinate box
# (d up to 3.5e6 m) these stay within 1e-53 and 1e14, so every gain stays a
# finite non-zero float64.  At -1000 the power overflows, at 1000 it is 0.
PATH_LOSS_EXPONENT_RANGE = (0.0, 10.0)


@dataclass(frozen=True)
class GscmConfig:
    """Statistics of the stochastic scatterer layout.

    Cluster centroids are uniform in direction at a uniform radius from the
    Tx-Rx midpoint; ray angles are Laplacian around the centroid direction;
    the line-of-sight to scattered power ratio is lognormal (normal in dB).
    """

    n_clusters: int = 3
    rays_per_cluster: int = 5
    k_factor_mean_db: float = 10.0
    k_factor_std_db: float = 3.0
    azimuth_spread: float = 0.05
    elevation_spread: float = 0.05
    path_loss_exponent: float = 2.0
    scatterer_radius_min: float = 1.0
    scatterer_radius_max: float = 5.0

    def __post_init__(self):
        for name in ("n_clusters", "rays_per_cluster"):
            check_count(name, getattr(self, name))
        for name in ("k_factor_mean_db", "k_factor_std_db", "azimuth_spread",
                     "elevation_spread", "path_loss_exponent", "scatterer_radius_min",
                     "scatterer_radius_max"):
            check_finite(name, getattr(self, name))
        if abs(self.k_factor_mean_db) > K_FACTOR_MEAN_DB_LIMIT:
            raise ValueError(
                f"k_factor_mean_db must be in [-{K_FACTOR_MEAN_DB_LIMIT:g}, "
                f"{K_FACTOR_MEAN_DB_LIMIT:g}], got {self.k_factor_mean_db}")
        if self.k_factor_std_db < 0:
            raise ValueError(f"k_factor_std_db must be >= 0, got {self.k_factor_std_db}")
        if self.k_factor_std_db > K_FACTOR_STD_DB_LIMIT:
            raise ValueError(f"k_factor_std_db must be <= {K_FACTOR_STD_DB_LIMIT:g}, "
                             f"got {self.k_factor_std_db}")
        low, high = PATH_LOSS_EXPONENT_RANGE
        if not low <= self.path_loss_exponent <= high:
            raise ValueError(f"path_loss_exponent must be in [{low:g}, {high:g}], "
                             f"got {self.path_loss_exponent}")
        if self.azimuth_spread <= 0 or self.elevation_spread <= 0:
            raise ValueError("angular spreads must be > 0")
        if not 0 < self.scatterer_radius_min < self.scatterer_radius_max:
            raise ValueError(
                f"need 0 < radius min < max, got "
                f"[{self.scatterer_radius_min}, {self.scatterer_radius_max}]"
            )
        if self.scatterer_radius_max > SCATTERER_RADIUS_LIMIT:
            raise ValueError(f"scatterer_radius_max must be <= {SCATTERER_RADIUS_LIMIT:g}, "
                             f"got {self.scatterer_radius_max}")


def _free_space_amplitude(wavelength: float, distance: float) -> float:
    return wavelength / (4.0 * np.pi * distance)


def draw_paths(
    rng: np.random.Generator, config: GscmConfig, geometry: ArrayGeometry
) -> PathSet:
    """Draw one LoS path plus n_clusters*rays_per_cluster scattered paths.

    Scattered ray powers are scaled so the LoS-to-scattered power ratio
    equals the drawn Rician K-factor; all amplitudes carry an extra
    (d/1m)^(-(ple-2)/2) factor so total power follows the free-space law
    adjusted by the configured path-loss exponent.
    """
    tx = geometry.tx_origin
    rx = geometry.rx_origin
    lam = geometry.wavelength
    d = float(np.linalg.norm(rx - tx))
    if d == 0.0:
        raise ValueError("tx and rx origins must be distinct")

    ple_amp = d ** (-(config.path_loss_exponent - 2.0) / 2.0)
    los_amp = _free_space_amplitude(lam, d) * ple_amp
    paths = [Path(reflection_gain=ple_amp)]  # the line of sight

    # Rician K-factor fixes the total scattered power.
    k_db = rng.normal(config.k_factor_mean_db, config.k_factor_std_db)
    k_lin = 10.0 ** (k_db / 10.0)
    scattered_power = los_amp**2 / k_lin

    midpoint = (tx + rx) / 2.0
    n_rays = config.n_clusters * config.rays_per_cluster
    weights = rng.exponential(1.0, size=n_rays)
    weights /= weights.sum()

    ray = 0
    for _ in range(config.n_clusters):
        radius = rng.uniform(config.scatterer_radius_min, config.scatterer_radius_max)
        # Uniform direction on the sphere.
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        az_c = float(np.arctan2(v[1], v[0]))
        el_c = float(np.arcsin(np.clip(v[2], -1.0, 1.0)))
        for _ in range(config.rays_per_cluster):
            az = az_c + rng.laplace(0.0, config.azimuth_spread)
            el = np.clip(
                el_c + rng.laplace(0.0, config.elevation_spread),
                -np.pi / 2,
                np.pi / 2,
            )
            scat = midpoint + radius * np.array(
                [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
            )
            d1 = float(np.linalg.norm(scat - tx))
            d2 = float(np.linalg.norm(rx - scat))
            amp_target = float(np.sqrt(scattered_power * weights[ray])) * ple_amp
            segment_amp = _free_space_amplitude(lam, d1) * _free_space_amplitude(lam, d2)
            paths.append(
                Path(scatterer_position=scat, reflection_gain=amp_target / segment_amp)
            )
            ray += 1
    return PathSet(paths=paths)
