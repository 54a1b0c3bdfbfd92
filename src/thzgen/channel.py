"""Channel synthesis: planar, spherical, and hybrid planar-spherical models.

All three are one spherical-wave core, with each element's distance taken
to first order about a center: the array centers (PWM), the subarray
centers (HPSM) or the elements themselves (SWM, exact).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import ArrayGeometry
from .paths import Path, PathSet

SPATIAL = "spatial"
BEAMSPACE = "beamspace"

# Minimum scatterer-to-element distance before the free-space amplitude blows up.
_MIN_SEGMENT = 1e-9


@dataclass
class ChannelMatrix:
    entries: np.ndarray
    domain_tag: str
    geometry: ArrayGeometry

    def __post_init__(self):
        # A copy: no later write to the caller's array can undo the checks below.
        self.entries = np.array(self.entries, dtype=np.complex128)
        expected = (self.geometry.n_rx, self.geometry.n_tx)
        if self.entries.shape != expected:
            raise ValueError(
                f"channel shape {self.entries.shape} does not match geometry {expected}"
            )
        if self.domain_tag not in (SPATIAL, BEAMSPACE):
            raise ValueError(f"unknown domain tag {self.domain_tag!r}")
        if not np.isfinite(self.entries).all():
            raise ValueError("channel matrix contains non-finite entries")


def _subarray_rows(delta, dist, offsets, amplitude, wave_number: float) -> np.ndarray:
    """(S, n) rows amplitude/d * exp(-jk (d - <o, u>)) over the elements of one side.

    ``delta`` (S, k, 3) runs from each subarray center to S points at
    distances ``dist`` (S, k), u = delta/d, and ``offsets`` (k, n_sub, 3)
    place the elements about their centers: d - <o, u> is an element's
    distance to the point to first order in o.  A lone element is its
    subarray's center, so with n_sub = 1 that distance is d, exactly.
    """
    element_dist = dist[..., None]
    if offsets.shape[1] > 1:
        element_dist = element_dist - np.einsum("ski,kni->skn", delta / dist[..., None], offsets)
    phase = wave_number * element_dist
    rows = (amplitude / dist)[..., None] * np.exp(-1j * phase)
    return rows.reshape(len(dist), -1)


def pwm_channel(paths: PathSet, geometry: ArrayGeometry) -> ChannelMatrix:
    """Far-field planar-wave channel: the spherical model about the array centers.

    Each element's distance is taken to first order about its whole
    array's center, so every path's wavefront is planar across the array.
    A scatterer at an array center, or coincident array centers, is
    refused, and the error raised is the one of the first faulty path in
    path order.
    """
    c_r, c_t = geometry.rx_origin[None], geometry.tx_origin[None]
    names = ("an array center", "array centers")
    return _spherical_channel(paths, geometry, c_r, c_t, names)


def swm_channel(paths: PathSet, geometry: ArrayGeometry) -> ChannelMatrix:
    """Exact spherical-wave channel with per-antenna-pair distances.

    It is hpsm_channel with one element per subarray: each element is its
    own center, so no distance is taken to first order and every one is
    exact.  A scattered path l travels d1 from Tx element j to its
    scatterer and d2 on to Rx element i, with the term
    refl * (coef/d1) * (coef/d2) * exp(-jk (d1 + d2)); the line-of-sight
    path is refl * coef/d * exp(-jk d) over the element-pair distances d.
    Distances below ``_MIN_SEGMENT`` are refused, and the error raised is
    the one of the first faulty path in path order.
    """
    rx, tx = geometry.element_positions_rx, geometry.element_positions_tx
    names = ("an antenna element", "tx and rx elements")
    return _spherical_channel(paths, geometry, rx, tx, names)


def hpsm_channel(paths: PathSet, geometry: ArrayGeometry) -> ChannelMatrix:
    """Hybrid model: planar wavefronts per subarray, spherical across subarrays.

    It is the spherical model with each element's distance taken to first
    order about its subarray center, so with one element per subarray it is
    swm_channel, and with one subarray per side pwm_channel.  Distances
    below ``_MIN_SEGMENT`` are refused, and the error raised is the one of
    the first faulty path in path order.
    """
    c_r, c_t = geometry.subarray_centers_rx, geometry.subarray_centers_tx
    names = ("a subarray center", "subarray centers")
    return _spherical_channel(paths, geometry, c_r, c_t, names)


def _spherical_channel(paths, geometry: ArrayGeometry, c_r, c_t, names) -> ChannelMatrix:
    """The spherical model about the centers ``c_r`` and ``c_t`` of equal blocks.

    A point at distance d from a center c along the unit vector u lies
    d - <o, u> from the element at offset o, to first order in o, and the
    amplitude coef/d is the center's.  So all scattered paths add up to one
    rank-S product h = U^T V with U (S, n_rx) and V (S, n_tx) from
    ``_subarray_rows``.  The line-of-sight path is one rank-one block per
    pair of centers, refl * coef/d * exp(-jk (d + <o_r - o_t, u>)) with d
    and u from the Tx center to the Rx center; with one element per block
    the offsets are zero and its phase factors, exactly 1, are skipped.
    ``names`` (one center, both sides' centers) name them in the errors.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("PathSet is empty")
    lam = geometry.wavelength
    k_wave = 2.0 * np.pi / lam
    coef = lam / (4.0 * np.pi)
    off_r = geometry.element_positions_rx.reshape(len(c_r), -1, 3) - c_r[:, None]
    off_t = geometry.element_positions_tx.reshape(len(c_t), -1, 3) - c_t[:, None]
    single = off_r.shape[1] == off_t.shape[1] == 1

    refl = np.array([p.reflection_gain for p in paths])
    scattered = [l for l, p in enumerate(paths) if not p.is_los]
    los = [l for l, p in enumerate(paths) if p.is_los]
    s = np.array([paths[l].scatterer_position for l in scattered]).reshape(-1, 3)  # (S, 3)
    to_t = s[:, None] - c_t  # (S, k_t, 3)
    to_r = s[:, None] - c_r  # (S, k_r, 3)
    d1 = np.linalg.norm(to_t, axis=-1)
    d2 = np.linalg.norm(to_r, axis=-1)
    near = iter(np.minimum(d1.min(axis=1), d2.min(axis=1)) < _MIN_SEGMENT)
    if los:
        d = np.linalg.norm(c_r[:, None] - c_t, axis=-1)  # (k_r, k_t)
    for l, path in enumerate(paths):
        if path.is_los:
            if d.min() < _MIN_SEGMENT:
                raise DegenerateGeometryError(f"{names[1]} coincide")
        elif next(near):
            raise DegenerateGeometryError(f"scatterer {l} coincides with {names[0]}")

    h = np.zeros((geometry.n_rx, geometry.n_tx), dtype=np.complex128)
    if los and not single:
        axis = (c_r[:, None] - c_t) / d[..., None]  # (k_r, k_t, 3)
        r = np.exp(-1j * k_wave * np.einsum("ani,abi->anb", off_r, axis))[..., None]
        t = np.exp(1j * k_wave * np.einsum("bni,abi->abn", off_t, axis))[:, None]
    blocks = h.reshape(len(c_r), off_r.shape[1], len(c_t), off_t.shape[1])  # a view of h
    for l in los:
        amp = (refl[l] * coef / d * np.exp(-1j * k_wave * d))[:, None, :, None]
        blocks += amp if single else amp * r * t
    if scattered:
        v = _subarray_rows(to_t, d1, off_t, coef, k_wave)
        u = _subarray_rows(to_r, d2, off_r, refl[scattered, None] * coef, k_wave)
        h += u.T @ v
    return ChannelMatrix(entries=h, domain_tag=SPATIAL, geometry=geometry)
