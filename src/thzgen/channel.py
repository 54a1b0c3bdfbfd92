"""Channel synthesis: planar, spherical, and hybrid planar-spherical models."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import ArrayGeometry, unit_direction
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
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        expected = (self.geometry.n_rx, self.geometry.n_tx)
        if self.entries.shape != expected:
            raise ValueError(
                f"channel shape {self.entries.shape} does not match geometry {expected}"
            )
        if self.domain_tag not in (SPATIAL, BEAMSPACE):
            raise ValueError(f"unknown domain tag {self.domain_tag!r}")
        if not np.all(np.isfinite(self.entries.view(float))):
            raise ValueError("channel matrix contains non-finite entries")

    @property
    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def steering_vector(
    geometry: ArrayGeometry,
    side: str,
    subarray_index,
    azimuth: float,
    elevation: float,
) -> np.ndarray:
    """Unit-norm array response vector of a full array or one subarray.

    Element k has value (1/sqrt(n)) * exp(-j * 2*pi/lambda * <r_k, u>)
    where r_k is the element offset from the (sub)array reference point.
    """
    positions = geometry._positions(side)
    if subarray_index == "full":
        reference = geometry.tx_origin if side == "tx" else geometry.rx_origin
        offsets = positions - reference
    else:
        k = geometry.k_tx if side == "tx" else geometry.k_rx
        if not 0 <= subarray_index < k:
            raise IndexError(f"subarray index {subarray_index} out of range [0, {k})")
        n_sub = geometry.n_tx_sub if side == "tx" else geometry.n_rx_sub
        sl = slice(subarray_index * n_sub, (subarray_index + 1) * n_sub)
        offsets = positions[sl] - geometry._centers(side)[subarray_index]
    u = unit_direction(azimuth, elevation)
    phase = -2.0 * np.pi / geometry.wavelength * (offsets @ u)
    n = offsets.shape[0]
    return np.exp(1j * phase) / np.sqrt(n)


def _unit_rows(angles) -> np.ndarray:
    """(L, 3) unit vectors of L (azimuth, elevation) pairs, as unit_direction."""
    azimuth, elevation = np.asarray(angles, dtype=float).T
    return np.moveaxis(unit_direction(azimuth, elevation), 0, -1)


def _round_trip_rows(delta: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Unit vectors along ``delta`` (..., 3) of length ``dist`` (...).

    They pass through the same (azimuth, elevation) pair that
    direction_angles takes and unit_direction turns back into a vector, so a
    batch of them matches the per-path helpers.
    """
    azimuth = np.arctan2(delta[..., 1], delta[..., 0])
    elevation = np.arcsin(np.clip(delta[..., 2] / dist, -1.0, 1.0))
    return np.moveaxis(unit_direction(azimuth, elevation), 0, -1)


def _conj_responses(subscripts: str, offsets, directions, wavelength: float):
    """Conjugated steering vectors for a batch of directions at once.

    ``subscripts`` is the einsum that contracts element offsets (..., n, 3)
    with unit directions (..., 3) into the projections <r_k, u>; each
    response is conj(steering_vector) = exp(+j * 2*pi/lambda * <r_k, u>) / sqrt(n).
    """
    projection = np.einsum(subscripts, offsets, directions)
    return np.exp(1j * (2.0 * np.pi / wavelength) * projection) / np.sqrt(offsets.shape[-2])


def pwm_channel(paths: PathSet, geometry: ArrayGeometry) -> ChannelMatrix:
    """Far-field planar-wave channel: one product of the stacked path responses.

    Element phases advance toward the path on both sides (matching the
    exact spherical model's exp(-jk*distance) under linearization), so both
    response vectors enter conjugated: h = (conj(A_r) * alpha) @ conj(A_t)^T.
    """
    if len(paths) == 0:
        raise ValueError("PathSet is empty")
    lam = geometry.wavelength
    alpha = np.array([p.gain_magnitude * np.exp(-1j * p.global_phase) for p in paths])
    a_r = _conj_responses(
        "ni,li->nl", geometry.element_positions_rx - geometry.rx_origin,
        _unit_rows([p.aoa for p in paths]), lam,
    )
    a_t = _conj_responses(
        "ni,li->nl", geometry.element_positions_tx - geometry.tx_origin,
        _unit_rows([p.aod for p in paths]), lam,
    )
    h = (a_r * alpha) @ a_t.T
    return ChannelMatrix(entries=h, domain_tag=SPATIAL, geometry=geometry)


def swm_channel(paths: PathSet, geometry: ArrayGeometry) -> ChannelMatrix:
    """Exact spherical-wave channel with per-antenna-pair distances.

    Scattered paths use the two-segment free-space amplitude product,
    line-of-sight paths a single segment, and ``reflection_gain`` multiplies
    each path.  Each path's distances are checked against ``_MIN_SEGMENT``
    before they are used.
    """
    tx_pos = geometry.element_positions_tx
    rx_pos = geometry.element_positions_rx
    lam = geometry.wavelength
    k = 2.0 * np.pi / lam
    coef = lam / (4.0 * np.pi)
    h = np.zeros((rx_pos.shape[0], tx_pos.shape[0]), dtype=np.complex128)
    for l, path in enumerate(paths):
        refl = 1.0 if path.reflection_gain is None else path.reflection_gain
        if path.scatterer_position is not None:
            s = path.scatterer_position
            d1 = np.linalg.norm(tx_pos - s, axis=1)  # (n_tx,)
            d2 = np.linalg.norm(rx_pos - s, axis=1)  # (n_rx,)
            if min(d1.min(), d2.min()) < _MIN_SEGMENT:
                raise DegenerateGeometryError(
                    f"scatterer {l} coincides with an antenna element"
                )
            amp = refl * (coef / d1)[None, :] * (coef / d2)[:, None]
            dist = d1[None, :] + d2[:, None]
        elif path.is_los:
            diff = rx_pos[:, None, :] - tx_pos[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            if dist.min() < _MIN_SEGMENT:
                raise DegenerateGeometryError("tx and rx elements coincide")
            amp = refl * coef / dist
        else:
            raise ValueError(
                f"path {l} is not line-of-sight and carries no scatterer position"
            )
        h += amp * np.exp(-1j * k * dist)
    return ChannelMatrix(entries=h, domain_tag=SPATIAL, geometry=geometry)


def hpsm_channel(paths: PathSet, geometry: ArrayGeometry) -> ChannelMatrix:
    """Hybrid model: planar wavefronts per subarray, spherical across subarrays.

    Per-subarray-pair gains, phases, and angles are re-derived from
    subarray-center geometry for paths that carry a scatterer position (or
    are line-of-sight); synthetic planar paths fall back to their stored
    full-array parameters with a center-offset phase correction.

    Every (Rx subarray a, Tx subarray b, path l) triple gets a complex
    amplitude alpha[a, b, l] and a pair of directions, and the blocks are
    h[a, :, b, :] = sum_l alpha[a, b, l] * conj(a_r[a, b, l]) conj(a_t[a, b, l])^T.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("PathSet is empty")
    lam = geometry.wavelength
    k_wave = 2.0 * np.pi / lam
    k_r, k_t = geometry.k_rx, geometry.k_tx
    n_sub_r, n_sub_t = geometry.n_rx_sub, geometry.n_tx_sub
    sub_scale = np.sqrt(n_sub_r * n_sub_t)
    full_scale = np.sqrt(geometry.n_rx * geometry.n_tx)
    coef = lam / (4.0 * np.pi)
    c_r = geometry.subarray_centers_rx  # (k_r, 3)
    c_t = geometry.subarray_centers_tx  # (k_t, 3)

    scattered = [l for l, p in enumerate(paths) if p.scatterer_position is not None]
    los = [l for l, p in enumerate(paths) if p.scatterer_position is None and p.is_los]
    planar = [
        l for l, p in enumerate(paths) if p.scatterer_position is None and not p.is_los
    ]
    refl = np.array(
        [1.0 if p.reflection_gain is None else p.reflection_gain for p in paths]
    )

    shape = (k_r, k_t, len(paths))
    alpha = np.empty(shape, dtype=np.complex128)
    u_r = np.empty(shape + (3,))
    u_t = np.empty(shape + (3,))

    if scattered:
        s = np.array([paths[l].scatterer_position for l in scattered])  # (S, 3)
        to_t = s[None, None] - c_t[None, :, None]  # (1, k_t, S, 3)
        to_r = s[None, None] - c_r[:, None, None]  # (k_r, 1, S, 3)
        d1 = np.linalg.norm(to_t, axis=-1)
        d2 = np.linalg.norm(to_r, axis=-1)
        if min(d1.min(), d2.min()) < _MIN_SEGMENT:
            raise DegenerateGeometryError("scatterer coincides with a subarray center")
        gain = sub_scale * refl[scattered] * (coef / d1) * (coef / d2)
        alpha[..., scattered] = gain * np.exp(-1j * (k_wave * (d1 + d2)))
        u_t[:, :, scattered] = _round_trip_rows(to_t, d1)
        u_r[:, :, scattered] = _round_trip_rows(to_r, d2)
    if los:
        delta = c_r[:, None] - c_t[None, :]  # (k_r, k_t, 3)
        d = np.linalg.norm(delta, axis=-1)
        if d.min() < _MIN_SEGMENT:
            raise DegenerateGeometryError("subarray centers coincide")
        gain = sub_scale * refl[los] * coef / d[..., None]
        alpha[..., los] = gain * np.exp(-1j * (k_wave * d[..., None]))
        u_t[:, :, los] = _round_trip_rows(delta, d)[:, :, None]
        u_r[:, :, los] = _round_trip_rows(-delta, d)[:, :, None]
    if planar:
        # Planar paths: stored angles everywhere, phase advanced to the
        # subarray centers.
        p_r = _unit_rows([paths[l].aoa for l in planar])  # (P, 3)
        p_t = _unit_rows([paths[l].aod for l in planar])
        gain = np.array([paths[l].gain_magnitude for l in planar]) * sub_scale / full_scale
        phase = (
            np.array([paths[l].global_phase for l in planar])
            - k_wave * ((c_r - geometry.rx_origin) @ p_r.T)[:, None, :]
            - k_wave * ((c_t - geometry.tx_origin) @ p_t.T)[None, :, :]
        )
        alpha[..., planar] = gain * np.exp(-1j * phase)
        u_r[:, :, planar] = p_r
        u_t[:, :, planar] = p_t

    off_r = geometry.element_positions_rx.reshape(k_r, n_sub_r, 3) - c_r[:, None]
    off_t = geometry.element_positions_tx.reshape(k_t, n_sub_t, 3) - c_t[:, None]
    a_r = _conj_responses("ani,abli->abln", off_r, u_r, lam)  # (k_r, k_t, L, n_sub_r)
    a_t = _conj_responses("bni,abli->abln", off_t, u_t, lam)  # (k_r, k_t, L, n_sub_t)
    h = np.einsum("abl,abli,ablj->aibj", alpha, a_r, a_t, optimize=True)
    return ChannelMatrix(
        entries=h.reshape(geometry.n_rx, geometry.n_tx), domain_tag=SPATIAL, geometry=geometry
    )
