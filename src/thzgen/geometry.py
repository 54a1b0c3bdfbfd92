"""Array geometry, Rayleigh distance, and the geometry conditioning vector."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateGeometryError, check_subarrays

CONDITION_DIM = 8

# Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Widely-spaced multi-subarray Tx/Rx layout.

    Each side has ``n`` antennas organized into ``k`` subarrays: elements
    inside a subarray are closely spaced (``intra_spacing``), subarray
    centers are widely spaced (``inter_spacing``).  ``uniform_linear``
    builds one and checks its counts and spacings; ``with_rx_origin`` copies
    a built one.
    """

    carrier_frequency: float
    n_tx: int
    n_rx: int
    k_tx: int
    k_rx: int
    intra_spacing: float
    inter_spacing: float
    tx_origin: np.ndarray
    rx_origin: np.ndarray
    element_positions_tx: np.ndarray = field(repr=False)
    element_positions_rx: np.ndarray = field(repr=False)
    subarray_centers_tx: np.ndarray = field(repr=False)
    subarray_centers_rx: np.ndarray = field(repr=False)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def n_tx_sub(self) -> int:
        return self.n_tx // self.k_tx

    @property
    def n_rx_sub(self) -> int:
        return self.n_rx // self.k_rx

    def aperture(self, side: str) -> float:
        """Largest pairwise element distance of the full array on one side."""
        pos = self._positions(side)
        span = pos.max(axis=0) - pos.min(axis=0)
        return float(np.linalg.norm(span))

    def _positions(self, side: str) -> np.ndarray:
        if side == "tx":
            return self.element_positions_tx
        if side == "rx":
            return self.element_positions_rx
        raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")

    def with_rx_origin(self, rx_origin) -> "ArrayGeometry":
        """Same layout with the whole Rx array translated to a new origin."""
        rx_origin = np.asarray(rx_origin, dtype=float)
        delta = rx_origin - self.rx_origin
        return replace(
            self,
            rx_origin=rx_origin,
            element_positions_rx=self.element_positions_rx + delta,
            subarray_centers_rx=self.subarray_centers_rx + delta,
        )

    @staticmethod
    def uniform_linear(
        carrier_frequency: float,
        n_tx: int,
        n_rx: int,
        k_tx: int = 1,
        k_rx: int = 1,
        intra_spacing: float | None = None,
        inter_spacing: float | None = None,
        tx_origin=(0.0, 0.0, 0.0),
        rx_origin=(10.0, 0.0, 0.0),
        axis=(0.0, 1.0, 0.0),
    ) -> "ArrayGeometry":
        """Uniform linear subarrays along ``axis``, centered on each origin.

        Defaults: half-wavelength pitch inside a subarray, 16-wavelength
        pitch between subarray centers.
        """
        check_subarrays("tx", n_tx, k_tx)
        check_subarrays("rx", n_rx, k_rx)
        if carrier_frequency <= 0:
            raise ValueError(f"carrier_frequency must be > 0, got {carrier_frequency}")
        wavelength = SPEED_OF_LIGHT / carrier_frequency
        if intra_spacing is None:
            intra_spacing = wavelength / 2.0
        if inter_spacing is None:
            inter_spacing = 16.0 * wavelength
        if intra_spacing <= 0:
            raise ValueError(f"intra_spacing must be > 0, got {intra_spacing}")
        if inter_spacing < intra_spacing:
            raise ValueError(
                f"inter_spacing ({inter_spacing}) must be >= "
                f"intra_spacing ({intra_spacing})"
            )
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"axis must have a finite length > 0, got {axis.tolist()}")
        axis = axis / norm
        tx_origin = np.asarray(tx_origin, dtype=float)
        rx_origin = np.asarray(rx_origin, dtype=float)

        def layout(n, k, origin):
            n_sub = n // k
            centers = origin + np.outer(
                (np.arange(k) - (k - 1) / 2.0) * inter_spacing, axis
            )
            offsets = np.outer(
                (np.arange(n_sub) - (n_sub - 1) / 2.0) * intra_spacing, axis
            )
            elements = (centers[:, None, :] + offsets[None, :, :]).reshape(n, 3)
            return elements, centers

        el_tx, c_tx = layout(n_tx, k_tx, tx_origin)
        el_rx, c_rx = layout(n_rx, k_rx, rx_origin)
        return ArrayGeometry(
            carrier_frequency=carrier_frequency,
            n_tx=n_tx,
            n_rx=n_rx,
            k_tx=k_tx,
            k_rx=k_rx,
            intra_spacing=intra_spacing,
            inter_spacing=inter_spacing,
            tx_origin=tx_origin,
            rx_origin=rx_origin,
            element_positions_tx=el_tx,
            element_positions_rx=el_rx,
            subarray_centers_tx=c_tx,
            subarray_centers_rx=c_rx,
        )


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Near/far-field boundary 2*D^2/lambda for an aperture of size D."""
    if aperture <= 0 or wavelength <= 0:
        raise ValueError(
            f"aperture and wavelength must be > 0, got {aperture}, {wavelength}"
        )
    return 2.0 * aperture**2 / wavelength


def condition_vector(tx_origin, rx_origin) -> np.ndarray:
    """The (8,) float64 array [d, x, y, z, sin(az), cos(az), sin(el), cos(el)]
    of the Rx offset (x, y, z) = rx - tx, its length d and its direction."""
    tx = np.asarray(tx_origin, dtype=float)
    rx = np.asarray(rx_origin, dtype=float)
    delta = rx - tx
    d = float(np.linalg.norm(delta))
    if d == 0.0:
        raise DegenerateGeometryError("tx and rx positions coincide")
    x, y, z = delta
    azimuth = np.arctan2(y, x)
    elevation = np.arcsin(np.clip(z / d, -1.0, 1.0))
    return np.array(
        [d, x, y, z,
         np.sin(azimuth), np.cos(azimuth),
         np.sin(elevation), np.cos(elevation)]
    )
