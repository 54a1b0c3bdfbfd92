"""Array geometry and its config, a run's record, Rayleigh distance, and the
conditioning vector."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateGeometryError, check_point, check_range, check_seed,
                     check_subarrays)

CONDITION_DIM = 8

# Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299792458.0

# Hz: 1 MHz to 100 THz, wavelengths of 300 m down to 3 um.  With every
# coordinate inside COORDINATE_LIMIT, each free-space amplitude
# lambda / (4 pi d) of a path, and the product of a scattered path's two,
# stays a normal non-zero float64; at a 1e300 Hz carrier they underflow to 0.
CARRIER_BAND = (1e6, 1e14)
# Metres, per coordinate, for the Tx origin and the sampling region's
# corners, as paths.SCATTERER_RADIUS_LIMIT is for the scatterers: every
# distance and its square stay finite, and the free-space amplitudes
# non-zero; at a 1e300 m origin they underflow to 0.  Each array's extent
# along its axis is bounded by it too, so no element coordinate exceeds 1.5
# times the limit and the element distances stay as finite; at a 1e300 m
# spacing they overflowed.
COORDINATE_LIMIT = 1e6


def check_position(name: str, value) -> tuple:
    """``check_point``, and refuse a coordinate beyond ``COORDINATE_LIMIT``."""
    point = check_point(name, value)
    if max(abs(c) for c in point) > COORDINATE_LIMIT:
        raise ValueError(f"{name} must be 3 numbers in [-{COORDINATE_LIMIT:g}, "
                         f"{COORDINATE_LIMIT:g}] m, got {list(point)}")
    return point


@dataclass(frozen=True)
class ArrayGeometry:
    """Widely-spaced multi-subarray Tx/Rx layout.

    Each side has ``n`` antennas organized into ``k`` subarrays: elements
    inside a subarray are closely spaced (``intra_spacing``), subarray
    centers are widely spaced (``inter_spacing``).  ``GeometryConfig.at``
    and ``uniform_linear`` build one, and ``config`` is the
    ``GeometryConfig`` that laid it out; ``with_rx_origin`` copies a built one.
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
    config: GeometryConfig = field(repr=False)

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

        The ``GeometryConfig`` of these values, laid out at ``rx_origin``.
        """
        return GeometryConfig(
            carrier_frequency, n_tx, n_rx, k_tx, k_rx, intra_spacing, inter_spacing,
            tx_origin, axis,
        ).at(rx_origin)


@dataclass(frozen=True)
class GeometryConfig:
    """The Tx/Rx array geometry of a run, checked when built.

    ``n`` antennas per side in ``k`` uniform linear subarrays along ``axis``;
    a ``None`` spacing is a half-wavelength pitch inside a subarray and a
    16-wavelength pitch between subarray centers.  ``at`` lays the arrays
    out with the Rx array centered on a position.
    """

    carrier_frequency: float = 0.3e12
    n_tx: int = 16
    n_rx: int = 8
    k_tx: int = 2
    k_rx: int = 2
    intra_spacing: float | None = None
    inter_spacing: float | None = None
    tx_origin: tuple = (0.0, 0.0, 0.0)
    axis: tuple = (0.0, 1.0, 0.0)

    def __post_init__(self):
        check_subarrays("tx", self.n_tx, self.k_tx)
        check_subarrays("rx", self.n_rx, self.k_rx)
        check_range("carrier_frequency", self.carrier_frequency, *CARRIER_BAND)
        intra_spacing, inter_spacing = self.spacings
        check_range("intra_spacing", intra_spacing, 0.0, math.inf, "()")
        check_range("inter_spacing", inter_spacing, intra_spacing, math.inf, "[)")
        for side in ("tx", "rx"):
            n, k = getattr(self, f"n_{side}"), getattr(self, f"k_{side}")
            extent = (k - 1) * inter_spacing + (n // k - 1) * intra_spacing
            if extent > COORDINATE_LIMIT:
                raise ValueError(
                    f"the {side} array's extent (k_{side} - 1) * inter_spacing + "
                    f"(n_{side} / k_{side} - 1) * intra_spacing must be <= "
                    f"{COORDINATE_LIMIT:g} m, got {extent:g} m")
        axis = check_point("axis", self.axis)
        if not any(axis):  # finite components: only the zero vector has no direction
            raise ValueError(
                f"axis must have a finite length > 0, got {list(map(float, axis))}")
        # Keep the checked points as tuples (JSON gives lists); the class is frozen.
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "tx_origin", check_position("tx_origin", self.tx_origin))

    @property
    def spacings(self) -> tuple:
        """``(intra_spacing, inter_spacing)`` with a ``None`` resolved."""
        wavelength = SPEED_OF_LIGHT / self.carrier_frequency
        return (
            wavelength / 2.0 if self.intra_spacing is None else self.intra_spacing,
            16.0 * wavelength if self.inter_spacing is None else self.inter_spacing,
        )

    def at(self, rx_origin) -> ArrayGeometry:
        """The arrays laid out, with the Rx array centered on ``rx_origin``."""
        intra_spacing, inter_spacing = self.spacings
        axis = np.asarray(self.axis, dtype=float)
        # Scaled by a power of two first, so the length cannot overflow; the
        # scaling is exact, so this is axis / norm(axis) wherever that norm is
        # finite and non-zero.
        axis = np.ldexp(axis, -math.frexp(np.abs(axis).max())[1])
        axis = axis / np.linalg.norm(axis)
        tx_origin = np.asarray(self.tx_origin, dtype=float)
        rx_origin = np.asarray(check_point("rx_origin", rx_origin), dtype=float)

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

        el_tx, c_tx = layout(self.n_tx, self.k_tx, tx_origin)
        el_rx, c_rx = layout(self.n_rx, self.k_rx, rx_origin)
        return ArrayGeometry(
            carrier_frequency=self.carrier_frequency,
            n_tx=self.n_tx,
            n_rx=self.n_rx,
            k_tx=self.k_tx,
            k_rx=self.k_rx,
            intra_spacing=intra_spacing,
            inter_spacing=inter_spacing,
            tx_origin=tx_origin,
            rx_origin=rx_origin,
            element_positions_tx=el_tx,
            element_positions_rx=el_rx,
            subarray_centers_tx=c_tx,
            subarray_centers_rx=c_rx,
            config=self,
        )


@dataclass(frozen=True)
class CheckpointMeta(GeometryConfig):
    """A run's geometry, its data's normalization scalar and its seed: the header
    of a dataset file and the ``meta`` of a checkpoint."""

    normalization_scalar: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        check_range("normalization_scalar", self.normalization_scalar, 0.0, math.inf, "()")
        check_seed("master_seed", self.master_seed)


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Near/far-field boundary 2*D^2/lambda for an aperture of size D."""
    check_range("aperture", aperture, 0.0, math.inf, "()")
    check_range("wavelength", wavelength, 0.0, math.inf, "()")
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
