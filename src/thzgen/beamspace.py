"""DFT beam dictionaries and spatial <-> beamspace transforms."""
from __future__ import annotations

import numpy as np

from .channel import BEAMSPACE, SPATIAL, ChannelMatrix


def dft_dictionary(n: int) -> np.ndarray:
    """n-point unitary DFT matrix: entry (a, b) = exp(-2j*pi*a*b/n)/sqrt(n)."""
    if n < 1:
        raise ValueError(f"dictionary size must be >= 1, got {n}")
    a = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)


def block_dictionary(k: int, n_sub: int) -> np.ndarray:
    """Unitary block-diagonal dictionary: k copies of the n_sub-point DFT."""
    if k < 1 or n_sub < 1:
        raise ValueError(f"counts must be >= 1, got k={k}, n_sub={n_sub}")
    block = dft_dictionary(n_sub)
    matrix = np.zeros((k * n_sub, k * n_sub), dtype=complex)
    for i in range(0, k * n_sub, n_sub):
        matrix[i:i + n_sub, i:i + n_sub] = block
    return matrix


def dictionaries_for(geometry) -> tuple[np.ndarray, np.ndarray]:
    """(A_R, A_T): the Rx and Tx block dictionaries of a geometry's subarrays."""
    rx = block_dictionary(geometry.k_rx, geometry.n_rx_sub)
    tx = block_dictionary(geometry.k_tx, geometry.n_tx_sub)
    return rx, tx


def _check_dims(h: ChannelMatrix, rx_dict: np.ndarray, tx_dict: np.ndarray):
    n_rx, n_tx = h.entries.shape
    if len(rx_dict) != n_rx or len(tx_dict) != n_tx:
        raise ValueError(
            f"dictionary sizes ({len(rx_dict)}, {len(tx_dict)}) do not match "
            f"channel shape ({n_rx}, {n_tx})"
        )


def to_beamspace(
    h: ChannelMatrix, rx_dict: np.ndarray, tx_dict: np.ndarray
) -> ChannelMatrix:
    """Hb = A_R^H @ H @ A_T; energy-preserving since both are unitary."""
    if h.domain_tag != SPATIAL:
        raise ValueError(f"expected a spatial-domain channel, got {h.domain_tag!r}")
    _check_dims(h, rx_dict, tx_dict)
    hb = rx_dict.conj().T @ h.entries @ tx_dict
    return ChannelMatrix(entries=hb, domain_tag=BEAMSPACE, geometry=h.geometry)


def from_beamspace(
    hb: ChannelMatrix, rx_dict: np.ndarray, tx_dict: np.ndarray
) -> ChannelMatrix:
    """Exact inverse of to_beamspace: H = A_R @ Hb @ A_T^H."""
    if hb.domain_tag != BEAMSPACE:
        raise ValueError(f"expected a beamspace channel, got {hb.domain_tag!r}")
    _check_dims(hb, rx_dict, tx_dict)
    h = rx_dict @ hb.entries @ tx_dict.conj().T
    return ChannelMatrix(entries=h, domain_tag=SPATIAL, geometry=hb.geometry)
