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


def dictionaries_for(geometry) -> tuple[np.ndarray, np.ndarray]:
    """(F_R, F_T): the DFTs of one Rx and one Tx subarray of a geometry."""
    return dft_dictionary(geometry.n_rx_sub), dft_dictionary(geometry.n_tx_sub)


def _check_dims(h: ChannelMatrix, rx_dict: np.ndarray, tx_dict: np.ndarray):
    n_rx_sub, n_tx_sub = h.geometry.n_rx_sub, h.geometry.n_tx_sub
    if len(rx_dict) != n_rx_sub or len(tx_dict) != n_tx_sub:
        raise ValueError(
            f"dictionary sizes ({len(rx_dict)}, {len(tx_dict)}) do not match "
            f"subarray size ({n_rx_sub}, {n_tx_sub})"
        )


def _by_blocks(h: ChannelMatrix, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left`` on each of the k_rx row blocks of h, then ``right`` on each of
    its k_tx column blocks: the block-diagonal product, with no zero block.

    Each column block is its own GEMM, as in the dense product (a batch of
    row vectors would make k_tx = 1 a matrix-vector product, which rounds
    differently), so the bytes are those of the dense product.
    """
    g = h.geometry
    m = left @ h.entries.reshape(g.k_rx, g.n_rx_sub, g.n_tx)
    m = m.reshape(g.n_rx, g.k_tx, g.n_tx_sub).transpose(1, 0, 2) @ right
    return m.transpose(1, 0, 2).reshape(g.n_rx, g.n_tx)


def to_beamspace(
    h: ChannelMatrix, rx_dict: np.ndarray, tx_dict: np.ndarray
) -> ChannelMatrix:
    """Hb = A_R^H @ H @ A_T, where A is k copies of the subarray DFT F on the
    diagonal: energy-preserving, since both are unitary."""
    if h.domain_tag != SPATIAL:
        raise ValueError(f"expected a spatial-domain channel, got {h.domain_tag!r}")
    _check_dims(h, rx_dict, tx_dict)
    hb = _by_blocks(h, rx_dict.conj().T, tx_dict)
    return ChannelMatrix(entries=hb, domain_tag=BEAMSPACE, geometry=h.geometry)


def from_beamspace(
    hb: ChannelMatrix, rx_dict: np.ndarray, tx_dict: np.ndarray
) -> ChannelMatrix:
    """Exact inverse of to_beamspace: H = A_R @ Hb @ A_T^H."""
    if hb.domain_tag != BEAMSPACE:
        raise ValueError(f"expected a beamspace channel, got {hb.domain_tag!r}")
    _check_dims(hb, rx_dict, tx_dict)
    h = _by_blocks(hb, rx_dict, tx_dict.conj().T)
    return ChannelMatrix(entries=h, domain_tag=SPATIAL, geometry=hb.geometry)
