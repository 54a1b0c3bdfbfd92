import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzgen.beamspace import dft_dictionary, dictionaries_for, from_beamspace, to_beamspace
from thzgen.channel import BEAMSPACE, SPATIAL, ChannelMatrix, swm_channel
from thzgen.geometry import ArrayGeometry
from thzgen.paths import GscmConfig, draw_paths


def block_dictionary(k: int, n_sub: int) -> np.ndarray:
    """The dense reference: k copies of the n_sub-point DFT on the diagonal."""
    block = dft_dictionary(n_sub)
    matrix = np.zeros((k * n_sub, k * n_sub), dtype=complex)
    for i in range(0, k * n_sub, n_sub):
        matrix[i:i + n_sub, i:i + n_sub] = block
    return matrix


def random_channel(geometry, rng):
    m = rng.normal(size=(geometry.n_rx, geometry.n_tx)) + 1j * rng.normal(
        size=(geometry.n_rx, geometry.n_tx)
    )
    return ChannelMatrix(entries=m, domain_tag=SPATIAL, geometry=geometry)


def test_dft_degenerate():
    np.testing.assert_array_equal(dft_dictionary(1), [[1.0]])


def test_dft_two_point():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(dft_dictionary(2), expected, atol=1e-15)


def test_dft_unitary():
    a = dft_dictionary(8)
    np.testing.assert_allclose(a.conj().T @ a, np.eye(8), atol=1e-12)


def test_dft_rejects_zero():
    with pytest.raises(ValueError):
        dft_dictionary(0)


def test_block_dictionary_structure():
    d = block_dictionary(2, 2)
    np.testing.assert_array_equal(d[:2, 2:], 0)
    np.testing.assert_array_equal(d[2:, :2], 0)
    np.testing.assert_allclose(d[:2, :2], dft_dictionary(2))


def test_block_dictionary_single_block_is_plain_dft():
    np.testing.assert_array_equal(
        block_dictionary(1, 5), dft_dictionary(5)
    )


@pytest.mark.parametrize("k,n_sub", [(2, 4), (4, 16), (3, 5)])
def test_block_dictionary_unitary(k, n_sub):
    a = block_dictionary(k, n_sub)
    assert np.abs(a.conj().T @ a - np.eye(k * n_sub)).max() < 1e-10


def test_block_dictionary_bytes_are_pinned():
    # The digest of scipy.linalg.block_diag's matrices over this grid: the
    # dense reference keeps their bytes, -0.0 included.
    digest = hashlib.sha256()
    for k in (1, 2, 3, 4, 8):
        for n_sub in (1, 2, 4, 8, 32):
            m = block_dictionary(k, n_sub)
            digest.update(m.dtype.str.encode())
            digest.update(str(m.shape).encode())
            digest.update(np.ascontiguousarray(m).tobytes())
    assert digest.hexdigest() == (
        "38edafe209939412fd6920b86b6f52f550328b130fb864a4a45c88df5f2730e8"
    )


@settings(max_examples=64)
@given(st.integers(1, 8), st.integers(1, 8))
def test_block_dictionary_is_unitary_and_block_built(k, n_sub):
    d = block_dictionary(k, n_sub)
    block = dft_dictionary(n_sub)
    reference = np.zeros((k * n_sub, k * n_sub), dtype=complex)
    for b in range(k):
        for r in range(n_sub):
            for c in range(n_sub):
                reference[b * n_sub + r, b * n_sub + c] = block[r, c]
    assert d.tobytes() == reference.tobytes()
    assert np.abs(d.conj().T @ d - np.eye(k * n_sub)).max() < 1e-12


@pytest.mark.parametrize("n_rx,n_tx,k_rx,k_tx", [
    (8, 16, 2, 2), (64, 256, 4, 8), (64, 128, 4, 4), (32, 64, 4, 4),
    (16, 32, 1, 1), (16, 32, 2, 4), (16, 32, 1, 4), (16, 32, 4, 1),
])
def test_block_transform_is_the_dense_product_byte_for_byte(n_rx, n_tx, k_rx, k_tx):
    # k = 1 on either side is its own case: a batch of row vectors there
    # would be a matrix-vector product, which rounds unlike the GEMM.
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx,
                                     rx_origin=(6.0, 1.0, 0.0))
    rx_d, tx_d = dictionaries_for(g)
    a_r, a_t = block_dictionary(k_rx, n_rx // k_rx), block_dictionary(k_tx, n_tx // k_tx)
    for i in range(10):
        h = swm_channel(draw_paths(np.random.default_rng([5, i]), GscmConfig(), g), g)
        hb = to_beamspace(h, rx_d, tx_d)
        assert hb.entries.tobytes() == (a_r.conj().T @ h.entries @ a_t).tobytes()
        back = from_beamspace(hb, rx_d, tx_d)
        assert back.entries.tobytes() == (a_r @ hb.entries @ a_t.conj().T).tobytes()
        err = np.linalg.norm(back.entries - h.entries) / np.linalg.norm(h.entries)
        assert err < 1e-12


@pytest.mark.parametrize(
    "n_rx,n_tx,k_rx,k_tx", [(8, 16, 2, 2), (64, 256, 4, 8)]
)
def test_round_trip_and_energy(n_rx, n_tx, k_rx, k_tx):
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx)
    rx_d, tx_d = dictionaries_for(g)
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_channel(g, rng)
        hb = to_beamspace(h, rx_d, tx_d)
        assert hb.domain_tag == BEAMSPACE
        assert np.linalg.norm(hb.entries) == pytest.approx(np.linalg.norm(h.entries), rel=1e-12)
        back = from_beamspace(hb, rx_d, tx_d)
        err = np.linalg.norm(back.entries - h.entries) / np.linalg.norm(h.entries)
        assert err < 1e-10


def test_single_entry_recovery():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=8, n_rx=4, k_tx=2, k_rx=2)
    rx_d, tx_d = dictionaries_for(g)
    e = np.zeros((4, 8), dtype=complex)
    e[1, 5] = 2.0 - 1.0j
    spatial = block_dictionary(2, 2) @ e @ block_dictionary(2, 4).conj().T
    h = ChannelMatrix(entries=spatial, domain_tag=SPATIAL, geometry=g)
    np.testing.assert_allclose(to_beamspace(h, rx_d, tx_d).entries, e, atol=1e-10)


def test_domain_tag_enforced():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=4, n_rx=4)
    rx_d, tx_d = dictionaries_for(g)
    h = random_channel(g, np.random.default_rng(0))
    hb = to_beamspace(h, rx_d, tx_d)
    with pytest.raises(ValueError, match="spatial"):
        to_beamspace(hb, rx_d, tx_d)
    with pytest.raises(ValueError, match="beamspace"):
        from_beamspace(h, rx_d, tx_d)


def test_dimension_mismatch():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=4, n_rx=4)
    h = random_channel(g, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^dictionary sizes \(8, 4\) do not match "
                                         r"subarray size \(4, 4\)$"):
        to_beamspace(h, dft_dictionary(8), dft_dictionary(4))


def test_beamspace_is_sparser_than_spatial():
    # Energy captured by the top 5% of bins, averaged over stochastic
    # channels: the angular domain concentrates it, the spatial domain does
    # not.
    g = ArrayGeometry.uniform_linear(
        0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2, rx_origin=(6.0, 1.0, 0.0)
    )
    rx_d, tx_d = dictionaries_for(g)
    top = max(1, int(0.05 * g.n_rx * g.n_tx))

    def top_fraction(m):
        p = np.sort(np.abs(m.ravel()) ** 2)[::-1]
        return p[:top].sum() / p.sum()

    gains = []
    for i in range(50):
        ps = draw_paths(np.random.default_rng([3, i]), GscmConfig(), g)
        h = swm_channel(ps, g)
        hb = to_beamspace(h, rx_d, tx_d)
        gains.append(top_fraction(hb.entries) - top_fraction(h.entries))
    assert np.mean(gains) > 0
    assert np.mean([gain > 0 for gain in gains]) > 0.9
