import numpy as np
import pytest

from thzgen.errors import DegenerateGeometryError
from thzgen.geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    condition_vector,
    rayleigh_distance,
)


def unit_direction(azimuth: float, elevation: float) -> np.ndarray:
    """Unit vector for (azimuth, elevation) under the atan2/asin convention."""
    ce = np.cos(elevation)
    return np.array(
        [ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)]
    )


def direction_angles(src, dst) -> tuple[float, float]:
    """(azimuth, elevation) of the direction pointing from src to dst."""
    delta = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    d = np.linalg.norm(delta)
    if d == 0.0:
        raise DegenerateGeometryError("cannot take direction between coincident points")
    azimuth = float(np.arctan2(delta[1], delta[0]))
    elevation = float(np.arcsin(np.clip(delta[2] / d, -1.0, 1.0)))
    return azimuth, elevation


def test_speed_of_light_is_the_si_value():
    assert SPEED_OF_LIGHT == 299792458.0


def test_rayleigh_distance_reference_value():
    # 2 * 0.1275^2 / 0.001
    assert rayleigh_distance(0.1275, 0.001) == pytest.approx(32.51, abs=0.01)


def test_rayleigh_distance_scaling():
    base = rayleigh_distance(0.1, 0.001)
    assert rayleigh_distance(0.2, 0.001) == pytest.approx(4 * base)
    assert rayleigh_distance(0.1, 0.002) == pytest.approx(base / 2)


@pytest.mark.parametrize("aperture,wavelength", [(0.0, 1e-3), (0.1, 0.0), (-1.0, 1e-3)])
def test_rayleigh_distance_rejects_nonpositive(aperture, wavelength):
    with pytest.raises(ValueError):
        rayleigh_distance(aperture, wavelength)


def test_condition_vector_3_4_0():
    p = condition_vector((0, 0, 0), (3, 4, 0))
    assert p.shape == (8,) and p.dtype == np.float64
    np.testing.assert_allclose(p, [5, 3, 4, 0, 0.8, 0.6, 0, 1], atol=1e-12)


def test_condition_vector_axis_aligned():
    d = 7.25
    p = condition_vector((1, 2, 3), (1 + d, 2, 3))
    np.testing.assert_allclose(p, [d, d, 0, 0, 0, 1, 0, 1], atol=1e-12)


def test_condition_vector_trig_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = condition_vector(rng.normal(size=3), rng.normal(size=3))
        assert p[4] ** 2 + p[5] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert p[6] ** 2 + p[7] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert p[0] == pytest.approx(np.linalg.norm(p[1:4]))


def test_condition_vector_coincident_positions():
    with pytest.raises(DegenerateGeometryError):
        condition_vector((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


def test_uniform_linear_layout():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2)
    assert g.element_positions_tx.shape == (16, 3)
    assert g.subarray_centers_tx.shape == (2, 3)
    # Elements of each subarray are centered on its subarray center.
    for k in range(2):
        block = g.element_positions_tx[k * 8 : (k + 1) * 8]
        np.testing.assert_allclose(block.mean(axis=0), g.subarray_centers_tx[k], atol=1e-12)
    lam = g.wavelength
    assert g.intra_spacing == pytest.approx(lam / 2)
    assert g.inter_spacing == pytest.approx(16 * lam)


def test_uniform_linear_rejects_indivisible_counts():
    # k_tx=4 would fail in the layout's reshape if the count check came later.
    for k_tx in (3, 4):
        with pytest.raises(ValueError, match=f"^k_tx={k_tx} does not divide n_tx=10$"):
            ArrayGeometry.uniform_linear(0.3e12, n_tx=10, n_rx=8, k_tx=k_tx, k_rx=2)
    # -16 % 2 == 0, and reshape would read a negative count as "unknown".
    for n_tx, n_rx in ((0, 8), (-16, 8), (16, -16)):
        name = "n_tx" if n_tx < 1 else "n_rx"
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=2, k_rx=2)


@pytest.mark.parametrize("counts, message", [
    (dict(n_tx=16.0), "n_tx must be an integer >= 1, got 16.0"),
    (dict(n_rx=8.0), "n_rx must be an integer >= 1, got 8.0"),
    (dict(k_tx=2.0), "k_tx must be an integer >= 1, got 2.0"),
    (dict(k_rx=0), "k_rx must be an integer >= 1, got 0"),
    (dict(n_tx=True, k_tx=1), "n_tx must be an integer >= 1, got True"),
])
def test_uniform_linear_names_a_count_that_is_not_an_integer(counts, message):
    kwargs = dict(n_tx=16, n_rx=8, k_tx=2, k_rx=2) | counts
    with pytest.raises(ValueError) as info:
        ArrayGeometry.uniform_linear(0.3e12, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("carrier, intra, inter, match, axis", [
    (0.0, None, None, "carrier_frequency must be > 0", (0.0, 1.0, 0.0)),
    (0.3e12, 0.0, None, "intra_spacing must be > 0", (0.0, 1.0, 0.0)),
    (0.3e12, 1e-3, 1e-4, "inter_spacing", (0.0, 1.0, 0.0)),
    pytest.param(0.3e12, None, None, "axis must have a finite length > 0",
                 (0.0, 0.0, 0.0), id="zero_axis"),
    pytest.param(0.3e12, None, None, "axis must have a finite length > 0",
                 (0.0, float("nan"), 0.0), id="nan_axis"),
])
def test_uniform_linear_rejects_bad_spacings(carrier, intra, inter, match, axis):
    with pytest.raises(ValueError, match=match):
        ArrayGeometry.uniform_linear(carrier, n_tx=16, n_rx=8, k_tx=2, k_rx=2,
                                     intra_spacing=intra, inter_spacing=inter,
                                     axis=axis)


def test_with_rx_origin_translates_everything():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=8, n_rx=8)
    moved = g.with_rx_origin([3.0, -1.0, 0.5])
    delta = moved.rx_origin - g.rx_origin
    np.testing.assert_allclose(
        moved.element_positions_rx, g.element_positions_rx + delta
    )
    np.testing.assert_allclose(moved.element_positions_tx, g.element_positions_tx)


def test_aperture_is_largest_pairwise_span():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=8, n_rx=8, k_tx=2, k_rx=1)
    lam = g.wavelength
    # Tx: two 4-element subarrays 16 lambda apart, each spanning 1.5 lambda.
    assert g.aperture("tx") == pytest.approx(16 * lam + 3 * lam / 2)
    assert (g.n_tx_sub - 1) * g.intra_spacing == pytest.approx(3 * lam / 2)


def test_direction_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        src, dst = rng.normal(size=3), rng.normal(size=3)
        az, el = direction_angles(src, dst)
        u = unit_direction(az, el)
        expected = (dst - src) / np.linalg.norm(dst - src)
        np.testing.assert_allclose(u, expected, atol=1e-12)
