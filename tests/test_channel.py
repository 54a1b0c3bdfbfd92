import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thzgen.beamspace import dictionaries_for, to_beamspace
from thzgen.channel import (
    SPATIAL,
    ChannelMatrix,
    _norm,
    hpsm_channel,
    pwm_channel,
    swm_channel,
)
from thzgen.dataset import SamplingRegion, sample_rng
from thzgen.errors import DegenerateGeometryError
from thzgen.evaluation import nmse
from thzgen.geometry import ArrayGeometry, GeometryConfig, rayleigh_distance
from thzgen.paths import PATH_LOSS_EXPONENT_RANGE, GscmConfig, Path, PathSet, draw_paths

from test_geometry import direction_angles, unit_direction


def linear_geometry(n_tx=4, n_rx=4, k_tx=1, k_rx=1, rx_origin=(10.0, 0.0, 0.0)):
    return ArrayGeometry.uniform_linear(
        0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx, rx_origin=rx_origin
    )


# -- channel matrix ---------------------------------------------------------

@pytest.mark.parametrize("layout", ["strided", "fortran"])
def test_channel_matrix_accepts_any_memory_layout(layout):
    g = linear_geometry(n_tx=4, n_rx=4)
    m = np.arange(16.0).reshape(4, 4) * (1 + 2j)
    entries = m[:, ::-1] if layout == "strided" else np.asfortranarray(m)
    h = ChannelMatrix(entries=entries, domain_tag=SPATIAL, geometry=g)
    np.testing.assert_array_equal(h.entries, entries)
    entries[1, 2] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        ChannelMatrix(entries=entries, domain_tag=SPATIAL, geometry=g)


def test_channel_matrix_keeps_its_own_entries():
    g = linear_geometry(n_tx=4, n_rx=4)
    entries = np.ones((4, 4), dtype=np.complex128)
    h = ChannelMatrix(entries=entries, domain_tag=SPATIAL, geometry=g)
    entries[1, 2] = complex(0.0, np.inf)
    assert np.isfinite(h.entries).all()


# -- steering vectors -------------------------------------------------------

def steering_vector(geometry, side, subarray_index, azimuth, elevation):
    """Unit-norm array response vector of a full array or one subarray.

    Element k has value (1/sqrt(n)) * exp(-j * 2*pi/lambda * <r_k, u>)
    where r_k is the element offset from the (sub)array reference point.
    The channel models build the conjugate of this for many directions at
    once; the references below build it one direction at a time.
    """
    tx = side == "tx"
    positions = geometry.element_positions_tx if tx else geometry.element_positions_rx
    if subarray_index == "full":
        offsets = positions - (geometry.tx_origin if tx else geometry.rx_origin)
    else:
        k = geometry.k_tx if tx else geometry.k_rx
        if not 0 <= subarray_index < k:
            raise IndexError(f"subarray index {subarray_index} out of range [0, {k})")
        n_sub = geometry.n_tx_sub if tx else geometry.n_rx_sub
        centers = geometry.subarray_centers_tx if tx else geometry.subarray_centers_rx
        offsets = (positions[subarray_index * n_sub:(subarray_index + 1) * n_sub]
                   - centers[subarray_index])
    phase = -2.0 * np.pi / geometry.wavelength * (offsets @ unit_direction(azimuth, elevation))
    return np.exp(1j * phase) / np.sqrt(len(offsets))


def test_steering_broadside():
    g = linear_geometry()
    # Array axis is y; broadside = direction along x.
    v = steering_vector(g, "tx", "full", 0.0, 0.0)
    np.testing.assert_allclose(v, 0.5 * np.ones(4), atol=1e-12)


def test_steering_endfire():
    g = linear_geometry()
    # Endfire: direction along the array axis (+y), pitch lambda/2 gives
    # phase steps of pi, so alternating signs.
    v = steering_vector(g, "tx", "full", np.pi / 2, 0.0)
    assert np.allclose(np.abs(v), 0.5, atol=1e-12)
    ratios = v[1:] / v[:-1]
    np.testing.assert_allclose(ratios, -np.ones(3), atol=1e-9)


def test_steering_unit_norm():
    g = linear_geometry(n_tx=16, n_rx=8, k_tx=2, k_rx=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        az, el = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)
        for side, sub in (("tx", "full"), ("tx", 1), ("rx", 0)):
            assert np.linalg.norm(
                steering_vector(g, side, sub, az, el)
            ) == pytest.approx(1.0, abs=1e-12)


def test_steering_bad_subarray_index():
    g = linear_geometry(k_tx=1)
    with pytest.raises(IndexError):
        steering_vector(g, "tx", 3, 0.0, 0.0)


# -- planar wave model ------------------------------------------------------

def test_pwm_single_broadside_path():
    # The arrays lie along y and face each other along x, so the line of
    # sight is broadside to both: every entry is the centers' free-space term.
    g = linear_geometry()
    h = pwm_channel(PathSet([Path()]), g).entries
    k, coef, d = 2.0 * np.pi / g.wavelength, g.wavelength / (4.0 * np.pi), 10.0
    np.testing.assert_allclose(h, np.full((4, 4), coef / d * np.exp(-1j * k * d)), rtol=1e-12)
    assert np.linalg.norm(h) == pytest.approx(4 * coef / d)


def test_pwm_opposite_gains_cancel():
    g = linear_geometry()
    a = Path(scatterer_position=(4.0, 2.0, 0.5), reflection_gain=0.3)
    b = Path(scatterer_position=(4.0, 2.0, 0.5), reflection_gain=-0.3)
    h = pwm_channel(PathSet([a, b]), g).entries
    assert np.linalg.norm(h) <= 1e-12 * np.linalg.norm(pwm_channel(PathSet([a]), g).entries)


def test_pwm_on_grid_path_hits_single_beam():
    # With the arrays along y and lambda/2 pitch, a direction whose axis
    # projection is 2b/n matches the b-th DFT column exactly, so a path that
    # leaves the Tx center and reaches the Rx center along such directions
    # occupies a single beamspace bin.  Its scatterer lies 5 m from the Tx
    # and 3 m from the Rx; brute force over all bins.
    g = linear_geometry(n_tx=8, n_rx=8)
    rx_d, tx_d = dictionaries_for(g)
    coef = g.wavelength / (4.0 * np.pi)
    for bt in range(-3, 4):
        for br in range(-3, 4):
            u_t, u_r = (np.array([np.sqrt(1 - (b / 4) ** 2), b / 4, 0.0]) for b in (bt, br))
            g_b = g.with_rx_origin(5.0 * u_t - 3.0 * u_r)
            # The bin holds sqrt(n_rx * n_tx) * refl * coef^2 / (d1 * d2) = 0.7.
            path = Path(scatterer_position=5.0 * u_t,
                        reflection_gain=0.7 * 5.0 * 3.0 / (8 * coef**2))
            h = pwm_channel(PathSet([path]), g_b)
            hb = np.abs(to_beamspace(h, rx_d, tx_d).entries)
            assert hb.max() == pytest.approx(0.7, abs=1e-10)
            assert np.partition(hb.ravel(), -2)[-2] < 1e-10


def pwm_reference(paths, g):
    """The planar model as a sum of per-path outer products of steering vectors."""
    return hpsm_reference(paths, g, full=True)


def test_pwm_matches_sum_of_outer_products():
    g = linear_geometry(n_tx=32, n_rx=16, k_tx=4, k_rx=2, rx_origin=(6.0, 1.0, 0.3))
    ps = draw_paths(np.random.default_rng(3), GscmConfig(), g)
    ref = pwm_reference(ps, g)
    h = pwm_channel(ps, g).entries
    assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_pwm_rejects_scatterer_at_array_center(side):
    g = linear_geometry(n_tx=16, n_rx=8, k_tx=4, k_rx=2, rx_origin=(6.0, 1.0, 0.0))
    ps = list(draw_paths(np.random.default_rng(2), GscmConfig(), g))
    ps[5] = Path(scatterer_position=g.tx_origin if side == "tx" else g.rx_origin)
    with pytest.raises(DegenerateGeometryError,
                       match="scatterer 5 coincides with an array center"):
        pwm_channel(PathSet(ps), g)


def test_pwm_rejects_coincident_array_centers():
    g = linear_geometry(n_tx=8, n_rx=3, rx_origin=(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateGeometryError, match="array centers coincide"):
        pwm_channel(PathSet([Path()]), g)


# -- spherical wave model ---------------------------------------------------

def test_swm_single_antenna_los():
    lam = 0.3e12
    g = ArrayGeometry.uniform_linear(lam, n_tx=1, n_rx=1, rx_origin=(0.0, 0.0, 0.0))
    d = 1000 * g.wavelength
    g = g.with_rx_origin((d, 0.0, 0.0))
    h = swm_channel(PathSet([Path()]), g)
    expected = g.wavelength / (4 * np.pi * d)
    assert h.entries[0, 0] == pytest.approx(expected, abs=1e-15)
    assert abs(np.angle(h.entries[0, 0])) < 1e-6


def far_near_correlation(distance_factor):
    g = linear_geometry(n_tx=16, n_rx=16)
    d_r = rayleigh_distance(g.aperture("tx"), g.wavelength)
    g = g.with_rx_origin((distance_factor * d_r, 0.0, 0.0))
    paths = PathSet([Path()])
    hs = swm_channel(paths, g).entries
    hp = pwm_channel(paths, g).entries
    return abs(np.vdot(hs, hp)) / (np.linalg.norm(hs) * np.linalg.norm(hp))


def test_swm_matches_pwm_in_far_field():
    assert far_near_correlation(100.0) > 0.999


def test_swm_departs_from_pwm_in_near_field():
    assert far_near_correlation(0.1) < 0.99


def test_swm_to_pwm_monotone_convergence():
    factors = np.logspace(-1, 2, 5)
    corrs = [far_near_correlation(f) for f in factors]
    assert all(b > a for a, b in zip(corrs, corrs[1:]))
    assert corrs[-1] > 0.999


def test_swm_rejects_scatterer_on_element():
    g = linear_geometry()
    scat = g.element_positions_tx[0]
    bad = Path(scatterer_position=scat)
    with pytest.raises(DegenerateGeometryError):
        swm_channel(PathSet([bad]), g)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_swm_names_the_scatterer_on_an_element(side):
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    ps = list(draw_paths(np.random.default_rng(1), GscmConfig(), g))
    element = g.element_positions_tx[2] if side == "tx" else g.element_positions_rx[1]
    ps[4] = Path(scatterer_position=element)
    with pytest.raises(DegenerateGeometryError, match="scatterer 4 coincides"):
        swm_channel(PathSet(ps), g)


def test_swm_rejects_coincident_tx_and_rx_elements():
    g = linear_geometry(n_tx=4, n_rx=4, rx_origin=(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateGeometryError, match="tx and rx elements coincide"):
        swm_channel(PathSet([Path()]), g)


REGION = SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))


def swm_reference(paths, geometry):
    """The spherical model as a loop over paths, one distance matrix each."""
    tx_pos = geometry.element_positions_tx
    rx_pos = geometry.element_positions_rx
    lam = geometry.wavelength
    k = 2.0 * np.pi / lam
    coef = lam / (4.0 * np.pi)
    h = np.zeros((rx_pos.shape[0], tx_pos.shape[0]), dtype=np.complex128)
    for path in paths:
        refl = path.reflection_gain
        if path.scatterer_position is not None:
            s = path.scatterer_position
            d1 = np.linalg.norm(tx_pos - s, axis=1)  # (n_tx,)
            d2 = np.linalg.norm(rx_pos - s, axis=1)  # (n_rx,)
            amp = refl * (coef / d1)[None, :] * (coef / d2)[:, None]
            dist = d1[None, :] + d2[:, None]
        else:
            diff = rx_pos[:, None, :] - tx_pos[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            amp = refl * coef / dist
        h += amp * np.exp(-1j * k * dist)
    return h


def swm_extended(paths, geometry):
    """The per-path loop in np.longdouble, phases from extended cos/sin.

    The float64 positions, wave number and amplitude constant that
    swm_channel uses are taken as exact, so the difference from this
    reference is the float64 rounding of a channel model.
    """
    ld = np.longdouble
    tx_pos = geometry.element_positions_tx.astype(ld)
    rx_pos = geometry.element_positions_rx.astype(ld)
    lam = geometry.wavelength
    k = ld(2.0 * np.pi / lam)
    coef = ld(lam / (4.0 * np.pi))
    re = np.zeros((rx_pos.shape[0], tx_pos.shape[0]), dtype=ld)
    im = np.zeros_like(re)
    for path in paths:
        refl = ld(path.reflection_gain)
        if path.scatterer_position is not None:
            s = path.scatterer_position.astype(ld)
            d1 = np.sqrt(((tx_pos - s) ** 2).sum(axis=1))
            d2 = np.sqrt(((rx_pos - s) ** 2).sum(axis=1))
            amp = refl * (coef / d1)[None, :] * (coef / d2)[:, None]
            dist = d1[None, :] + d2[:, None]
        else:
            dist = np.sqrt(((rx_pos[:, None, :] - tx_pos[None, :, :]) ** 2).sum(axis=2))
            amp = refl * coef / dist
        re += amp * np.cos(k * dist)
        im -= amp * np.sin(k * dist)
    return re, im


PINNED_SHAPES = ((8, 16, 2, 2), (64, 256, 4, 8))


def pinned_draws(shape):
    """The seeded GSCM draws whose SWM bytes the digests below pin."""
    n_rx, n_tx, k_rx, k_tx = shape
    geom = ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx)
    for i in range(3):
        rng = sample_rng(7, i)
        geom_i = geom.with_rx_origin(REGION.draw(rng))
        yield draw_paths(rng, GscmConfig(), geom_i), geom_i


def channel_digest(model):
    """SHA-256 of ``model(paths, geometry)``'s bytes over the pinned draws."""
    digest = hashlib.sha256()
    for shape in PINNED_SHAPES:
        for ps, geom in pinned_draws(shape):
            digest.update(model(ps, geom).tobytes())
    return digest.hexdigest()


# SHA-256 of the SWM channel bytes of the pinned draws, written by the
# per-path numpy loop that is now swm_reference (numpy 2.4, x86_64).
SWM_DIGEST = "25e5945d3ef3080498af8c726cfa14f1792ac32f927864e2fbebf07b02ebc474"

# The same draws through the rank-L swm_channel, generated by that code
# (numpy 2.4, x86_64).  gen-data's ground truth is SWM, so this pins its
# output bit for bit; its agreement with the loop and its rounding are
# checked against swm_reference and swm_extended below.
SWM_CHANNEL_DIGEST = "7a7f031c39e796a6d223829617261a63ec0453266e5365a73b67ad9a9fbf173d"


def test_swm_bytes_are_pinned():
    assert channel_digest(swm_reference) == SWM_DIGEST


def test_swm_channel_bytes_are_pinned():
    assert channel_digest(lambda ps, g: swm_channel(ps, g).entries) == SWM_CHANNEL_DIGEST


# The same draws through hpsm_channel, written by the HPSM code as it stood
# before pwm_channel moved onto the shared spherical core (numpy 2.4,
# x86_64): the move kept HPSM's bytes.
HPSM_CHANNEL_DIGEST = "f17c35754b5b15829ef8812adbfccb36647ba3906662086636f210f7d2441284"


def test_hpsm_channel_bytes_are_pinned():
    assert channel_digest(lambda ps, g: hpsm_channel(ps, g).entries) == HPSM_CHANNEL_DIGEST


def swm_case_paths(kind, rng, geometry):
    drawn = list(draw_paths(rng, GscmConfig(), geometry))
    scattered = [p for p in drawn if not p.is_los]
    los = [p for p in drawn if p.is_los]
    # The default reflection gain, 1.
    unit = [Path(scatterer_position=p.scatterer_position) for p in scattered[4:7]]
    return {
        "scattered": scattered,
        "los": los,
        "mixed": scattered[:4] + los + unit + scattered[7:],
    }[kind]


@pytest.mark.parametrize("kind", ["scattered", "los", "mixed"])
@pytest.mark.parametrize(
    "shape", [(4, 8, 1, 1), (8, 16, 2, 4), (64, 256, 4, 8)], ids=str
)
def test_swm_matches_loop_reference(shape, kind):
    n_rx, n_tx, k_rx, k_tx = shape
    geom = ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx)
    for i in range(2):
        rng = sample_rng(11, i)
        geom_i = geom.with_rx_origin(REGION.draw(rng))
        ps = PathSet(swm_case_paths(kind, rng, geom_i))
        ref = swm_reference(ps, geom_i)
        h = swm_channel(ps, geom_i).entries
        assert np.linalg.norm(h - ref) <= 1e-10 * np.linalg.norm(ref)


def worst_error(h, extended):
    """max |h - ref| over the RMS of ref, in extended precision."""
    re, im = extended
    err = np.sqrt((h.real - re) ** 2 + (h.imag - im) ** 2).max()
    return float(err / np.sqrt(np.mean(re**2 + im**2)))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("shape", PINNED_SHAPES, ids=str)
def test_swm_rounding_against_extended_precision(shape):
    new, old = [], []
    for ps, geom in pinned_draws(shape):
        extended = swm_extended(ps, geom)
        new.append(worst_error(swm_channel(ps, geom).entries, extended))
        old.append(worst_error(swm_reference(ps, geom), extended))
    assert max(new) <= 5e-11
    assert max(new) <= 1.5 * max(old)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_swm_raises_for_the_first_faulty_path(side):
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    ps = list(draw_paths(np.random.default_rng(1), GscmConfig(), g))
    element = g.element_positions_tx[2] if side == "tx" else g.element_positions_rx[1]
    ps[1] = Path(scatterer_position=element)
    ps[3] = Path(scatterer_position=g.element_positions_tx[0])
    with pytest.raises(DegenerateGeometryError, match="scatterer 1 coincides"):
        swm_channel(PathSet(ps), g)


# -- hybrid model -----------------------------------------------------------

def test_hpsm_single_subarray_equals_pwm():
    # A lone subarray's center is its array's, so the two models are one.
    g = linear_geometry(n_tx=8, n_rx=4, k_tx=1, k_rx=1, rx_origin=(6.0, 1.0, 0.3))
    ps = PathSet([
        Path(scatterer_position=(3.0, -2.0, 0.5), reflection_gain=1.1),
        Path(reflection_gain=0.9),
    ])
    assert np.array_equal(hpsm_channel(ps, g).entries, pwm_channel(ps, g).entries)


def test_hpsm_block_dimensions():
    g = linear_geometry(n_tx=16, n_rx=8, k_tx=4, k_rx=2)
    h = hpsm_channel(PathSet([Path()]), g)
    assert h.entries.shape == (8, 16)
    # Each 4x4 block has rank <= 1 for a single path.
    for kr in range(2):
        for kt in range(4):
            block = h.entries[kr * 4 : kr * 4 + 4, kt * 4 : kt * 4 + 4]
            s = np.linalg.svd(block, compute_uv=False)
            assert s[1] < 1e-12 * s[0]


def test_hpsm_beats_pwm_at_cross_field_range():
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=64, n_rx=16, k_tx=4, k_rx=2)
    d_full = rayleigh_distance(g.aperture("tx"), g.wavelength)
    d_sub = rayleigh_distance((g.n_tx_sub - 1) * g.intra_spacing, g.wavelength)
    d = np.sqrt(d_full * d_sub)  # geometric middle of the cross-field band
    assert d_sub < d < d_full
    g = g.with_rx_origin((d, 0.0, 0.0))
    paths = PathSet([Path()])
    hs = swm_channel(paths, g).entries
    e_h = nmse(hpsm_channel(paths, g).entries, hs)
    e_p = nmse(pwm_channel(paths, g).entries, hs)
    assert e_h < e_p


def hpsm_reference(paths, geometry, full=False):
    """The hybrid model as a loop over (Rx subarray, Tx subarray, path).

    Each block is a sum of rank-one outer products of per-subarray steering
    vectors, with gains, phases and angles taken from the subarray centers.
    With ``full`` the one block per side is the whole array about its
    origin, which makes it the planar model.
    """
    lam = geometry.wavelength
    k_wave = 2.0 * np.pi / lam
    coef = lam / (4.0 * np.pi)
    if full:
        blocks_r, blocks_t = [("full", geometry.rx_origin)], [("full", geometry.tx_origin)]
        n_sub_r, n_sub_t = geometry.n_rx, geometry.n_tx
    else:
        blocks_r = list(enumerate(geometry.subarray_centers_rx))
        blocks_t = list(enumerate(geometry.subarray_centers_tx))
        n_sub_r, n_sub_t = geometry.n_rx_sub, geometry.n_tx_sub
    sub_scale = np.sqrt(n_sub_r * n_sub_t)
    h = np.zeros((geometry.n_rx, geometry.n_tx), dtype=complex)
    for i, (kr, c_kr) in enumerate(blocks_r):
        for j, (kt, c_kt) in enumerate(blocks_t):
            block = np.zeros((n_sub_r, n_sub_t), dtype=complex)
            for path in paths:
                refl = path.reflection_gain
                if path.is_los:
                    d = float(np.linalg.norm(c_kr - c_kt))
                    gain = sub_scale * refl * coef / d
                    phase = k_wave * d
                    aod = direction_angles(c_kt, c_kr)
                    aoa = direction_angles(c_kr, c_kt)
                else:
                    s = path.scatterer_position
                    d1 = float(np.linalg.norm(s - c_kt))
                    d2 = float(np.linalg.norm(c_kr - s))
                    gain = sub_scale * refl * (coef / d1) * (coef / d2)
                    phase = k_wave * (d1 + d2)
                    aod = direction_angles(c_kt, s)
                    aoa = direction_angles(c_kr, s)
                a_r = steering_vector(geometry, "rx", kr, *aoa)
                a_t = steering_vector(geometry, "tx", kt, *aod)
                block += gain * np.exp(-1j * phase) * np.outer(a_r.conj(), a_t.conj())
            h[i * n_sub_r : (i + 1) * n_sub_r, j * n_sub_t : (j + 1) * n_sub_t] = block
    return h


def hpsm_case_paths(kind, rng, geometry):
    drawn = list(draw_paths(rng, GscmConfig(), geometry))
    scattered = [p for p in drawn if not p.is_los]
    los = [p for p in drawn if p.is_los]
    return {
        "scattered": scattered,
        "los": los,
        "mixed": scattered[:2] + los + scattered[2:],
    }[kind]


@pytest.mark.parametrize("kind", ["scattered", "los", "mixed"])
@pytest.mark.parametrize(
    "shape", [(4, 8, 1, 1), (8, 16, 2, 4), (64, 256, 4, 8)], ids=str
)
def test_hpsm_matches_loop_reference(shape, kind):
    n_rx, n_tx, k_rx, k_tx = shape
    geom = ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx)
    for i in range(2):
        rng = sample_rng(11, i)
        geom_i = geom.with_rx_origin(REGION.draw(rng))
        ps = PathSet(hpsm_case_paths(kind, rng, geom_i))
        ref = hpsm_reference(ps, geom_i)
        h = hpsm_channel(ps, geom_i).entries
        assert np.linalg.norm(h - ref) <= 1e-10 * np.linalg.norm(ref)
        if k_rx == k_tx == 1:
            h = pwm_channel(ps, geom_i).entries
            assert np.linalg.norm(h - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_hpsm_rejects_scatterer_at_subarray_center(side):
    g = linear_geometry(n_tx=16, n_rx=8, k_tx=4, k_rx=2, rx_origin=(6.0, 1.0, 0.0))
    ps = list(draw_paths(np.random.default_rng(2), GscmConfig(), g))
    center = g.subarray_centers_tx[3] if side == "tx" else g.subarray_centers_rx[1]
    ps[5] = Path(scatterer_position=center)
    with pytest.raises(DegenerateGeometryError,
                       match="scatterer 5 coincides with a subarray center"):
        hpsm_channel(PathSet(ps), g)


def test_hpsm_rejects_coincident_subarray_centers():
    g = linear_geometry(n_tx=8, n_rx=4, k_tx=2, k_rx=1, rx_origin=(0.0, 0.0, 0.0))
    g = g.with_rx_origin(g.subarray_centers_tx[1])
    with pytest.raises(DegenerateGeometryError, match="subarray centers coincide"):
        hpsm_channel(PathSet([Path()]), g)


@pytest.mark.parametrize("los_first", [True, False])
def test_hpsm_raises_for_the_first_faulty_path(los_first):
    g = linear_geometry(n_tx=8, n_rx=4, k_tx=2, k_rx=1, rx_origin=(0.0, 0.0, 0.0))
    g = g.with_rx_origin(g.subarray_centers_tx[1])
    los = Path()
    on_center = Path(scatterer_position=g.subarray_centers_tx[0])
    if los_first:
        ps, match = [los, on_center], "subarray centers coincide"
    else:
        ps, match = [on_center, los], "scatterer 0 coincides with a subarray center"
    with pytest.raises(DegenerateGeometryError, match=match):
        hpsm_channel(PathSet(ps), g)


@pytest.mark.parametrize("shape", [
    (16, 4, 1, 1), (16, 4, 16, 1), (16, 4, 1, 4), (4, 16, 4, 1), (4, 16, 1, 16),
    (8, 8, 8, 8), (8, 8, 2, 8), (1, 8, 1, 8), (8, 1, 8, 1),
], ids=str)
def test_hpsm_over_subarray_shapes(shape):
    # k = 1 on one side and k = n on the other included.
    n_rx, n_tx, k_rx, k_tx = shape
    geom = ArrayGeometry.uniform_linear(0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx)
    rng = sample_rng(13, 0)
    geom = geom.with_rx_origin(REGION.draw(rng))
    ps = PathSet(hpsm_case_paths("mixed", rng, geom))
    ref = hpsm_reference(ps, geom)
    h = hpsm_channel(ps, geom).entries
    assert np.linalg.norm(h - ref) <= 1e-10 * np.linalg.norm(ref)


def hpsm_extended(paths, geometry):
    """The hybrid model per path in np.longdouble, for scattered and LoS paths.

    Each element's distance is the one hpsm_channel takes to first order
    about its subarray center c: d - <o, u> to a point at distance d along
    u, and d + <o_r - o_t, u> between the Tx and Rx centers.  As in
    swm_extended, the float64 positions and constants are taken as exact.
    """
    ld = np.longdouble
    lam = geometry.wavelength
    k = ld(2.0 * np.pi / lam)
    coef = ld(lam / (4.0 * np.pi))
    c_r = np.repeat(geometry.subarray_centers_rx.astype(ld), geometry.n_rx_sub, axis=0)
    c_t = np.repeat(geometry.subarray_centers_tx.astype(ld), geometry.n_tx_sub, axis=0)
    o_r = geometry.element_positions_rx.astype(ld) - c_r
    o_t = geometry.element_positions_tx.astype(ld) - c_t

    def to_point(s, centers, offsets):
        delta = s - centers
        d = np.sqrt((delta**2).sum(axis=1))
        return d, d - (offsets * delta).sum(axis=1) / d

    re = np.zeros((geometry.n_rx, geometry.n_tx), dtype=ld)
    im = np.zeros_like(re)
    for path in paths:
        refl = ld(path.reflection_gain)
        if path.scatterer_position is not None:
            s = path.scatterer_position.astype(ld)
            d1, e1 = to_point(s, c_t, o_t)
            d2, e2 = to_point(s, c_r, o_r)
            amp = refl * (coef / d1)[None, :] * (coef / d2)[:, None]
            dist = e1[None, :] + e2[:, None]
        else:
            delta = c_r[:, None, :] - c_t[None, :, :]
            d = np.sqrt((delta**2).sum(axis=2))
            amp = refl * coef / d
            dist = d + ((o_r[:, None, :] - o_t[None, :, :]) * delta).sum(axis=2) / d
        re += amp * np.cos(k * dist)
        im -= amp * np.sin(k * dist)
    return re, im


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("shape", PINNED_SHAPES, ids=str)
def test_hpsm_rounding_against_extended_precision(shape):
    new, old = [], []
    for ps, geom in pinned_draws(shape):
        extended = hpsm_extended(ps, geom)
        new.append(worst_error(hpsm_channel(ps, geom).entries, extended))
        old.append(worst_error(hpsm_reference(ps, geom), extended))
    assert max(new) <= 5e-11
    assert max(new) <= 1.5 * max(old)


# -- physics limits ---------------------------------------------------------
#
# Drawn with the default GscmConfig at Rx positions in REGION, the sampling
# region of the default run configuration.

SEEDS = st.integers(0, 2**32 - 1)
COUNTS = st.sampled_from([1, 2, 4, 8])


def drawn(seed, n_rx, n_tx, k_rx, k_tx, **spacing):
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry.uniform_linear(
        0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx,
        rx_origin=REGION.draw(rng), **spacing,
    )
    return draw_paths(rng, GscmConfig(), geom), geom


@given(seed=SEEDS, n_rx=COUNTS, n_tx=COUNTS)
def test_hpsm_equals_swm_with_one_element_per_subarray(seed, n_rx, n_tx):
    ps, geom = drawn(seed, n_rx, n_tx, n_rx, n_tx)
    assert np.array_equal(hpsm_channel(ps, geom).entries, swm_channel(ps, geom).entries)


@settings(max_examples=50)
@given(seed=SEEDS)
def test_hpsm_approaches_swm_as_subarrays_shrink(seed):
    # 32x32 elements at half-wavelength pitch whatever k is: only the
    # subarray each element's distance is expanded about changes.
    lam = linear_geometry().wavelength
    errors = []
    for k in (1, 2, 4, 8, 16, 32):
        spacing = {"intra_spacing": lam / 2, "inter_spacing": 32 // k * lam / 2}
        ps, geom = drawn(seed, 32, 32, k, k, **spacing)
        errors.append(nmse(hpsm_channel(ps, geom).entries, swm_channel(ps, geom).entries))
    assert errors[-1] == 0.0
    assert all(later < earlier / 4 for earlier, later in zip(errors, errors[1:]))


@given(seed=SEEDS, n_rx=COUNTS, n_tx=COUNTS, k_rx=COUNTS, k_tx=COUNTS)
def test_swapping_tx_and_rx_transposes_the_channel(seed, n_rx, n_tx, k_rx, k_tx):
    k_rx, k_tx = min(k_rx, n_rx), min(k_tx, n_tx)
    ps, geom = drawn(seed, n_rx, n_tx, k_rx, k_tx)
    swapped = ArrayGeometry.uniform_linear(
        0.3e12, n_tx=n_rx, n_rx=n_tx, k_tx=k_rx, k_rx=k_tx,
        tx_origin=geom.rx_origin, rx_origin=geom.tx_origin,
    )
    for model in (swm_channel, hpsm_channel, pwm_channel):
        h = model(ps, geom).entries
        h_swapped = model(ps, swapped).entries
        assert np.linalg.norm(h_swapped - h.T) <= 1e-12 * np.linalg.norm(h)


@given(seed=SEEDS, n_rx=COUNTS, n_tx=COUNTS)
def test_hpsm_with_one_subarray_matches_pwm_on_drawn_paths(seed, n_rx, n_tx):
    # A lone subarray's center is its array's origin, up to the rounding of
    # the translation that with_rx_origin applies to each.
    ps, geom = drawn(seed, 4 * n_rx, 4 * n_tx, 1, 1)
    h = hpsm_channel(ps, geom).entries
    hp = pwm_channel(ps, geom).entries
    assert np.linalg.norm(h - hp) <= 1e-9 * np.linalg.norm(hp)


# Zeros of both signs, and magnitudes whose squares stay normal and whose
# sums of three squares stay finite, so no operation warns.
COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]),
              st.floats(1e-150, 1e150)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6).map(
    lambda shape: (*shape, 3)), elements=COMPONENTS))
def test_norm_is_numpys_norm_byte_for_byte(v):
    assert _norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


# -- stochastic path generator ----------------------------------------------

def test_draw_paths_count():
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    cfg = GscmConfig(n_clusters=3, rays_per_cluster=5)
    ps = draw_paths(np.random.default_rng(0), cfg, g)
    assert len(ps) == 16
    assert any(p.is_los for p in ps)


def test_gscm_config_checks_itself():
    for bad in (
        {"n_clusters": 0},
        {"elevation_spread": 0.0},
        {"scatterer_radius_min": 5.0, "scatterer_radius_max": 1.0},
        {"k_factor_std_db": -3.0},
    ):
        with pytest.raises(ValueError):
            GscmConfig(**bad)
    # A statistic that is no finite number is refused by name when built,
    # not as a non-finite channel or an OverflowError in draw_paths.
    for name, value in (
        ("azimuth_spread", float("nan")), ("k_factor_std_db", float("nan")),
        ("scatterer_radius_max", float("inf")), ("path_loss_exponent", float("inf")),
        ("k_factor_mean_db", float("nan")), ("elevation_spread", "0.05"),
    ):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got "):
            GscmConfig(**{name: value})
    # Finite, but 10 ** (k_db / 10) or a scatterer distance would leave float64
    # in draw_paths; each is refused by name with its bound.
    for name, value, message in (
        ("k_factor_mean_db", 1e6, r"must be in \[-300, 300\], got 1000000.0"),
        ("k_factor_mean_db", -300.5, r"must be in \[-300, 300\], got -300.5"),
        ("k_factor_std_db", 100.5, "must be <= 100, got 100.5"),
        ("scatterer_radius_max", 1e300, r"must be <= 1e\+06, got 1e\+300"),
        ("path_loss_exponent", -1000, r"must be in \[0, 10\], got -1000"),
        ("path_loss_exponent", 10.5, r"must be in \[0, 10\], got 10.5"),
    ):
        with pytest.raises(ValueError, match=rf"^{name} {message}$"):
            GscmConfig(**{name: value})
    # At the bounds every draw stays finite and non-zero.
    geometry = ArrayGeometry.uniform_linear(0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2,
                                            rx_origin=(6.0, 1.0, 0.0))
    for bounds in ({"k_factor_mean_db": 300.0, "k_factor_std_db": 100.0},
                   {"k_factor_mean_db": -300.0, "k_factor_std_db": 100.0},
                   {"scatterer_radius_min": 9e5, "scatterer_radius_max": 1e6}):
        for seed in range(20):
            gains = [p.reflection_gain for p in draw_paths(
                np.random.default_rng(seed), GscmConfig(**bounds), geometry)]
            assert np.all(np.isfinite(gains)) and np.all(np.abs(gains) > 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        GscmConfig().n_clusters = 0


@pytest.mark.parametrize("carrier", [1e6, 1e14])
def test_paths_and_channels_stay_non_zero_at_the_geometry_bounds(carrier):
    # The carrier band's edges, with the Tx origin and the Rx at opposite
    # corners of the coordinate box and scatterers as far out as allowed.
    # Each path-loss exponent bound too, which scales the gains by a power of
    # that long distance.
    config = GeometryConfig(carrier_frequency=carrier, tx_origin=(1e6, 1e6, 1e6))
    geometry = config.at((-1e6, -1e6, -1e6))
    for exponent in PATH_LOSS_EXPONENT_RANGE:
        gscm = GscmConfig(scatterer_radius_min=9e5, scatterer_radius_max=1e6,
                          path_loss_exponent=exponent)
        for seed in range(5):
            paths = draw_paths(np.random.default_rng(seed), gscm, geometry)
            gains = [p.reflection_gain for p in paths]
            assert np.all(np.isfinite(gains)) and np.all(np.abs(gains) > 0)
            assert np.all(np.abs(swm_channel(paths, geometry).entries) > 0)


@pytest.mark.parametrize("key, value", [
    ("n_clusters", 0), ("n_clusters", 2.5), ("rays_per_cluster", -1),
    ("rays_per_cluster", 5.0), ("rays_per_cluster", True),
])
def test_gscm_counts_are_named_integers(key, value):
    # Refused by name when built, not as a TypeError inside draw_paths.
    with pytest.raises(ValueError, match=rf"^{key} must be an integer >= 1, got {value!r}$"):
        GscmConfig(**{key: value})


def test_draw_paths_deterministic():
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    cfg = GscmConfig()
    a = draw_paths(np.random.default_rng(42), cfg, g)
    b = draw_paths(np.random.default_rng(42), cfg, g)
    for pa, pb in zip(a, b):
        assert pa.reflection_gain == pb.reflection_gain
        assert pa.is_los == pb.is_los
        if not pa.is_los:
            assert np.array_equal(pa.scatterer_position, pb.scatterer_position)
    c = draw_paths(np.random.default_rng(43), cfg, g)
    assert any(pa.reflection_gain != pc.reflection_gain for pa, pc in zip(a, c))


def test_draw_paths_huge_k_factor_concentrates_los():
    # With a +60 dB K-factor essentially all energy rides the line of sight;
    # the beamspace bins of the LoS direction must hold >= 99% of the energy.
    g = ArrayGeometry.uniform_linear(
        0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2, rx_origin=(6.0, 1.5, 0.0)
    )
    cfg = GscmConfig(k_factor_mean_db=60.0, k_factor_std_db=1e-9)
    rx_d, tx_d = dictionaries_for(g)
    los_only = PathSet([p for p in draw_paths(np.random.default_rng(0), cfg, g) if p.is_los])
    mask = np.abs(to_beamspace(swm_channel(los_only, g), rx_d, tx_d).entries) > 1e-12
    fractions = []
    for trial in range(100):
        ps = draw_paths(np.random.default_rng([5, trial]), cfg, g)
        hb = to_beamspace(swm_channel(ps, g), rx_d, tx_d).entries
        power = np.abs(hb) ** 2
        fractions.append(power[mask].sum() / power.sum())
    assert np.mean(fractions) >= 0.99


def test_channel_synthesis_is_pure():
    g = linear_geometry(n_tx=8, n_rx=8, rx_origin=(5.0, 0.5, 0.2))
    ps = draw_paths(np.random.default_rng(9), GscmConfig(), g)
    h1 = swm_channel(ps, g).entries
    h2 = swm_channel(ps, g).entries
    assert np.array_equal(h1, h2)
