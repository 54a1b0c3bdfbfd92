import hashlib

import numpy as np
import pytest

from thzgen.beamspace import dictionaries_for, to_beamspace
from thzgen.channel import hpsm_channel, pwm_channel, steering_vector, swm_channel
from thzgen.dataset import SamplingRegion, sample_rng
from thzgen.errors import DegenerateGeometryError
from thzgen.evaluation import nmse
from thzgen.geometry import ArrayGeometry, direction_angles, rayleigh_distance, unit_direction
from thzgen.paths import GscmConfig, Path, PathSet, draw_paths


def linear_geometry(n_tx=4, n_rx=4, k_tx=1, k_rx=1, rx_origin=(10.0, 0.0, 0.0)):
    return ArrayGeometry.uniform_linear(
        0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx, rx_origin=rx_origin
    )


def los_path(geometry, gain=1.0):
    aod = direction_angles(geometry.tx_origin, geometry.rx_origin)
    aoa = direction_angles(geometry.rx_origin, geometry.tx_origin)
    return Path(gain_magnitude=gain, global_phase=0.0, aod=aod, aoa=aoa, is_los=True)


# -- steering vectors -------------------------------------------------------

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
    g = linear_geometry()
    path = Path(gain_magnitude=1.0, global_phase=0.0, aod=(0.0, 0.0), aoa=(0.0, 0.0))
    h = pwm_channel(PathSet([path]), g)
    np.testing.assert_allclose(h.entries, np.full((4, 4), 0.25), atol=1e-12)
    assert h.frobenius_norm == pytest.approx(1.0)


def test_pwm_opposite_gains_cancel():
    g = linear_geometry()
    a = Path(gain_magnitude=1.0, global_phase=0.3, aod=(0.1, 0.0), aoa=(-0.2, 0.0))
    b = Path(gain_magnitude=1.0, global_phase=0.3 + np.pi, aod=(0.1, 0.0), aoa=(-0.2, 0.0))
    h = pwm_channel(PathSet([a, b]), g)
    np.testing.assert_allclose(h.entries, 0, atol=1e-12)


def test_pwm_on_grid_path_hits_single_beam():
    # With the array along y and lambda/2 pitch, a direction whose axis
    # projection is sin(az) = 2b/n matches the b-th DFT column exactly, so
    # the path occupies a single beamspace bin.  Brute force over all bins.
    g = linear_geometry(n_tx=8, n_rx=8)
    rx_d, tx_d = dictionaries_for(g)
    for bt in range(-3, 4):
        for br in range(-3, 4):
            path = Path(
                gain_magnitude=0.7,
                global_phase=0.0,
                aod=(float(np.arcsin(2 * bt / 8)), 0.0),
                aoa=(float(np.arcsin(2 * br / 8)), 0.0),
            )
            h = pwm_channel(PathSet([path]), g)
            hb = np.abs(to_beamspace(h, rx_d, tx_d).entries)
            assert hb.max() == pytest.approx(0.7, abs=1e-10)
            assert np.partition(hb.ravel(), -2)[-2] < 1e-10


def pwm_reference(paths, g):
    """The planar model as a sum of per-path outer products of steering vectors."""
    h = np.zeros((g.n_rx, g.n_tx), dtype=complex)
    for path in paths:
        alpha = path.gain_magnitude * np.exp(-1j * path.global_phase)
        a_r = steering_vector(g, "rx", "full", *path.aoa)
        a_t = steering_vector(g, "tx", "full", *path.aod)
        h += alpha * np.outer(a_r.conj(), a_t.conj())
    return h


def test_pwm_matches_sum_of_outer_products():
    g = linear_geometry(n_tx=32, n_rx=16, k_tx=4, k_rx=2, rx_origin=(6.0, 1.0, 0.3))
    ps = draw_paths(np.random.default_rng(3), GscmConfig(), g)
    ref = pwm_reference(ps, g)
    h = pwm_channel(ps, g).entries
    assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)


# -- spherical wave model ---------------------------------------------------

def test_swm_single_antenna_los():
    lam = 0.3e12
    g = ArrayGeometry.uniform_linear(lam, n_tx=1, n_rx=1, rx_origin=(0.0, 0.0, 0.0))
    d = 1000 * g.wavelength
    g = g.with_rx_origin((d, 0.0, 0.0))
    h = swm_channel(PathSet([los_path(g)]), g)
    expected = g.wavelength / (4 * np.pi * d)
    assert h.entries[0, 0] == pytest.approx(expected, abs=1e-15)
    assert abs(np.angle(h.entries[0, 0])) < 1e-6


def far_near_correlation(distance_factor):
    g = linear_geometry(n_tx=16, n_rx=16)
    d_r = rayleigh_distance(g.aperture("tx"), g.wavelength)
    g = g.with_rx_origin((distance_factor * d_r, 0.0, 0.0))
    paths = PathSet([los_path(g)])
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
    bad = Path(
        gain_magnitude=1.0, global_phase=0.0, aod=(0, 0), aoa=(0, 0),
        scatterer_position=scat, reflection_gain=1.0,
    )
    with pytest.raises(DegenerateGeometryError):
        swm_channel(PathSet([bad]), g)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_swm_names_the_scatterer_on_an_element(side):
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    ps = list(draw_paths(np.random.default_rng(1), GscmConfig(), g))
    element = g.element_positions_tx[2] if side == "tx" else g.element_positions_rx[1]
    ps[4] = Path(
        gain_magnitude=1.0, global_phase=0.0, aod=(0, 0), aoa=(0, 0),
        scatterer_position=element, reflection_gain=1.0,
    )
    with pytest.raises(DegenerateGeometryError, match="scatterer 4 coincides"):
        swm_channel(PathSet(ps), g)


def test_swm_rejects_coincident_tx_and_rx_elements():
    g = linear_geometry(n_tx=4, n_rx=4, rx_origin=(0.0, 0.0, 0.0))
    los = Path(gain_magnitude=1.0, global_phase=0.0, aod=(0, 0), aoa=(0, 0), is_los=True)
    with pytest.raises(DegenerateGeometryError, match="tx and rx elements coincide"):
        swm_channel(PathSet([los]), g)


REGION = SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))

# SHA-256 of the SWM channel bytes below, written by the per-path numpy
# loop before it moved into channel.py (numpy 2.4, x86_64).  gen-data's
# ground truth is SWM, so this pins its output bit for bit.
SWM_DIGEST = "25e5945d3ef3080498af8c726cfa14f1792ac32f927864e2fbebf07b02ebc474"


def test_swm_bytes_are_pinned():
    digest = hashlib.sha256()
    for n_rx, n_tx, k_rx, k_tx in ((8, 16, 2, 2), (64, 256, 4, 8)):
        geom = ArrayGeometry.uniform_linear(
            0.3e12, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx
        )
        for i in range(3):
            rng = sample_rng(7, i)
            geom_i = geom.with_rx_origin(REGION.draw(rng))
            ps = draw_paths(rng, GscmConfig(), geom_i)
            digest.update(swm_channel(ps, geom_i).entries.tobytes())
    assert digest.hexdigest() == SWM_DIGEST


def test_swm_requires_scatterer_for_nlos():
    g = linear_geometry()
    synthetic = Path(gain_magnitude=1.0, global_phase=0.0, aod=(0, 0), aoa=(0, 0))
    with pytest.raises(ValueError, match="scatterer"):
        swm_channel(PathSet([synthetic]), g)


# -- hybrid model -----------------------------------------------------------

def test_hpsm_single_subarray_equals_pwm():
    g = linear_geometry(n_tx=8, n_rx=4, k_tx=1, k_rx=1)
    path = Path(gain_magnitude=0.9, global_phase=1.1, aod=(0.2, 0.05), aoa=(-0.3, 0.0))
    hp = pwm_channel(PathSet([path]), g)
    hh = hpsm_channel(PathSet([path]), g)
    np.testing.assert_allclose(hh.entries, hp.entries, atol=1e-12)


def test_hpsm_block_dimensions():
    g = linear_geometry(n_tx=16, n_rx=8, k_tx=4, k_rx=2)
    h = hpsm_channel(PathSet([los_path(g)]), g)
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
    d_sub = rayleigh_distance(g.subarray_aperture("tx"), g.wavelength)
    d = np.sqrt(d_full * d_sub)  # geometric middle of the cross-field band
    assert d_sub < d < d_full
    g = g.with_rx_origin((d, 0.0, 0.0))
    paths = PathSet([los_path(g, gain=np.sqrt(64 * 16) * g.wavelength / (4 * np.pi * d))])
    hs = swm_channel(paths, g).entries
    e_h = nmse(hpsm_channel(paths, g).entries, hs)
    e_p = nmse(pwm_channel(paths, g).entries, hs)
    assert e_h < e_p


def hpsm_reference(paths, geometry):
    """The hybrid model as a loop over (Rx subarray, Tx subarray, path).

    Each block is a sum of rank-one outer products of per-subarray steering
    vectors, with gains, phases and angles taken from the subarray centers.
    """
    lam = geometry.wavelength
    k_wave = 2.0 * np.pi / lam
    n_sub_r, n_sub_t = geometry.n_rx_sub, geometry.n_tx_sub
    sub_scale = np.sqrt(n_sub_r * n_sub_t)
    full_scale = np.sqrt(geometry.n_rx * geometry.n_tx)
    coef = lam / (4.0 * np.pi)
    h = np.zeros((geometry.n_rx, geometry.n_tx), dtype=complex)
    for kr in range(geometry.k_rx):
        c_kr = geometry.subarray_centers_rx[kr]
        for kt in range(geometry.k_tx):
            c_kt = geometry.subarray_centers_tx[kt]
            block = np.zeros((n_sub_r, n_sub_t), dtype=complex)
            for path in paths:
                refl = 1.0 if path.reflection_gain is None else path.reflection_gain
                if path.scatterer_position is not None:
                    s = path.scatterer_position
                    d1 = float(np.linalg.norm(s - c_kt))
                    d2 = float(np.linalg.norm(c_kr - s))
                    gain = sub_scale * refl * (coef / d1) * (coef / d2)
                    phase = k_wave * (d1 + d2)
                    aod = direction_angles(c_kt, s)
                    aoa = direction_angles(c_kr, s)
                elif path.is_los:
                    d = float(np.linalg.norm(c_kr - c_kt))
                    gain = sub_scale * refl * coef / d
                    phase = k_wave * d
                    aod = direction_angles(c_kt, c_kr)
                    aoa = direction_angles(c_kr, c_kt)
                else:
                    u_t = unit_direction(*path.aod)
                    u_r = unit_direction(*path.aoa)
                    gain = path.gain_magnitude * sub_scale / full_scale
                    phase = (
                        path.global_phase
                        - k_wave * float((c_kr - geometry.rx_origin) @ u_r)
                        - k_wave * float((c_kt - geometry.tx_origin) @ u_t)
                    )
                    aod, aoa = path.aod, path.aoa
                a_r = steering_vector(geometry, "rx", kr, *aoa)
                a_t = steering_vector(geometry, "tx", kt, *aod)
                block += gain * np.exp(-1j * phase) * np.outer(a_r.conj(), a_t.conj())
            h[kr * n_sub_r : (kr + 1) * n_sub_r, kt * n_sub_t : (kt + 1) * n_sub_t] = block
    return h


def hpsm_case_paths(kind, rng, geometry):
    drawn = list(draw_paths(rng, GscmConfig(), geometry))
    scattered = [p for p in drawn if not p.is_los]
    los = [p for p in drawn if p.is_los]
    # Synthetic planar paths: the drawn angles and gains, no scatterer.
    planar = [
        Path(gain_magnitude=p.gain_magnitude, global_phase=p.global_phase,
             aod=p.aod, aoa=p.aoa)
        for p in scattered[:4]
    ]
    return {
        "scattered": scattered,
        "los": los,
        "planar": planar,
        "mixed": los + planar[:2] + scattered[2:],
    }[kind]


@pytest.mark.parametrize("kind", ["scattered", "los", "planar", "mixed"])
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


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_hpsm_rejects_scatterer_at_subarray_center(side):
    g = linear_geometry(n_tx=16, n_rx=8, k_tx=4, k_rx=2, rx_origin=(6.0, 1.0, 0.0))
    ps = list(draw_paths(np.random.default_rng(2), GscmConfig(), g))
    center = g.subarray_centers_tx[3] if side == "tx" else g.subarray_centers_rx[1]
    ps[5] = Path(
        gain_magnitude=1.0, global_phase=0.0, aod=(0, 0), aoa=(0, 0),
        scatterer_position=center, reflection_gain=1.0,
    )
    with pytest.raises(DegenerateGeometryError, match="scatterer coincides with a subarray center"):
        hpsm_channel(PathSet(ps), g)


def test_hpsm_rejects_coincident_subarray_centers():
    g = linear_geometry(n_tx=8, n_rx=4, k_tx=2, k_rx=1, rx_origin=(0.0, 0.0, 0.0))
    g = g.with_rx_origin(g.subarray_centers_tx[1])
    los = Path(gain_magnitude=1.0, global_phase=0.0, aod=(0, 0), aoa=(0, 0), is_los=True)
    with pytest.raises(DegenerateGeometryError, match="subarray centers coincide"):
        hpsm_channel(PathSet([los]), g)


# -- stochastic path generator ----------------------------------------------

def test_draw_paths_count():
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    cfg = GscmConfig(n_clusters=3, rays_per_cluster=5)
    ps = draw_paths(np.random.default_rng(0), cfg, g)
    assert len(ps) == 16
    assert ps.includes_los


def test_draw_paths_deterministic():
    g = linear_geometry(rx_origin=(6.0, 1.0, 0.0))
    cfg = GscmConfig()
    a = draw_paths(np.random.default_rng(42), cfg, g)
    b = draw_paths(np.random.default_rng(42), cfg, g)
    for pa, pb in zip(a, b):
        assert pa.gain_magnitude == pb.gain_magnitude
        assert pa.global_phase == pb.global_phase
        assert pa.aod == pb.aod and pa.aoa == pb.aoa
    c = draw_paths(np.random.default_rng(43), cfg, g)
    assert any(pa.gain_magnitude != pc.gain_magnitude for pa, pc in zip(a, c))


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
