import json
import re
import struct
import threading
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frame_cases import (  # noqa: F401  (the shared frame tests, run here on datasets)
    HEAD,
    FileKind,
    pack,
    parts,
    payload_at,
    rewrite_section,
    test_cli_reports_wrong_length,
    test_rejects_bad_magic as test_read_rejects_bad_magic,
    test_rejects_unknown_version as test_read_rejects_unknown_version,
    test_rejects_wrong_length as test_read_rejects_wrong_length,
    test_truncation_or_extension_is_a_value_error as test_cut_or_extended_file_is_a_value_error,
)
from thzgen import _lanes, dataset
from thzgen.dataset import (
    FORMAT,
    Dataset,
    DatasetConfig,
    SamplingRegion,
    build_dataset,
    normalize,
    read_dataset,
    split,
    write_dataset,
)
from thzgen.errors import DegenerateGeometryError, InsufficientDataError
from thzgen.geometry import CARRIER_BAND, COORDINATE_LIMIT, ArrayGeometry, CheckpointMeta
from thzgen.paths import GscmConfig

GEOM = ArrayGeometry.uniform_linear(0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2)
REGION = SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))


def small_dataset(n=10, seed=0):
    return build_dataset(seed, GEOM, GscmConfig(), REGION, n)


def test_build_bookkeeping():
    ds = small_dataset(10)
    assert len(ds) == 10
    # The header is the run's record: the geometry that made the data, and its seed.
    assert ds.header == CheckpointMeta(**asdict(GEOM.config), master_seed=0)
    assert ds.conditions.shape == (10, 8)
    assert ds.tensors.shape == (10, 2, 8, 16)
    assert np.all(np.isfinite(ds.tensors))


def test_build_conditions_respect_region():
    ds = small_dataset(20)
    xyz = ds.conditions[:, 1:4]
    assert np.all(xyz >= np.array(REGION.low) - 1e-12)
    assert np.all(xyz <= np.array(REGION.high) + 1e-12)
    np.testing.assert_allclose(
        ds.conditions[:, 0], np.linalg.norm(xyz, axis=1), rtol=1e-12
    )


def test_build_deterministic_and_order_independent():
    a = small_dataset(8, seed=5)
    b = small_dataset(8, seed=5)
    assert np.array_equal(a.tensors, b.tensors)
    assert np.array_equal(a.conditions, b.conditions)
    # Per-index RNG streams: a shorter build reproduces a prefix.
    c = build_dataset(5, GEOM, GscmConfig(), REGION, 4)
    assert np.array_equal(c.tensors, a.tensors[:4])


# -- lanes --------------------------------------------------------------------

needs_blas_setter = pytest.mark.skipif(
    not _lanes._blas_single_threaded,
    reason="no OpenBLAS thread setter: every call runs on one lane")


def use_lanes(monkeypatch, lanes):
    """Run every build on ``lanes`` lanes, whatever its channel size."""
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: lanes)
    monkeypatch.setattr(_lanes, "ITEM_FLOPS", 0)


def test_build_bytes_do_not_depend_on_lane_count(monkeypatch):
    builds = []
    for lanes in (1, 2, 3):
        use_lanes(monkeypatch, lanes)
        assert dataset.lane_count(GEOM, 9) == (lanes if _lanes._blas_single_threaded else 1)
        builds.append(small_dataset(9, seed=3))
    for lanes, ds in zip((2, 3), builds[1:]):
        assert ds.tensors.tobytes() == builds[0].tensors.tobytes(), lanes
        assert ds.conditions.tobytes() == builds[0].conditions.tobytes(), lanes


def degenerate_samples(monkeypatch, bad, seed=0):
    """Make ``swm_channel`` refuse the samples in ``bad``; returns who ran each."""
    positions = {}
    for i in range(10):
        positions[REGION.draw(dataset.sample_rng(seed, i)).tobytes()] = i
    threads = {}
    real = dataset.swm_channel

    def channel(paths, geometry):
        i = positions[np.asarray(geometry.rx_origin).tobytes()]
        threads[i] = threading.get_ident()
        if i in bad:
            raise DegenerateGeometryError(f"made degenerate at {i}")
        return real(paths, geometry)

    monkeypatch.setattr(dataset, "swm_channel", channel)
    return threads


@needs_blas_setter
@pytest.mark.parametrize("bad, lowest, ran", [
    ({3, 4, 8}, 3, [0, 1, 2, 3, 4]),  # lane 0 stops at 4, lane 1 at 3
    ({2, 5}, 2, [0, 1, 2, 3, 5]),     # lane 0 stops at 2, lane 1 at 5
])
def test_lowest_degenerate_sample_is_named_on_any_lane(monkeypatch, bad, lowest, ran):
    use_lanes(monkeypatch, 2)
    threads = degenerate_samples(monkeypatch, bad)
    with pytest.raises(DegenerateGeometryError, match=f"^sample {lowest}: made degenerate at {lowest}$"):
        small_dataset(10)
    assert sorted(threads) == ran
    caller = threading.get_ident()  # lane 0 ran the even samples
    assert all((threads[i] == caller) == (i % 2 == 0) for i in ran)


@needs_blas_setter
def test_small_channels_stay_on_one_lane_and_large_ones_split(monkeypatch):
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
    assert dataset.lane_count(GEOM, 1000) == 1  # 8x16: interpreter-bound
    large = ArrayGeometry.uniform_linear(0.3e12, n_tx=256, n_rx=64, k_tx=8, k_rx=4)
    assert dataset.lane_count(large, 16) == 2
    assert dataset.lane_count(large, 1) == 1


def constant_dataset(value, n=1):
    tensors = np.full((n, 2, 8, 16), float(value))
    return Dataset(header=CheckpointMeta(n_rx=8, n_tx=16, k_rx=2, k_tx=2), conditions=np.zeros((n, 8)), tensors=tensors)


def test_normalize_constant_case():
    ds, s = normalize(constant_dataset(2.0))
    assert s == pytest.approx(2.0)
    np.testing.assert_allclose(ds.tensors, 1.0)
    assert ds.header.normalization_scalar == pytest.approx(2.0)


def test_normalize_idempotent_and_invertible():
    raw = small_dataset(16)
    ds, s = normalize(raw)
    _, s2 = normalize(ds)
    assert s2 == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(ds.tensors * s, raw.tensors, rtol=1e-12)
    # The header scalar composes so de-normalization always works.
    assert ds.header.normalization_scalar == pytest.approx(s)
    norms = np.linalg.norm(ds.tensors.reshape(len(ds), -1), axis=1)
    assert norms.mean() / np.sqrt(2 * 8 * 16) == pytest.approx(1.0, abs=1e-6)


def test_normalize_rejects_all_zero():
    with pytest.raises(ValueError):
        normalize(constant_dataset(0.0))


def test_split_fractions_and_disjoint_cells():
    ds = small_dataset(1000)
    train, test = split(ds, 0.1, cell_size=0.5)
    assert len(train) + len(test) == 1000
    assert 80 <= len(test) <= 120

    def cells(d):
        return {tuple(np.floor(d.conditions[i, 1:4] / 0.5).astype(int)) for i in range(len(d))}

    assert not (cells(train) & cells(test))


def test_split_deterministic():
    ds = small_dataset(300)
    a_train, a_test = split(ds, 0.2)
    b_train, b_test = split(ds, 0.2)
    assert np.array_equal(a_test.tensors, b_test.tensors)
    assert np.array_equal(a_train.conditions, b_train.conditions)


def test_split_rejects_coarse_cells():
    ds = small_dataset(50)
    with pytest.raises(InsufficientDataError):
        split(ds, 0.1, cell_size=100.0)
    # One sample is one cell: a 99% split would leave nothing to train on.
    with pytest.raises(InsufficientDataError, match="leaves the train side empty"):
        split(small_dataset(1), 0.99)


def test_split_rejects_bad_fraction():
    ds = small_dataset(10)
    for f in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            split(ds, f)
    # A string is refused by name, not compared into a TypeError.
    with pytest.raises(ValueError,
                       match=r"^test_fraction must be a finite number in \(0, 1\), got '0.1'$"):
        DatasetConfig(test_fraction="0.1")
    with pytest.raises(ValueError,
                       match=r"^normalization_scalar must be a finite number in \(0, inf\)"):
        CheckpointMeta(n_rx=1, n_tx=1, k_rx=1, k_tx=1, normalization_scalar="x")


def positions_dataset(positions, seed=0):
    """Samples at the given Rx offsets; sample i's tensor holds the value i."""
    n = len(positions)
    conditions = np.zeros((n, 8))
    conditions[:, 1:4] = positions
    return Dataset(
        header=CheckpointMeta(n_rx=1, n_tx=1, k_rx=1, k_tx=1, master_seed=seed),
        conditions=conditions,
        tensors=np.broadcast_to(np.arange(n, dtype=float)[:, None, None, None],
                                (n, 2, 1, 1)).copy(),
    )


@given(
    points=st.lists(st.tuples(*[st.floats(-5.0, 5.0)] * 3), min_size=1, max_size=120),
    repeats=st.lists(st.integers(0, 2**16), max_size=20),
    test_fraction=st.one_of(st.floats(0.001, 0.05), st.floats(0.05, 0.95),
                            st.floats(0.95, 0.999)),
    cell_size=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_keeps_cells_disjoint_and_indices_whole(points, repeats, test_fraction,
                                                      cell_size, seed):
    # Repeated points put several samples in one cell.
    ds = positions_dataset(points + [points[i % len(points)] for i in repeats], seed)
    try:
        train, test = split(ds, test_fraction, cell_size)
    except InsufficientDataError as exc:
        # Too few points or cells for the fraction: a named refusal, not a bad header.
        assert re.match(r"position cells too coarse|a \d+% split of \d+ samples leaves "
                        r"the train side empty", str(exc)), exc
        return

    def cells(d):
        return {tuple(np.floor(p / cell_size).astype(int)) for p in d.conditions[:, 1:4]}

    assert not cells(train) & cells(test)
    index = np.concatenate([train.tensors[:, 0, 0, 0], test.tensors[:, 0, 0, 0]])
    assert sorted(index) == list(range(len(ds)))
    for side in (train, test):
        assert side.header == ds.header and len(side.tensors) == len(side.conditions)


@pytest.mark.parametrize("cell_size", [0.0, -0.5, float("nan"), float("inf")])
def test_split_rejects_bad_cell_size(cell_size):
    with pytest.raises(ValueError, match=r"^cell_size must be a finite number in \[1e-09, inf\)"):
        split(positions_dataset([(0.0, 0.0, 0.0)] * 10), 0.1, cell_size)


def test_file_round_trip(tmp_path):
    ds, _ = normalize(small_dataset(12, seed=3))
    path = tmp_path / "ds.bin"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.header == ds.header
    # Tensors survive bit-exactly modulo the f32 storage precision.
    np.testing.assert_array_equal(
        back.tensors, ds.tensors.astype(np.float32).astype(float)
    )
    np.testing.assert_array_equal(
        back.conditions, ds.conditions.astype(np.float32).astype(float)
    )


def test_write_is_byte_deterministic(tmp_path):
    ds, _ = normalize(small_dataset(6, seed=1))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_dataset(p1, ds)
    write_dataset(p2, ds)
    assert p1.read_bytes() == p2.read_bytes()


RECORD_BYTES = 4 * (8 + 2 * 8 * 16)  # condition + real/imag 8x16 tensor, f32


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "ok.bin"
    write_dataset(path, normalize(small_dataset(3, seed=2))[0])
    raw = path.read_bytes()
    assert len(raw) == payload_at(raw) + 3 * RECORD_BYTES
    return raw


@pytest.fixture(scope="module")
def kind(dataset_bytes):
    def eval_argv(path):
        return ["eval", "--gen", str(path), "--ref", str(path), "--out-csv", f"{path}.csv"]

    return FileKind(FORMAT, dataset_bytes, read_dataset, eval_argv)


def version_1(raw: bytes) -> bytes:
    """The file in the version-1 layout: a packed header of counts, then the records."""
    fields = (b"THZC", 1, 8, 16, 2, 2, 8, 3, 1.0, 0)  # ..., cond_dim, count, scalar, seed
    return struct.pack("<4sI5IQdQ", *fields) + parts(raw)[1]


def version_2(raw: bytes) -> bytes:
    """The file in the version-2 layout: a u64 count after the JSON length, and
    the header's keys at the top level of the JSON."""
    doc, records = parts(raw)
    blob = json.dumps(doc["meta"], sort_keys=True).encode()
    return HEAD.pack(b"THZC", 2, len(blob)) + doc["count"].to_bytes(8, "little") + blob + records


@pytest.mark.parametrize("damage, match", [
    pytest.param(lambda raw: pack(raw, {**parts(raw)[0], "count": 0}, payload=b""),
                 "metadata 'count' must be an integer >= 1, got 0", id="count_0"),
    pytest.param(lambda raw: rewrite_section(raw, "meta", normalization_scalar=float("nan")),
                 r"metadata 'meta' is invalid: normalization_scalar must be a finite number in "
                 r"\(0, inf\), got nan",
                 id="3-nan-normalization_scalar must be a finite number > 0, got nan"),
    # The condition vector has one length, so the header holds none.
    pytest.param(lambda raw: rewrite_section(raw, "meta", condition_dim=8),
                 r"metadata 'meta' has unknown keys \['condition_dim'\]", id="condition_dim"),
    pytest.param(lambda raw: rewrite_section(raw, "meta", owner="x"),
                 r"metadata 'meta' has unknown keys \['owner'\]", id="unknown_key"),
    pytest.param(lambda raw: rewrite_section(raw, "meta", drop=["carrier_frequency"]),
                 r"metadata 'meta' is missing keys \['carrier_frequency'\]", id="missing_key"),
    pytest.param(lambda raw: rewrite_section(raw, "meta", normalization_scalar="2.0"),
                 r"metadata 'meta' is invalid: normalization_scalar must be a finite number in "
                 r"\(0, inf\), got '2.0'", id="string_scale"),
    pytest.param(lambda raw: rewrite_section(raw, "meta", k_rx=3),
                 "metadata 'meta' is invalid: k_rx=3 does not divide n_rx=8", id="indivisible_k"),
    pytest.param(lambda raw: pack(raw, {"meta": parts(raw)[0]["meta"]}),
                 r"metadata must hold exactly the keys \['count', 'meta'\], it has \['meta'\]",
                 id="no_count"),
    pytest.param(lambda raw: pack(raw, raw[HEAD.size:payload_at(raw) - 5]),
                 "metadata is not valid JSON", id="cut_json"),
    pytest.param(lambda raw: pack(raw, b"\xff"), "metadata is not valid JSON", id="not_utf8"),
    pytest.param(lambda raw: pack(raw, b"[8, 16]"), "metadata must be a JSON object",
                 id="json_array"),
    pytest.param(lambda raw: pack(raw, {**parts(raw)[0], "count": 4}),
                 r"is truncated: its layout needs at least \d+ bytes", id="count_beyond_records"),
    pytest.param(lambda raw: raw + b"\0" * 4, "4 trailing bytes", id="trailing_bytes"),
    pytest.param(version_1, "has version 1, an older layout; this reader takes version 3 "
                 "only, so regenerate it", id="version_1"),
    pytest.param(version_2, "has version 2, an older layout; this reader takes version 3 "
                 "only, so regenerate it", id="version_2"),
])
def test_read_rejects_invalid_header(tmp_path, dataset_bytes, damage, match):
    path = tmp_path / "bad_header.bin"
    path.write_bytes(damage(dataset_bytes))
    with pytest.raises(ValueError, match=match) as info:
        read_dataset(path)
    assert str(path) in str(info.value)


def test_header_validation():
    for scale in (0.0, -2.0, float("nan"), float("inf"), "1.0", True):
        with pytest.raises(ValueError,
                           match=r"^normalization_scalar must be a finite number in \(0, inf\)"):
            CheckpointMeta(normalization_scalar=scale)
    for k_rx, k_tx in ((0, 2), (2, -1), (3, 2), (2, 3), (2.0, 2), (True, 2)):
        with pytest.raises(ValueError, match="k_"):
            CheckpointMeta(n_rx=8, n_tx=16, k_rx=k_rx, k_tx=k_tx)
    for n_rx, n_tx in ((0, 16), (8, 0), (-8, 16), (8, -16), (8.0, 16), (8, True)):
        with pytest.raises(ValueError, match="n_(rx|tx) must be an integer >= 1"):
            CheckpointMeta(n_rx=n_rx, n_tx=n_tx, k_rx=1, k_tx=1)
    for seed in (-1, 2**64, 3.0, True):
        with pytest.raises(ValueError, match=r"master_seed must be an integer in \[0, 2\*\*64\)"):
            CheckpointMeta(master_seed=seed)
    CheckpointMeta(master_seed=2**64 - 1)
    # A dataset holds at least one sample, and arrays of the header's shape.
    with pytest.raises(ValueError, match=r"^sample count must be an integer >= 1, got 0$"):
        Dataset(CheckpointMeta(), np.zeros((0, 8)), np.zeros((0, 2, 8, 16)))
    with pytest.raises(ValueError, match="tensors shape .* inconsistent with header"):
        Dataset(CheckpointMeta(), np.zeros((2, 8)), np.zeros((2, 2, 16, 8)))


@st.composite
def run_records(draw):
    """Any valid CheckpointMeta, geometry keys included, of a small array."""
    side = {}
    for name in ("tx", "rx"):
        k = draw(st.integers(1, 3), label=f"k_{name}")
        side[f"n_{name}"] = k * draw(st.integers(1, 3), label=f"n_{name} / k_{name}")
        side[f"k_{name}"] = k
    intra = draw(st.none() | st.floats(1e-6, 1e3), label="intra_spacing")
    inter = draw(st.none() | st.floats(1e-6, 1e3), label="inter_spacing")
    if intra is not None and inter is not None:
        intra, inter = sorted((intra, inter))
    point = st.tuples(*[st.floats(-COORDINATE_LIMIT, COORDINATE_LIMIT)] * 3)
    try:
        return CheckpointMeta(
            carrier_frequency=draw(st.floats(*CARRIER_BAND), label="carrier_frequency"),
            intra_spacing=intra, inter_spacing=inter,
            tx_origin=draw(point, label="tx_origin"),
            axis=draw(point.filter(any), label="axis"),
            normalization_scalar=draw(st.floats(1e-300, 1e300), label="normalization_scalar"),
            master_seed=draw(st.integers(0, 2**64 - 1), label="master_seed"),
            **side)
    except ValueError:  # a None spacing of a low carrier can exceed the other one
        draw(st.nothing())


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(header=run_records(), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_any_header_and_arrays_survive_a_round_trip(tmp_path, header, count, seed):
    rng = np.random.default_rng(seed)
    # float32 values, which the records store exactly.
    conditions = rng.normal(size=(count, 8)).astype(np.float32).astype(float)
    tensors = rng.normal(size=(count, 2, header.n_rx, header.n_tx)).astype(np.float32)
    written = Dataset(header, conditions, tensors.astype(float))
    path = tmp_path / "round_trip.bin"
    write_dataset(path, written)
    back = read_dataset(path)
    assert back.header == header
    assert back.conditions.tobytes() == written.conditions.tobytes()
    assert back.tensors.tobytes() == written.tensors.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_build_dataset_checks_its_seed_before_synthesis(monkeypatch, seed):
    def no_synthesis(*args):
        raise AssertionError("synthesized a sample under a bad seed")

    monkeypatch.setattr(dataset, "draw_paths", no_synthesis)
    with pytest.raises(ValueError, match=r"^master_seed must be an integer in \[0, 2\*\*64\)"):
        build_dataset(seed, GEOM, GscmConfig(), REGION, 5)


def test_region_validation():
    for low, high in (
        ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),  # inverted on every axis
        ((0.0, 0.0, 1.0), (1.0, 1.0, 0.0)),  # inverted on one axis
        ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),  # a single point
    ):
        with pytest.raises(ValueError, match="degenerate sampling region"):
            SamplingRegion(low, high)
    # A non-finite corner is refused by name, not as an OverflowError in draw.
    with pytest.raises(ValueError, match=r"^region high must be 3 finite numbers"):
        SamplingRegion((0.0, 0.0, 0.0), (float("inf"), 1.0, 1.0))
    with pytest.raises(ValueError, match=r"^region low must be 3 finite numbers"):
        SamplingRegion((float("nan"), 0.0, 0.0), (1.0, 1.0, 1.0))
    # Finite, but the free-space amplitudes of draw_paths would underflow to 0.
    with pytest.raises(ValueError, match=r"^region low must be 3 numbers in \[-1e\+06, 1e\+06\] m"):
        SamplingRegion((1e300, 0.0, 0.0), (1e300, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"^region high must be 3 numbers in \[-1e\+06, 1e\+06\] m"):
        SamplingRegion((0.0, 0.0, 0.0), (1.0, 1.0, 2e6))
    SamplingRegion((-1e6, -1e6, -1e6), (1e6, 1e6, 1e6))
    # A flat axis is allowed.
    region = SamplingRegion((4.0, -3.0, 0.0), (10.0, 3.0, 0.0))
    assert region.draw(np.random.default_rng(0))[2] == 0.0
