import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzgen import _lanes, dataset
from thzgen.cli import main
from thzgen.dataset import (
    _HEADER_FMT,
    Dataset,
    DatasetConfig,
    DatasetHeader,
    SamplingRegion,
    build_dataset,
    normalize,
    read_dataset,
    split,
    write_dataset,
)
from thzgen.errors import DegenerateGeometryError, InsufficientDataError
from thzgen.geometry import ArrayGeometry
from thzgen.paths import GscmConfig

GEOM = ArrayGeometry.uniform_linear(0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2)
REGION = SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))


def small_dataset(n=10, seed=0):
    return build_dataset(seed, GEOM, GscmConfig(), REGION, n)


def test_build_bookkeeping():
    ds = small_dataset(10)
    assert len(ds) == 10
    assert ds.header.sample_count == 10
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
    header = DatasetHeader(n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=n)
    return Dataset(header=header, conditions=np.zeros((n, 8)), tensors=tensors)


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
    with pytest.raises(ValueError, match=r"^test_fraction must be a finite number, got '0.1'$"):
        DatasetConfig(test_fraction="0.1")
    with pytest.raises(ValueError, match=r"^normalization_scalar must be a finite number > 0"):
        DatasetHeader(n_rx=1, n_tx=1, k_rx=1, k_tx=1, sample_count=1, normalization_scalar="x")


def positions_dataset(positions, seed=0):
    """Samples at the given Rx offsets; sample i's tensor holds the value i."""
    n = len(positions)
    conditions = np.zeros((n, 8))
    conditions[:, 1:4] = positions
    return Dataset(
        header=DatasetHeader(n_rx=1, n_tx=1, k_rx=1, k_tx=1, sample_count=n,
                             master_seed=seed),
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
        assert side.header.sample_count == len(side.conditions) == len(side.tensors)


@pytest.mark.parametrize("cell_size", [0.0, -0.5, float("nan"), float("inf")])
def test_split_rejects_bad_cell_size(cell_size):
    with pytest.raises(ValueError, match="cell_size must be a finite number > 0"):
        split(positions_dataset([(0.0, 0.0, 0.0)] * 10), 0.1, cell_size)


def test_file_round_trip(tmp_path):
    ds, _ = normalize(small_dataset(12, seed=3))
    path = tmp_path / "ds.bin"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.header.n_rx == ds.header.n_rx
    assert back.header.normalization_scalar == ds.header.normalization_scalar
    assert back.header.master_seed == ds.header.master_seed
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


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 60)
    with pytest.raises(ValueError, match="magic") as info:
        read_dataset(path)
    assert str(path) in str(info.value)


def test_read_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.bin"
    write_dataset(path, small_dataset(2))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99") as info:
        read_dataset(path)
    assert str(path) in str(info.value)


HEADER_BYTES = struct.calcsize(_HEADER_FMT)
RECORD_BYTES = 4 * (8 + 2 * 8 * 16)  # condition + real/imag 8x16 tensor, f32


def corrupt(raw: bytes, case: str) -> bytes:
    """A dataset file's bytes with one kind of length damage."""
    return {
        "short_header": raw[: HEADER_BYTES - 3],
        "truncated_body": raw[: HEADER_BYTES + RECORD_BYTES],
        "truncated_record": raw[:-5],
        "trailing_bytes": raw + b"\0" * 7,
    }[case]


CASES = ["short_header", "truncated_body", "truncated_record", "trailing_bytes"]


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "ok.bin"
    write_dataset(path, normalize(small_dataset(3, seed=2))[0])
    raw = path.read_bytes()
    assert len(raw) == HEADER_BYTES + 3 * RECORD_BYTES
    return raw


@pytest.mark.parametrize("case", CASES)
def test_read_rejects_wrong_length(tmp_path, dataset_bytes, case):
    path = tmp_path / f"{case}.bin"
    data = corrupt(dataset_bytes, case)
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        read_dataset(path)
    msg = str(info.value)
    assert str(path) in msg
    assert str(len(data)) in msg
    expected = HEADER_BYTES if case == "short_header" else len(dataset_bytes)
    assert str(expected) in msg


@pytest.mark.parametrize("case", CASES)
def test_cli_reports_wrong_length(tmp_path, dataset_bytes, case, capsys):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    good.write_bytes(dataset_bytes)
    bad.write_bytes(corrupt(dataset_bytes, case))
    argv = ["eval", "--gen", str(bad), "--ref", str(good), "--out-csv", str(tmp_path / "m.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


@settings(max_examples=100)
@given(data=st.data())
def test_cut_or_extended_file_is_a_value_error(tmp_path_factory, dataset_bytes, data):
    if data.draw(st.booleans(), label="cut"):
        damaged = dataset_bytes[: data.draw(st.integers(0, len(dataset_bytes) - 1),
                                            label="length")]
    else:
        damaged = dataset_bytes + data.draw(st.binary(min_size=1, max_size=64), label="tail")
    path = tmp_path_factory.mktemp("damaged") / "data.bin"
    path.write_bytes(damaged)
    with pytest.raises(ValueError) as info:
        read_dataset(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("count, scale, cond_dim, match", [
    pytest.param(0, 1.0, 8, "sample_count must be an integer >= 1, got 0",
                 id="0-1.0-sample_count must be an integer >= 1"),
    pytest.param(3, float("nan"), 8,
                 "normalization_scalar must be a finite number > 0, got nan",
                 id="3-nan-normalization_scalar must be a finite number > 0, got nan"),
    pytest.param(3, 1.0, 3, "condition_dim must be 8, got 3", id="condition_dim"),
])
def test_read_rejects_invalid_header(tmp_path, dataset_bytes, count, scale, cond_dim, match):
    # The length matches what the header declares; the header itself is bad.
    fields = list(struct.unpack(_HEADER_FMT, dataset_bytes[:HEADER_BYTES]))
    fields[6:9] = cond_dim, count, scale
    record_bytes = 4 * (cond_dim + 2 * 8 * 16)
    path = tmp_path / "bad_header.bin"
    path.write_bytes(struct.pack(_HEADER_FMT, *fields)
                     + dataset_bytes[HEADER_BYTES:HEADER_BYTES + count * record_bytes])
    with pytest.raises(ValueError, match=match) as info:
        read_dataset(path)
    assert str(path) in str(info.value)


def test_header_validation():
    for count, scale in ((0, 1.0), (1, 0.0), (1, -2.0), (1, float("nan")), (1, float("inf"))):
        with pytest.raises(ValueError):
            DatasetHeader(n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=count,
                          normalization_scalar=scale)
    for count in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=rf"^sample_count must be an integer >= 1, got {count}$"):
            DatasetHeader(n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=count)
    for k_rx, k_tx in ((0, 2), (2, -1), (3, 2), (2, 3), (2.0, 2), (True, 2)):
        with pytest.raises(ValueError, match="k_"):
            DatasetHeader(n_rx=8, n_tx=16, k_rx=k_rx, k_tx=k_tx, sample_count=1)
    for n_rx, n_tx in ((0, 16), (8, 0), (-8, 16), (8, -16), (8.0, 16), (8, True)):
        with pytest.raises(ValueError, match="n_(rx|tx) must be an integer >= 1"):
            DatasetHeader(n_rx=n_rx, n_tx=n_tx, k_rx=1, k_tx=1, sample_count=1)
    for seed in (-1, 2**64, 3.0, True):
        with pytest.raises(ValueError, match=r"master_seed must be an integer in \[0, 2\*\*64\)"):
            DatasetHeader(n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=1, master_seed=seed)
    DatasetHeader(n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=1, master_seed=2**64 - 1)


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
