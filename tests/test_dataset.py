import struct

import numpy as np
import pytest

from thzgen.cli import main
from thzgen.dataset import (
    _HEADER_FMT,
    Dataset,
    DatasetHeader,
    SamplingRegion,
    build_dataset,
    normalize,
    read_dataset,
    split,
    write_dataset,
)
from thzgen.errors import InsufficientDataError
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


def test_split_rejects_bad_fraction():
    ds = small_dataset(10)
    for f in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            split(ds, f)


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
    with pytest.raises(ValueError, match="magic"):
        read_dataset(path)


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


def test_header_validation():
    with pytest.raises(ValueError):
        DatasetHeader(
            n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=1, normalization_scalar=0.0
        ).validate()


def test_region_validation():
    with pytest.raises(ValueError):
        SamplingRegion((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)).validate()
