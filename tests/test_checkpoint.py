import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from thzgen.checkpoint import (
    Checkpoint,
    CheckpointMeta,
    ema_denoiser,
    load_checkpoint,
    save_checkpoint,
)
from thzgen.cli import main
from thzgen.dit import DitConfig, init_params

CONFIG = DitConfig(n_rx=8, n_tx=16, patch_size=4, embed_dim=16, depth=1, n_heads=2,
                   mlp_ratio=2)


def random_checkpoint(seed=0):
    rng = np.random.default_rng(seed)

    def group(offset):
        params = init_params(CONFIG, rng)
        return {k: v + offset + rng.normal(0, 0.1, v.shape) for k, v in params.items()}

    return Checkpoint(
        config=CONFIG,
        params=group(0.0),
        ema_params=group(1.0),
        adam_m=group(-1.0),
        adam_v={k: np.abs(v) for k, v in group(0.5).items()},
        step=1234,
        meta=CheckpointMeta(
            normalization_scalar=2.5,
            k_rx=2,
            k_tx=2,
            master_seed=99,
            tx_origin=(0.0, 1.0, 2.0),
            geometry={"carrier_frequency": 0.3e12},
        ),
    )


def as_f32(d):
    return {k: v.astype(np.float32).astype(float) for k, v in d.items()}


def test_round_trip(tmp_path):
    ckpt = random_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)

    assert back.config == CONFIG
    assert back.step == 1234
    assert back.meta.normalization_scalar == 2.5
    assert back.meta.k_rx == 2 and back.meta.k_tx == 2
    assert back.meta.master_seed == 99
    assert back.meta.tx_origin == (0.0, 1.0, 2.0)
    assert back.meta.geometry["carrier_frequency"] == 0.3e12
    for mine, theirs in (
        (ckpt.params, back.params),
        (ckpt.ema_params, back.ema_params),
        (ckpt.adam_m, back.adam_m),
        (ckpt.adam_v, back.adam_v),
    ):
        assert set(mine) == set(theirs)
        for k in mine:
            np.testing.assert_array_equal(
                theirs[k], mine[k].astype(np.float32).astype(float)
            )


def test_save_is_byte_deterministic(tmp_path):
    ckpt = random_checkpoint()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.ckpt"
    path.write_bytes(b"THZW" + struct.pack("<I", 99) + b"\0" * 8)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def corrupt(raw: bytes, case: str) -> bytes:
    """A checkpoint file's bytes with one kind of length damage."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return {
        "short_header": raw[:6],
        "truncated_metadata": raw[: 12 + blob_len // 2],
        "truncated_record": raw[:-2],  # inside the last record's data
        "trailing_bytes": raw + b"\0" * 7,
    }[case]


CASES = ["short_header", "truncated_metadata", "truncated_record", "trailing_bytes"]


@pytest.mark.parametrize("case", CASES)
def test_rejects_wrong_length(tmp_path, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, random_checkpoint())
    raw = path.read_bytes()
    data = corrupt(raw, case)
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    msg = str(info.value)
    assert str(path) in msg and f"{len(data)}" in msg
    if case == "trailing_bytes":
        assert f"ends at {len(raw)}" in msg
    if case == "truncated_record":
        assert f"at least {len(raw)} bytes" in msg


@pytest.mark.parametrize("case", CASES)
def test_cli_reports_wrong_length(tmp_path, case, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, random_checkpoint())
    path.write_bytes(corrupt(path.read_bytes(), case))
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0",
            "--out", str(tmp_path / "gen.bin")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_rejects_missing_tensor(tmp_path):
    ckpt = random_checkpoint()
    del ckpt.ema_params["head.w"]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(path)


def test_rejects_unexpected_tensor(tmp_path):
    ckpt = random_checkpoint()
    ckpt.params["not_a_layer.w"] = np.zeros(3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="unexpected"):
        load_checkpoint(path)


def test_rejects_shape_mismatch(tmp_path):
    ckpt = random_checkpoint()
    ckpt.params["head.b"] = np.zeros(7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)


def test_ema_denoiser_uses_ema_weights(tmp_path):
    ckpt = random_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    den = ema_denoiser(load_checkpoint(path))
    assert den.config == CONFIG
    np.testing.assert_array_equal(
        den.params["patch.w"], ckpt.ema_params["patch.w"].astype(np.float32)
    )
    out = den.evaluate(np.zeros((2, 8, 16)), 1.0, np.zeros(8))
    assert out.shape == (2, 8, 16)


def write_with_metadata(path, blob: bytes) -> None:
    """A checkpoint with a valid layout (no records) around raw metadata bytes."""
    path.write_bytes(
        b"THZW" + struct.pack("<II", 1, len(blob)) + blob + struct.pack("<I", 0)
    )


def metadata_case(case: str) -> bytes:
    config = asdict(CONFIG)
    meta = asdict(random_checkpoint().meta)
    doc = {
        "missing_config": {"meta": meta},
        "missing_meta": {"config": config},
        "unknown_top_level_key": {"config": config, "meta": meta, "extra": 1},
        "unknown_config_key": {"config": {**config, "width": 3}, "meta": meta},
        "unknown_meta_key": {"config": config, "meta": {**meta, "owner": "x"}},
        "missing_config_field": {"config": {"n_rx": 8}, "meta": meta},
        "config_not_object": {"config": [8, 16], "meta": meta},
        "bad_tx_origin": {"config": config, "meta": {**meta, "tx_origin": 5}},
        "not_an_object": [config, meta],
    }.get(case)
    return b"{not json" if doc is None else json.dumps(doc).encode("utf-8")


METADATA_CASES = [
    "missing_config", "missing_meta", "unknown_top_level_key", "unknown_config_key",
    "unknown_meta_key", "missing_config_field", "config_not_object", "bad_tx_origin",
    "not_an_object", "not_json",
]


@pytest.mark.parametrize("case", METADATA_CASES)
def test_rejects_bad_metadata(tmp_path, case):
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case(case))
    with pytest.raises(ValueError, match="metadata") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("case", ["missing_config", "unknown_config_key", "not_an_object"])
def test_cli_reports_bad_metadata(tmp_path, case, capsys):
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case(case))
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0",
            "--out", str(tmp_path / "gen.bin")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_well_formed_metadata_with_no_records_reaches_the_tensor_check(tmp_path):
    # The same hand-written layout with good metadata gets past the
    # metadata and fails only on the missing tensors.
    path = tmp_path / "model.ckpt"
    meta = asdict(random_checkpoint().meta)
    write_with_metadata(path, json.dumps({"config": asdict(CONFIG), "meta": meta}).encode())
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(path)
