import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thzgen.checkpoint import (
    VERSION,
    Checkpoint,
    CheckpointMeta,
    ema_denoiser,
    load_checkpoint,
    save_checkpoint,
)
from thzgen.cli import main
from thzgen.dataset import Dataset, DatasetHeader
from thzgen.diffusion import DiffusionSchedule
from thzgen.dit import DitConfig, DitDenoiser, FlatParams, init_params, param_shapes
from thzgen.training import TrainConfig, train

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
        schedule=DiffusionSchedule(horizon=3.0, sigma_min=0.02, n_steps=7),
        curves=[(1, 0.5, 0.25), (2, 0.375, 0.125)],
        meta=CheckpointMeta(
            normalization_scalar=2.5,
            k_rx=2,
            k_tx=2,
            master_seed=99,
            tx_origin=(0.0, 1.0, 2.0),
            geometry={"carrier_frequency": 0.3e12},
        ),
    )


def test_round_trip(tmp_path):
    ckpt = random_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)

    assert back.config == CONFIG
    assert back.step == 1234
    assert back.schedule == DiffusionSchedule(horizon=3.0, sigma_min=0.02, n_steps=7)
    assert back.meta.normalization_scalar == 2.5
    assert back.meta.k_rx == 2 and back.meta.k_tx == 2
    assert back.meta.master_seed == 99
    assert back.meta.tx_origin == (0.0, 1.0, 2.0)
    assert back.meta.geometry["carrier_frequency"] == 0.3e12
    assert back.curves == [(1, 0.5, 0.25), (2, 0.375, 0.125)]
    for mine, theirs in (
        (ckpt.params, back.params),
        (ckpt.ema_params, back.ema_params),
        (ckpt.adam_m, back.adam_m),
        (ckpt.adam_v, back.adam_v),
    ):
        assert list(theirs) == list(param_shapes(CONFIG))
        for k in mine:
            np.testing.assert_array_equal(theirs[k], mine[k])


def test_save_is_byte_deterministic(tmp_path):
    ckpt = random_checkpoint()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(ValueError, match="magic") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.ckpt"
    path.write_bytes(b"THZW" + struct.pack("<I", 99) + b"\0" * 8)
    with pytest.raises(ValueError, match="version 99") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_rejects_float32_layouts(tmp_path, version, capsys):
    # Versions 1-3 share version 4's first 12 bytes: magic, version and
    # metadata length.  Versions 1 and 2 followed them with per-tensor f4
    # records; version 3 had version 4's layout without the curves.
    path = tmp_path / f"v{version}.ckpt"
    save_checkpoint(path, random_checkpoint())
    raw = path.read_bytes()
    assert struct.unpack("<I", raw[4:8]) == (VERSION,) == (4,)
    path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
    with pytest.raises(ValueError, match=f"version {version}, an older layout") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0",
            "--out", str(tmp_path / "gen.bin")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"version {version}" in err and str(path) in err


def corrupt(raw: bytes, case: str) -> bytes:
    """A checkpoint file's bytes with one kind of length damage."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    vectors_at = 12 + blob_len + 16
    return {
        "short_header": raw[:6],
        "truncated_metadata": raw[: 12 + blob_len // 2],
        "truncated_counts": raw[: vectors_at - 5],  # inside u64 step, u64 n
        "truncated_params": raw[: vectors_at + 13],  # inside the first vector
        "truncated_record": raw[:-2],  # inside the last vector, adam_v
        "trailing_bytes": raw + b"\0" * 7,
    }[case]


CASES = ["short_header", "truncated_metadata", "truncated_counts", "truncated_params",
         "truncated_record", "trailing_bytes"]


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
    if case in ("truncated_params", "truncated_record"):
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


# A group whose names or shapes miss the config is refused when it is saved,
# and no file is written.

def test_rejects_missing_tensor(tmp_path):
    ckpt = random_checkpoint()
    del ckpt.ema_params["head.w"]
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="group 'ema_params': missing tensor 'head.w'"):
        save_checkpoint(path, ckpt)
    assert not path.exists()


def test_rejects_unexpected_tensor(tmp_path):
    ckpt = random_checkpoint()
    ckpt.params["not_a_layer.w"] = np.zeros(3)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="unexpected tensor 'not_a_layer.w'"):
        save_checkpoint(path, ckpt)
    assert not path.exists()


def test_rejects_shape_mismatch(tmp_path):
    ckpt = random_checkpoint()
    ckpt.adam_v["head.b"] = np.zeros(7)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="group 'adam_v': tensor 'head.b' has shape"):
        save_checkpoint(path, ckpt)
    assert not path.exists()


def test_ema_denoiser_uses_ema_weights(tmp_path):
    ckpt = random_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    den = ema_denoiser(load_checkpoint(path))
    assert den.config == CONFIG
    for name, tensor in ckpt.ema_params.items():
        np.testing.assert_array_equal(den.params[name], tensor)
    x = np.random.default_rng(1).normal(size=(2, 2, 8, 16))
    cond = np.random.default_rng(2).normal(size=(2, 8))
    np.testing.assert_array_equal(
        den.evaluate(x, 1.0, cond),
        DitDenoiser(CONFIG, params=ckpt.ema_params).evaluate(x, 1.0, cond),
    )


def test_ema_denoiser_is_the_trained_one(tmp_path):
    # A short run on random data; what train returns is what the file holds,
    # and the reloaded EMA model is bit-for-bit the trained one.
    rng = np.random.default_rng(4)
    header = DatasetHeader(n_rx=8, n_tx=16, k_rx=2, k_tx=2, sample_count=12)
    data = Dataset(header=header, conditions=rng.normal(size=(12, 8)),
                   tensors=rng.normal(size=(12, 2, 8, 16)))
    schedule = DiffusionSchedule(horizon=3.0, sigma_min=0.01, n_steps=5)
    result = train(data, data, CONFIG, schedule,
                   TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=1))
    result.meta = CheckpointMeta(normalization_scalar=0.5, k_rx=2, k_tx=2, master_seed=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result)
    back = load_checkpoint(path)
    assert (back.config, back.step, back.meta, back.schedule) == (
        CONFIG, 6, result.meta, schedule)
    assert back.curves == result.curves and [e for e, _, _ in back.curves] == [1, 2]
    for name in ("params", "ema_params", "adam_m", "adam_v"):
        assert getattr(back, name).vector.tobytes() == getattr(result, name).vector.tobytes()
    x = rng.normal(size=(3, 2, 8, 16))
    cond = rng.normal(size=(3, 8))
    sigmas = np.array([0.05, 0.7, 2.5])
    np.testing.assert_array_equal(
        ema_denoiser(back).denoise(x, sigmas, cond),
        DitDenoiser(CONFIG, params=result.ema_params).denoise(x, sigmas, cond),
    )


def test_model_is_a_copy_of_the_trained_weights():
    ckpt = Checkpoint(config=CONFIG, params=init_params(CONFIG, np.random.default_rng(2)),
                      ema_params={}, adam_m={}, adam_v={}, step=0)
    assert ckpt.meta == CheckpointMeta() and ckpt.curves == []
    model = ckpt.model
    assert model.config == CONFIG
    np.testing.assert_array_equal(model.params.vector, ckpt.params.vector)
    model.params.vector[:] = 0.0
    assert np.any(ckpt.params.vector != 0.0)


@pytest.mark.parametrize("loss", [float("nan"), float("inf")])
def test_save_refuses_non_finite_curves(tmp_path, loss):
    ckpt = random_checkpoint()
    ckpt.curves.append((3, 0.25, loss))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="metadata 'curves' row 2 has a non-finite loss"):
        save_checkpoint(path, ckpt)
    assert not path.exists()


def test_file_bytes_are_pinned(tmp_path):
    # Any change to the layout or the metadata encoding moves this digest.
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, random_checkpoint(seed=5))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e7c184d1ae7feefe25eb28cb6eab0fbe71e9744f2e2eb17ceec7e09821793d81"
    )


SPECIALS = np.array([-0.0, 5e-324, -2.2e-308 / 3, 1e300, -1e300, np.finfo(float).max])


@st.composite
def small_configs(draw):
    patch = draw(st.sampled_from([1, 2]))
    heads = draw(st.sampled_from([1, 2]))
    return DitConfig(
        n_rx=patch * draw(st.integers(1, 3)),
        n_tx=patch * draw(st.integers(1, 3)),
        patch_size=patch,
        embed_dim=4 * heads * draw(st.integers(1, 2)),
        depth=draw(st.integers(0, 2)),
        n_heads=heads,
        mlp_ratio=draw(st.integers(1, 2)),
    )


@settings(max_examples=100)
@given(
    config=small_configs(),
    seed=st.integers(0, 2**32 - 1),
    step=st.integers(0, 2**63 - 1),
    schedule=st.builds(
        DiffusionSchedule,
        horizon=st.floats(1.0, 100.0),
        sigma_min=st.floats(1e-6, 0.5),
        n_steps=st.integers(1, 10**6),
    ),
    scale=st.floats(1e-300, 1e300),
    curves=st.lists(st.tuples(st.integers(), *[st.floats(allow_nan=False,
                                                         allow_infinity=False)] * 2)),
)
@example(config=CONFIG, seed=0, step=2**24 + 1, schedule=DiffusionSchedule(), scale=1.0,
         curves=[(1, 5e-324, -0.0), (2**70, 1e308, 0.1)])
def test_round_trip_is_exact(tmp_path_factory, config, seed, step, schedule, scale, curves):
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config)
    groups = {}
    for name in ("params", "ema_params", "adam_m", "adam_v"):
        group = FlatParams(shapes)
        group.vector[:] = rng.normal(size=group.vector.size) * 10.0 ** rng.integers(
            -320, 300, size=group.vector.size)
        at = rng.choice(group.vector.size, size=min(len(SPECIALS), group.vector.size),
                        replace=False)
        group.vector[at] = SPECIALS[: len(at)]
        groups[name] = group
    meta = CheckpointMeta(normalization_scalar=scale, k_rx=3, k_tx=1, master_seed=seed,
                          tx_origin=(scale, -0.0, 1.0), geometry={"n_tx": 4})
    path = tmp_path_factory.mktemp("round_trip") / "model.ckpt"
    save_checkpoint(path, Checkpoint(config=config, step=step, meta=meta,
                                     schedule=schedule, curves=curves, **groups))
    back = load_checkpoint(path)
    assert (back.config, back.step, back.meta, back.schedule, back.curves) == (
        config, step, meta, schedule, curves)
    for name, group in groups.items():
        vector = getattr(back, name).vector
        assert np.array_equal(vector, group.vector)
        assert vector.tobytes() == group.vector.tobytes()  # -0.0 keeps its sign


@settings(max_examples=100)
@given(data=st.data())
def test_truncation_or_extension_is_a_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("damaged") / "model.ckpt"
    save_checkpoint(path, random_checkpoint())
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        damaged = raw + data.draw(st.binary(min_size=1, max_size=64), label="tail")
    path.write_bytes(damaged)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def write_with_metadata(path, blob: bytes, n: int = 0) -> None:
    """A checkpoint with a valid layout (n-element zero vectors) around raw metadata."""
    path.write_bytes(
        b"THZW" + struct.pack("<II", VERSION, len(blob)) + blob
        + struct.pack("<QQ", 0, n) + bytes(32 * n)
    )


CURVES = [[1, 0.5, 0.25], [2, 0.375, 0.125]]


def metadata_case(case: str) -> bytes:
    """Metadata with one fault; every other section, the curves too, is valid."""
    config = asdict(CONFIG)
    meta = asdict(random_checkpoint().meta)
    schedule = asdict(DiffusionSchedule())
    good = {"config": config, "meta": meta, "schedule": schedule, "curves": CURVES}

    def without(key):
        return {k: v for k, v in good.items() if k != key}

    doc = {
        "missing_config": without("config"),
        "missing_meta": without("meta"),
        "missing_schedule": without("schedule"),
        "missing_curves": without("curves"),
        "unknown_top_level_key": {**good, "extra": 1},
        "unknown_config_key": {**good, "config": {**config, "width": 3}},
        "unknown_meta_key": {**good, "meta": {**meta, "owner": "x"}},
        "missing_config_field": {**good, "config": {"n_rx": 8}},
        "config_not_object": {**good, "config": [8, 16]},
        "bad_tx_origin": {**good, "meta": {**meta, "tx_origin": 5}},
        "fractional_n_steps": {**good, "schedule": {**schedule, "n_steps": 2.5}},
        "bad_horizon": {**good, "schedule": {**schedule, "horizon": "x"}},
        "string_scale": {**good, "meta": {**meta, "normalization_scalar": "2.5"}},
        "zero_scale": {**good, "meta": {**meta, "normalization_scalar": 0.0}},
        "nan_scale": {**good, "meta": {**meta, "normalization_scalar": float("nan")}},
        "zero_k_rx": {**good, "meta": {**meta, "k_rx": 0}},
        "fractional_k_tx": {**good, "meta": {**meta, "k_tx": 1.5}},
        "short_tx_origin": {**good, "meta": {**meta, "tx_origin": [0.0, 0.0]}},
        "string_tx_origin": {**good, "meta": {**meta, "tx_origin": "abc"}},
        "curves_not_list": {**good, "curves": {"1": [0.5, 0.25]}},
        "short_curve_row": {**good, "curves": [CURVES[0], [2, 0.375]]},
        "fractional_epoch": {**good, "curves": [[1.5, 0.5, 0.25]]},
        "nan_loss": {**good, "curves": [[1, float("nan"), 0.25]]},
        "inf_loss": {**good, "curves": [CURVES[0], [2, 0.375, float("inf")]]},
        "huge_integer_loss": {**good, "curves": [[1, 10**400, 0.25]]},
        "huge_integer_scale": {**good, "meta": {**meta, "normalization_scalar": 10**400}},
        "not_an_object": [config, meta],
    }.get(case)
    return b"{not json" if doc is None else json.dumps(doc).encode("utf-8")


# Each case and a fragment of the message that names its own fault.
METADATA_CASES = {
    "missing_config": "it has ['curves', 'meta', 'schedule']",
    "missing_meta": "it has ['config', 'curves', 'schedule']",
    "missing_schedule": "it has ['config', 'curves', 'meta']",
    "missing_curves": "it has ['config', 'meta', 'schedule']",
    "unknown_top_level_key": "it has ['config', 'curves', 'extra', 'meta', 'schedule']",
    "unknown_config_key": "'config' has unknown keys ['width']",
    "unknown_meta_key": "'meta' has unknown keys ['owner']",
    "missing_config_field": "'config' is invalid",
    "config_not_object": "'config' must be a JSON object",
    "bad_tx_origin": "tx_origin must be 3 finite numbers",
    "fractional_n_steps": "'schedule' is invalid",
    "bad_horizon": "'schedule' is invalid",
    "not_an_object": "metadata must be a JSON object",
    "not_json": "not valid JSON",
    "string_scale": "normalization_scalar must be a finite number > 0, got '2.5'",
    "zero_scale": "normalization_scalar must be a finite number > 0, got 0.0",
    "nan_scale": "normalization_scalar must be a finite number > 0, got nan",
    "zero_k_rx": "k_rx must be an integer >= 1, got 0",
    "fractional_k_tx": "k_tx must be an integer >= 1, got 1.5",
    "short_tx_origin": "tx_origin must be 3 finite numbers, got [0.0, 0.0]",
    "string_tx_origin": "tx_origin must be 3 finite numbers, got 'abc'",
    "curves_not_list": "'curves' must be a list of rows, got dict",
    "short_curve_row": "'curves' row 1 must be [epoch, train_loss, test_loss]",
    "fractional_epoch": "'curves' row 0 has a non-integer epoch 1.5",
    "nan_loss": "'curves' row 0 has a non-finite loss",
    "inf_loss": "'curves' row 1 has a non-finite loss",
    "huge_integer_loss": "'curves' row 0 has a non-finite loss",
    "huge_integer_scale": "normalization_scalar must be a finite number > 0, got 1000",
}


# Vectors of the length CONFIG's layout needs, so that only the metadata is bad.
N_PARAMS = FlatParams(param_shapes(CONFIG)).vector.size


@pytest.mark.parametrize("case", METADATA_CASES)
def test_rejects_bad_metadata(tmp_path, case):
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case(case), n=N_PARAMS)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"checkpoint {path}: metadata ")
    assert METADATA_CASES[case] in str(info.value)


@pytest.mark.parametrize("case", ["missing_config", "unknown_config_key", "not_an_object",
                                  "string_scale", "missing_curves", "curves_not_list",
                                  "short_curve_row", "fractional_epoch", "nan_loss",
                                  "inf_loss", "huge_integer_scale"])
def test_cli_reports_bad_metadata(tmp_path, case, capsys):
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case(case), n=N_PARAMS)
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0",
            "--out", str(tmp_path / "gen.bin")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_header_n_must_match_the_config(tmp_path):
    # The same hand-written layout with good metadata gets past the length
    # and metadata checks and fails only on the parameter count.
    path = tmp_path / "model.ckpt"
    want = FlatParams(param_shapes(CONFIG)).vector.size
    blob = json.dumps({"config": asdict(CONFIG), "meta": asdict(CheckpointMeta()),
                       "schedule": asdict(DiffusionSchedule()), "curves": CURVES}).encode()
    for n in (0, want - 1, want + 1):
        write_with_metadata(path, blob, n=n)
        with pytest.raises(ValueError, match=f"declares {n} parameters per group, "
                                             f"but its config's layout has {want}") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
    write_with_metadata(path, blob, n=want)
    assert load_checkpoint(path).params.vector.size == want
