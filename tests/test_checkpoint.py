import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frame_cases import (  # noqa: F401  (the shared frame tests, run here on checkpoints)
    HEAD,
    FileKind,
    pack,
    parts,
    test_cli_reports_wrong_length,
    test_rejects_bad_magic,
    test_rejects_unknown_version,
    test_rejects_wrong_length,
    test_truncation_or_extension_is_a_value_error,
)
from thzgen.checkpoint import (
    FORMAT,
    INFERENCE_DTYPE,
    Checkpoint,
    CheckpointMeta,
    ema_denoiser,
    load_checkpoint,
    save_checkpoint,
)
from thzgen.cli import main
from thzgen.dataset import Dataset
from thzgen.diffusion import DiffusionSchedule
from thzgen.dit import DitConfig, DitDenoiser, FlatParams, init_params, param_shapes
from thzgen.geometry import COORDINATE_LIMIT
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
            carrier_frequency=0.14e12,
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
    assert back.meta.carrier_frequency == 0.14e12
    assert back.meta == ckpt.meta
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


def sample_argv(path):
    return ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0", "--out", f"{path}.gen"]


@pytest.fixture(scope="module")
def kind(tmp_path_factory):
    path = tmp_path_factory.mktemp("kind") / "model.ckpt"
    save_checkpoint(path, random_checkpoint())
    return FileKind(FORMAT, path.read_bytes(), load_checkpoint, sample_argv)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_rejects_float32_layouts(tmp_path, kind, version, capsys):
    # Versions 1-6 share version 7's first 12 bytes: magic, version and
    # metadata length.  Versions 1 and 2 followed them with per-tensor f4
    # records; version 3 had version 4's layout without the curves; version
    # 4's config also held sigma_data and condition_dim; version 5's meta
    # held k_rx, k_tx and tx_origin beside a geometry object; version 6
    # stored the step and the parameter count in a binary head.
    assert FORMAT.version == 7
    path = tmp_path / f"v{version}.ckpt"
    path.write_bytes(pack(kind.raw, parts(kind.raw)[0], version=version))
    fault = (f"checkpoint {path} has version {version}, an older layout; this reader "
             "takes version 7 only, so retrain the model")
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == fault
    assert main(sample_argv(path)) == 1
    assert capsys.readouterr().err == f"error: {fault}\n"


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
    assert den.config == CONFIG and den.dtype == INFERENCE_DTYPE == np.float32
    for name, tensor in ckpt.ema_params.items():
        np.testing.assert_array_equal(den.params[name], tensor.astype(np.float32))
    x = np.random.default_rng(1).normal(size=(2, 2, 8, 16))
    cond = np.random.default_rng(2).normal(size=(2, 8))
    np.testing.assert_array_equal(
        den.evaluate(x, 1.0, cond),
        DitDenoiser(CONFIG, params=ckpt.ema_params, dtype=np.float32).evaluate(x, 1.0, cond),
    )


def test_ema_denoiser_is_the_trained_one(tmp_path):
    # A short run on random data; what train returns is what the file holds,
    # and the reloaded EMA model is bit-for-bit the trained one.
    rng = np.random.default_rng(4)
    header = CheckpointMeta(n_rx=8, n_tx=16, k_rx=2, k_tx=2)
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
        ema_denoiser(back).evaluate(x, sigmas, cond),
        DitDenoiser(CONFIG, params=result.ema_params, dtype=np.float32)
        .evaluate(x, sigmas, cond),
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


@pytest.mark.parametrize("arrays", [{"n_rx": 4}, {"n_tx": 32}])
def test_checkpoint_refuses_a_meta_whose_arrays_are_not_the_config(tmp_path, arrays):
    ckpt = random_checkpoint()
    ckpt.meta = replace(ckpt.meta, **arrays)  # CONFIG is 8x16
    meta = ckpt.meta
    fault = (f"metadata 'meta' does not fit 'config': arrays {meta.n_rx}x{meta.n_tx} "
             "in 'meta', 8x16 in 'config'")
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=f"^checkpoint {path}: {fault}$"):
        save_checkpoint(path, ckpt)
    assert not path.exists()
    # The same file written by hand is refused on load.
    blob = json.dumps({"config": asdict(CONFIG), "meta": asdict(meta),
                       "schedule": asdict(DiffusionSchedule()), "curves": CURVES,
                       "step": 0}).encode()
    write_with_metadata(path, blob)
    with pytest.raises(ValueError, match=f"^checkpoint {path}: {fault}$"):
        load_checkpoint(path)


def test_meta_refuses_subarrays_that_do_not_divide_its_arrays():
    # The meta's geometry checks itself, so no checkpoint can hold such a meta.
    with pytest.raises(ValueError, match="^k_tx=3 does not divide n_tx=16$"):
        replace(random_checkpoint().meta, k_tx=3)


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
        "dd7d0d5cfdb93b30864987c03f4160044f3d1ebc8ad477c6a867b8b265fcfe87"
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
    x=st.floats(-COORDINATE_LIMIT, COORDINATE_LIMIT),
    curves=st.lists(st.tuples(st.integers(), *[st.floats(allow_nan=False,
                                                         allow_infinity=False)] * 2)),
)
@example(config=CONFIG, seed=0, step=2**24 + 1, schedule=DiffusionSchedule(), scale=1.0,
         x=5e-324, curves=[(1, 5e-324, -0.0), (2**70, 1e308, 0.1)])
def test_round_trip_is_exact(tmp_path_factory, config, seed, step, schedule, scale, x, curves):
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
    # The config's arrays, one subarray per Rx element.
    meta = CheckpointMeta(normalization_scalar=scale, n_rx=config.n_rx, n_tx=config.n_tx,
                          k_rx=config.n_rx, k_tx=1, master_seed=seed,
                          tx_origin=(x, -0.0, 1.0))
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


def write_with_metadata(path, blob: bytes) -> None:
    """A checkpoint of raw metadata and CONFIG's payload, four zero vectors."""
    path.write_bytes(HEAD.pack(FORMAT.magic, FORMAT.version, len(blob)) + blob
                     + bytes(32 * N_PARAMS))


CURVES = [[1, 0.5, 0.25], [2, 0.375, 0.125]]


def without_key(section: dict, key: str) -> dict:
    return {k: v for k, v in section.items() if k != key}


def metadata_case(case: str) -> bytes:
    """Metadata with one fault; every other section, the curves too, is valid."""
    config = asdict(CONFIG)
    meta = asdict(random_checkpoint().meta)
    schedule = asdict(DiffusionSchedule())
    good = {"config": config, "meta": meta, "schedule": schedule, "curves": CURVES, "step": 3}

    def without(key):
        return without_key(good, key)

    doc = {
        "missing_config": without("config"),
        "missing_meta": without("meta"),
        "missing_schedule": without("schedule"),
        "missing_curves": without("curves"),
        "missing_step": without("step"),
        "unknown_top_level_key": {**good, "extra": 1},
        "unknown_config_key": {**good, "config": {**config, "width": 3}},
        "unknown_meta_key": {**good, "meta": {**meta, "owner": "x"}},
        "missing_config_field": {**good, "config": {"n_rx": 8}},
        "missing_meta_field": {**good, "meta": without_key(meta, "carrier_frequency")},
        "missing_schedule_field": {**good, "schedule": without_key(schedule, "n_steps")},
        "negative_step": {**good, "step": -1},
        "float_step": {**good, "step": 3.0},
        "config_not_object": {**good, "config": [8, 16]},
        "float_patch_size": {**good, "config": {**config, "patch_size": 4.0}},
        "float_depth": {**good, "config": {**config, "depth": 1.0}},
        "negative_depth": {**good, "config": {**config, "depth": -1}},
        "bad_tx_origin": {**good, "meta": {**meta, "tx_origin": 5}},
        "fractional_n_steps": {**good, "schedule": {**schedule, "n_steps": 2.5}},
        "bad_horizon": {**good, "schedule": {**schedule, "horizon": "x"}},
        "infinite_horizon": {**good, "schedule": {**schedule, "horizon": float("inf")}},
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
        "string_master_seed": {**good, "meta": {**meta, "master_seed": "abc"}},
        "negative_master_seed": {**good, "meta": {**meta, "master_seed": -5}},
        "list_geometry": {**good, "meta": {**meta, "geometry": [1, 2]}},
        "meta_arrays_not_config": {**good, "meta": {**meta, "n_rx": 4}},
        "two_element_axis": {**good, "meta": {**meta, "axis": [0.0, 1.0]}},
        "bool_horizon": {**good, "schedule": {**schedule, "horizon": True, "sigma_min": 0.5}},
        "k_rx_not_dividing_n_rx": {**good, "meta": {**meta, "k_rx": 3}},
        "not_an_object": [config, meta],
    }.get(case)
    return b"{not json" if doc is None else json.dumps(doc).encode("utf-8")


# Each case and a fragment of the message that names its own fault.
METADATA_CASES = {
    "missing_config": "it has ['curves', 'meta', 'schedule', 'step']",
    "missing_meta": "it has ['config', 'curves', 'schedule', 'step']",
    "missing_schedule": "it has ['config', 'curves', 'meta', 'step']",
    "missing_curves": "it has ['config', 'meta', 'schedule', 'step']",
    "missing_step": "exactly the keys ['config', 'curves', 'meta', 'schedule', 'step'], "
                    "it has ['config', 'curves', 'meta', 'schedule']",
    "unknown_top_level_key": "it has ['config', 'curves', 'extra', 'meta', 'schedule', 'step']",
    "unknown_config_key": "'config' has unknown keys ['width']",
    "unknown_meta_key": "'meta' has unknown keys ['owner']",
    "missing_config_field": "'config' is missing keys ['depth', 'embed_dim', 'mlp_ratio', "
                            "'n_heads', 'n_tx', 'patch_size']",
    "missing_meta_field": "'meta' is missing keys ['carrier_frequency']",
    "missing_schedule_field": "'schedule' is missing keys ['n_steps']",
    "negative_step": "'step' must be an integer >= 0, got -1",
    "float_step": "'step' must be an integer >= 0, got 3.0",
    "config_not_object": "'config' must be a JSON object",
    "float_patch_size": "'config' is invalid: patch_size must be an integer >= 1, got 4.0",
    "float_depth": "'config' is invalid: depth must be an integer >= 0, got 1.0",
    "negative_depth": "'config' is invalid: depth must be an integer >= 0, got -1",
    "bad_tx_origin": "tx_origin must be 3 finite numbers",
    "fractional_n_steps": "'schedule' is invalid",
    "bad_horizon": "'schedule' is invalid",
    "infinite_horizon": "'schedule' is invalid: horizon must be a finite number in (0.01, 1e+06]",
    "not_an_object": "metadata must be a JSON object",
    "not_json": "not valid JSON",
    "string_scale": "normalization_scalar must be a finite number in (0, inf), got '2.5'",
    "zero_scale": "normalization_scalar must be a finite number in (0, inf), got 0.0",
    "nan_scale": "normalization_scalar must be a finite number in (0, inf), got nan",
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
    "huge_integer_scale": "normalization_scalar must be a finite number in (0, inf), got 1000",
    "string_master_seed": "master_seed must be an integer in [0, 2**64), got 'abc'",
    "negative_master_seed": "master_seed must be an integer in [0, 2**64), got -5",
    "list_geometry": "'meta' has unknown keys ['geometry']",
    "meta_arrays_not_config": "'meta' does not fit 'config': arrays 4x16 in 'meta', 8x16",
    "two_element_axis": "'meta' is invalid: axis must be 3 finite numbers, got [0.0, 1.0]",
    "bool_horizon": "'schedule' is invalid: horizon must be a finite number in (0.5, 1e+06], "
                    "got True",
    "k_rx_not_dividing_n_rx": "'meta' is invalid: k_rx=3 does not divide n_rx=8",
}


# Vectors of the length CONFIG's layout needs, so that only the metadata is bad.
N_PARAMS = FlatParams(param_shapes(CONFIG)).vector.size


@pytest.mark.parametrize("case", METADATA_CASES)
def test_rejects_bad_metadata(tmp_path, case):
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case(case))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"checkpoint {path}: metadata ")
    assert METADATA_CASES[case] in str(info.value)


@pytest.mark.parametrize("case", ["missing_config", "unknown_config_key", "not_an_object",
                                  "string_scale", "missing_curves", "curves_not_list",
                                  "short_curve_row", "fractional_epoch", "nan_loss",
                                  "inf_loss", "huge_integer_scale", "float_patch_size",
                                  "float_depth", "negative_depth", "infinite_horizon",
                                  "meta_arrays_not_config", "list_geometry"])
def test_cli_reports_bad_metadata(tmp_path, case, capsys):
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case(case))
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0",
            "--out", str(tmp_path / "gen.bin")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path}: metadata ")
    assert METADATA_CASES[case] in err


def test_sample_refuses_mismatched_subarrays_before_sampling(tmp_path, capsys, monkeypatch):
    def no_denoising(*args, **kwargs):
        raise AssertionError("ran the sampler on a checkpoint whose k_rx does not divide n_rx")

    monkeypatch.setattr(DitDenoiser, "evaluate", no_denoising)
    path = tmp_path / "model.ckpt"
    write_with_metadata(path, metadata_case("k_rx_not_dividing_n_rx"))
    out = tmp_path / "gen.bin"
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {path}: metadata 'meta' is invalid: "
        "k_rx=3 does not divide n_rx=8\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("sigma_data", "x"), ("sigma_data", 0.0), ("condition_dim", 8),
])
def test_cli_refuses_a_config_key_the_model_fixes(tmp_path, capsys, key, value):
    # sigma_data and condition_dim are constants of the model, not checkpoint
    # knobs: a saved file whose config section names one fails by name.
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, random_checkpoint())
    raw = path.read_bytes()
    doc, _ = parts(raw)
    doc["config"][key] = value
    path.write_bytes(pack(raw, doc))
    argv = ["sample", "--ckpt", str(path), "--pos", "6.0,1.0,0.0",
            "--out", str(tmp_path / "gen.bin")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {path}: metadata 'config' has unknown keys ['{key}']\n")
    assert not (tmp_path / "gen.bin").exists()
