import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import thzgen
from thzgen import _lanes, cli, dit
from thzgen.checkpoint import CheckpointMeta, ema_denoiser, load_checkpoint
from thzgen.cli import main
from thzgen.dataset import (
    Dataset,
    DatasetConfig,
    SamplingRegion,
    read_dataset,
    write_dataset,
)
from thzgen.diffusion import HORIZON_LIMIT, DiffusionSchedule, euler_sample
from thzgen.geometry import CONDITION_DIM, GeometryConfig, condition_vector
from thzgen.paths import GscmConfig
from thzgen.training import TrainConfig

from frame_cases import parts, rewrite_section

CONFIG = {
    "seed": 3,
    "dataset": {"count": 150, "test_fraction": 0.1, "cell_size": 0.5},
    "dit": {"patch_size": 4, "embed_dim": 16, "depth": 1, "n_heads": 2, "mlp_ratio": 2},
    "schedule": {"horizon": 3.0, "sigma_min": 0.01, "n_steps": 20},
    "training": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One gen-data + train round shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "train",
                "--config", str(cfg),
                "--data", str(root / "data"),
                "--out-ckpt", str(root / "model.ckpt"),
            ]
        )
        == 0
    )
    return root


def config_path(workdir):
    return str(workdir / "config.json")


# -- gen-data ---------------------------------------------------------------

def test_gen_data_outputs(workdir):
    train_set = read_dataset(workdir / "data.train")
    test_set = read_dataset(workdir / "data.test")
    assert len(train_set) + len(test_set) == 150
    assert train_set.header.n_rx == 8 and train_set.header.n_tx == 16
    assert train_set.header.normalization_scalar == test_set.header.normalization_scalar


def test_gen_data_deterministic(workdir, tmp_path):
    assert (
        main(["gen-data", "--config", config_path(workdir), "--out", str(tmp_path / "again")])
        == 0
    )
    assert (tmp_path / "again.train").read_bytes() == (workdir / "data.train").read_bytes()
    assert (tmp_path / "again.test").read_bytes() == (workdir / "data.test").read_bytes()


def test_gen_data_seed_override_changes_bytes(workdir, tmp_path):
    assert (
        main(
            ["gen-data", "--config", config_path(workdir), "--out", str(tmp_path / "other"),
             "--seed", "99"]
        )
        == 0
    )
    assert (tmp_path / "other.train").read_bytes() != (workdir / "data.train").read_bytes()


def test_gen_data_record_bytes_are_pinned(tmp_path, capsys):
    # The records after the metadata, at the default config: a change to the
    # channel numerics, the normalization, the split or the f4 layout moves them.
    assert main(["gen-data", "--count", "40", "--out", str(tmp_path / "d")]) == 0
    digests = {ext: hashlib.sha256(parts((tmp_path / f"d.{ext}").read_bytes())[1]).hexdigest()
               for ext in ("train", "test")}
    assert digests == {
        "train": "2d35bdf0b263a4521301b072ac45543587a48579e9567487ade68a6a1fd27832",
        "test": "ae73cbad7acdc96e1769c08a98c964dbfb701f39ee2912868b1413bd43a4ecba",
    }


def test_gen_data_reports_throughput(workdir, tmp_path, capsys):
    assert main(["gen-data", "--config", config_path(workdir), "--out",
                 str(tmp_path / "again")]) == 0
    found = re.findall(
        r"^synthesized (\d+) samples in ([\d.]+) ms \(([\d.]+) samples/s on 1 thread\)$",
        capsys.readouterr().out, re.MULTILINE)
    assert len(found) == 1  # 8x16 channels stay on one lane
    count, ms, rate = int(found[0][0]), float(found[0][1]), float(found[0][2])
    assert count == CONFIG["dataset"]["count"]
    assert ms > 0 and rate == pytest.approx(count / (ms / 1e3), rel=0.1)


@pytest.mark.parametrize("k_rx, match", [
    (0, "k_rx must be an integer >= 1, got 0"),
    (3, "k_rx=3 does not divide n_rx=8"),
])
def test_bad_subarray_count_in_header_stops_train(workdir, tmp_path, capsys, k_rx, match):
    bad = tmp_path / "data.train"
    bad.write_bytes(rewrite_section((workdir / "data.train").read_bytes(), "meta", k_rx=k_rx))
    (tmp_path / "data.test").write_bytes((workdir / "data.test").read_bytes())
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path(workdir), "--data", str(tmp_path / "data"),
                 "--out-ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: dataset {bad}: metadata 'meta' is invalid: {match}\n"
    assert "epoch" not in captured.out
    assert not ckpt.exists()


def test_config_that_is_not_json_is_fatal(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": 3,\n}')
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} is not valid JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.train").exists()


def test_unknown_config_key_is_fatal(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for doc, message in (
        ({"dataset": {"countt": 10}}, "config section 'dataset' has unknown keys ['countt']"),
        ({"datasett": {}}, "config has unknown keys ['datasett']"),
        ([1, 2], "config must be a JSON object"),
        ({"gscm": 3}, "config section 'gscm' must be a JSON object"),
        # Set by other keys: the DiT's antenna counts by the geometry, the
        # training seed by "seed".
        ({"dit": {"n_rx": 8}}, "config section 'dit' has unknown keys ['n_rx']"),
        ({"training": {"seed": 1}}, "config section 'training' has unknown keys ['seed']"),
    ):
        cfg.write_text(json.dumps(doc))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, value", [
    ("schedule.horizon", "x"),
    ("training.epochs", "3"),
    ("dit.patch_size", "4"),
    ("gscm.n_clusters", "2"),
    ("dataset.test_fraction", "0.1"),
    ("training.batch_size", 2.5),
    ("seed", "a"),
    ("dataset.count", "10"),
    ("region.low", [1, 2]),
    ("schedule.n_steps", 2.5),
    ("geometry.intra_spacing", "0.1"),
    ("training.epochs", True),
])
def test_mistyped_config_value_is_fatal(tmp_path, capsys, key, value):
    # Each section's dataclass refuses a value of the wrong type by name.
    assert_refused_by_name(tmp_path, capsys, key, value)


def assert_refused_by_name(tmp_path, capsys, key, value):
    """gen-data with ``key`` (section.name) set to ``value`` ends in one error
    line that names the section and the key, before any output is written."""
    doc = value
    for part in reversed(key.split(".")):
        doc = {part: doc}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if "." in key:
        section, name = key.split(".")
        assert err.startswith(f"error: config section '{section}' is invalid: ")
        assert name in err.split(" is invalid: ")[1]
    else:
        assert err.startswith(f"error: config key {key} must be ")
    assert not (tmp_path / "x.train").exists()


@pytest.mark.parametrize("key, value", [
    ("geometry.carrier_frequency", 10**400),  # too large for a float64
    ("seed", -(10**400)),
    ("training.learning_rate", float("nan")),
    ("schedule.horizon", float("inf")),
    ("geometry.intra_spacing", float("-inf")),
    ("region.low", [4.0, float("-inf"), -0.5]),
])
def test_non_finite_config_number_is_fatal(tmp_path, capsys, key, value):
    # json.load takes the NaN and Infinity literals and integers of any size.
    assert_refused_by_name(tmp_path, capsys, key, value)


def test_well_typed_config_values_are_accepted(tmp_path):
    # An int where a float is expected, and null or a number for an optional.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schedule": {"horizon": 3}, "region": {"low": [4, -3.0, -0.5]},
        "geometry": {"intra_spacing": 0.001, "inter_spacing": None},
    }))
    cfg = cli.load_config(str(path))
    assert cfg.schedule == DiffusionSchedule(horizon=3)
    assert cfg.region == SamplingRegion(low=[4, -3.0, -0.5])
    assert cfg.geometry == GeometryConfig(intra_spacing=0.001)


# A section's keys are its dataclass's fields but these, which other keys set:
# the DiT's antenna counts come from the geometry, the training seed is "seed".
FIXED = {"dit": ("n_rx", "n_tx"), "training": ("seed",)}


def config_defaults():
    """Every config key with its default, read from the section dataclasses."""
    cfg = cli.load_config(None)
    out = {"seed": cfg.seed}
    for section in fields(cli.RunConfig)[1:]:
        values = getattr(cfg, section.name)
        for f in fields(values):
            if f.name not in FIXED.get(section.name, ()):
                out[f"{section.name}.{f.name}"] = f.default
                assert getattr(values, f.name) == f.default
    return out


def test_config_keys_and_defaults_are_unchanged():
    # Every config key with its default; a new key is a new knob.
    pinned = {
        "seed": 0,
        "geometry.carrier_frequency": 0.3e12, "geometry.n_tx": 16, "geometry.n_rx": 8,
        "geometry.k_tx": 2, "geometry.k_rx": 2, "geometry.intra_spacing": None,
        "geometry.inter_spacing": None, "geometry.tx_origin": (0.0, 0.0, 0.0),
        "geometry.axis": (0.0, 1.0, 0.0),
        "gscm.n_clusters": 3, "gscm.rays_per_cluster": 5, "gscm.k_factor_mean_db": 10.0,
        "gscm.k_factor_std_db": 3.0, "gscm.azimuth_spread": 0.05,
        "gscm.elevation_spread": 0.05, "gscm.path_loss_exponent": 2.0,
        "gscm.scatterer_radius_min": 1.0, "gscm.scatterer_radius_max": 5.0,
        "region.low": (4.0, -3.0, -0.5), "region.high": (10.0, 3.0, 0.5),
        "dataset.count": 1000, "dataset.test_fraction": 0.1, "dataset.cell_size": 0.5,
        "dit.patch_size": 4, "dit.embed_dim": 64, "dit.depth": 4, "dit.n_heads": 4,
        "dit.mlp_ratio": 4,
        "schedule.horizon": 10.0, "schedule.sigma_min": 0.01, "schedule.n_steps": 100,
        "training.learning_rate": 1e-4, "training.beta1": 0.9, "training.beta2": 0.999,
        "training.eps": 1e-3, "training.ema_decay": 0.999, "training.epochs": 100,
        "training.batch_size": 8,
    }
    got = config_defaults()
    assert len(got) == 39 and got == pinned
    # Each default keeps its type: an int stays an int.
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in pinned.items()}
    cfg = cli.load_config(None)
    assert cfg.geometry == GeometryConfig()
    assert cfg.region == SamplingRegion()
    assert cfg.gscm == GscmConfig()
    assert cfg.dataset == DatasetConfig()
    assert cfg.schedule == DiffusionSchedule()
    assert cfg.training == TrainConfig(seed=0)
    assert cfg.dit == dit.DitConfig(n_rx=8, n_tx=16)


def test_dit_config_fields_are_the_config_keys():
    # Every DitConfig field but the antenna counts, which the geometry sets,
    # is a config key: a field no config key sets would be a knob only a
    # checkpoint could turn.
    config = dit.DitConfig(n_rx=8, n_tx=16)
    keys = {key.split(".")[1] for key in config_defaults() if key.startswith("dit.")}
    assert set(asdict(config)) == {*keys, "n_rx", "n_tx"}
    # The traced benchmark's flop count reads it.
    assert config.condition_dim == CONDITION_DIM


@pytest.mark.parametrize("value", [
    {"patch_size": 3}, {"embed_dim": 10}, {"patch_size": 0}, {"depth": -2},
])
def test_bad_dit_section_is_fatal_for_gen_data(tmp_path, capsys, value):
    # gen-data builds no model, but the config it loads is checked whole.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dit": value}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.train").exists()


@pytest.mark.parametrize("section, value, message", [
    ("dataset", {"test_fraction": 1.5}, "test_fraction must be in (0, 1), got 1.5"),
    ("dataset", {"count": 0}, "count must be an integer >= 1, got 0"),
    ("dataset", {"cell_size": -1.0}, "cell_size must be a finite number > 0, got -1.0"),
    ("training", {"beta1": 1.0}, "beta1 must be in [0, 1), got 1.0"),
    ("training", {"eps": -1.0}, "eps must be a finite number >= 0, got -1.0"),
    ("gscm", {"k_factor_std_db": -3}, "k_factor_std_db must be >= 0, got -3"),
    # Finite, but draw_paths would leave float64: an OverflowError at
    # 10 ** (k_db / 10), or a ZeroDivisionError, instead of a named key.
    ("gscm", {"k_factor_mean_db": 1e6}, "k_factor_mean_db must be in [-300, 300], got 1000000.0"),
    ("gscm", {"k_factor_std_db": 1e3}, "k_factor_std_db must be <= 100, got 1000.0"),
    ("gscm", {"scatterer_radius_max": 1e300},
     "scatterer_radius_max must be <= 1e+06, got 1e+300"),
])
def test_bad_value_is_fatal_before_synthesis(tmp_path, capsys, monkeypatch, section, value,
                                             message):
    def synthesize(*args):
        raise AssertionError("gen-data synthesized samples under a bad config")

    monkeypatch.setattr(cli, "build_dataset", synthesize)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: value}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"error: config section {section!r} is invalid: {message}\n")


@pytest.mark.parametrize("section, value, name", [
    ("geometry", {"carrier_frequency": 1e300}, "carrier_frequency"),
    ("geometry", {"tx_origin": [1e300, 0, 0]}, "tx_origin"),
    ("region", {"low": [1e300, 0, 0], "high": [1e300, 1, 1]}, "region low"),
])
def test_finite_value_whose_amplitudes_underflow_is_fatal(tmp_path, capsys, section, value,
                                                          name):
    # Finite, but draw_paths's free-space amplitudes underflowed to 0 and it
    # ended in a ZeroDivisionError instead of a named key.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: value}))
    argv = ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x"), "--count", "4"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: config section {section!r} is invalid: {name} must be ")


@pytest.mark.parametrize("section, value, name", [
    # An OverflowError at d ** (-(ple - 2) / 2), and an all-zero dataset that
    # failed normalization, naming no key.
    ("gscm", {"path_loss_exponent": -1000}, "path_loss_exponent must be in [0, 10]"),
    ("gscm", {"path_loss_exponent": 1000}, "path_loss_exponent must be in [0, 10]"),
    # Overflow warnings in the channel, then a non-finite channel naming no key.
    ("geometry", {"inter_spacing": 1e300}, "the tx array's extent"),
    ("geometry", {"intra_spacing": 1e200, "inter_spacing": 1e200}, "the tx array's extent"),
])
def test_extreme_finite_value_is_one_error_line(tmp_path, capsys, section, value, name):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: value}))
    argv = ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x"), "--count", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: config section {section!r} is invalid: {name}")
    assert not (tmp_path / "x.train").exists()


def test_axis_of_huge_components_is_a_direction(tmp_path, capsys):
    # Its length overflows a plain norm, but it points where [1, 1, 0] does.
    out = {}
    for label, axis in (("huge", [1e300, 1e300, 0]), ("unit", [1, 1, 0])):
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps({"geometry": {"axis": axis}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / label),
                         "--count", "20"]) == 0
        assert capsys.readouterr().err == ""
        out[label] = read_dataset(tmp_path / f"{label}.train")
    assert out["huge"].header.axis == (1e300, 1e300, 0)
    np.testing.assert_allclose(out["huge"].tensors, out["unit"].tensors, rtol=0, atol=1e-5)


def test_indivisible_subarrays_are_fatal(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"geometry": {"n_tx": 10, "k_tx": 4}}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "n_tx" in capsys.readouterr().err


def test_antenna_count_below_one_is_fatal(tmp_path, capsys):
    # Refused by the geometry, not left for the DiT to fail on.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"geometry": {"n_tx": -16}}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: config section 'geometry' is invalid: n_tx must be an integer >= 1, got -16\n")


@pytest.mark.parametrize("section, key, value", [
    ("geometry", "axis", [0.0, 0.0, 0.0]),
    ("dataset", "cell_size", 0.0),
])
def test_degenerate_axis_or_cell_size_is_fatal(tmp_path, capsys, section, key, value):
    # Refused by name, before numpy warns about a division by zero.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    argv = ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x"), "--count", "20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("seed", [2**64, -1])
def test_gen_data_refuses_a_seed_outside_64_bits(tmp_path, capsys, monkeypatch, seed):
    def synthesize(*args):
        raise AssertionError("gen-data synthesized samples under a bad seed")

    monkeypatch.setattr(cli, "build_dataset", synthesize)
    out = str(tmp_path / "x")
    assert main(["gen-data", "--out", out, "--seed", str(seed)]) == 1
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**64), got {seed}\n"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"seed": seed}))
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: config key seed must be an integer in [0, 2**64), got {seed}\n")
    assert not (tmp_path / "x.train").exists()


# -- train ------------------------------------------------------------------

def test_train_artifacts(workdir):
    ckpt = load_checkpoint(workdir / "model.ckpt")
    assert ckpt.config.n_rx == 8 and ckpt.config.embed_dim == 16
    assert ckpt.step > 0
    assert ckpt.meta.normalization_scalar > 0
    with open(workdir / "model.ckpt.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "train_loss", "test_loss"]
    assert len(rows) == 1 + CONFIG["training"]["epochs"]
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row[1:])


def test_train_reproducible(workdir, tmp_path):
    assert (
        main(
            [
                "train",
                "--config", config_path(workdir),
                "--data", str(workdir / "data"),
                "--out-ckpt", str(tmp_path / "again.ckpt"),
            ]
        )
        == 0
    )
    assert (tmp_path / "again.ckpt").read_bytes() == (workdir / "model.ckpt").read_bytes()
    assert (tmp_path / "again.ckpt.csv").read_text() == (workdir / "model.ckpt.csv").read_text()


def test_train_reports_throughput(workdir, tmp_path, capsys):
    ckpt = tmp_path / "again.ckpt"
    assert main(["train", "--config", config_path(workdir), "--data",
                 str(workdir / "data"), "--out-ckpt", str(ckpt)]) == 0
    lines = capsys.readouterr().out.splitlines()
    epochs = CONFIG["training"]["epochs"]
    assert [line.split(":")[0] for line in lines[:epochs]] == [
        f"epoch {e}" for e in range(1, epochs + 1)]
    found = re.fullmatch(r"trained (\d+) steps in ([\d.]+) ms "
                         r"\(([\d.]+) ms/step, float32 step on float64 weights\)",
                         lines[epochs])
    assert found, lines
    steps, ms, per_step = int(found[1]), float(found[2]), float(found[3])
    assert steps == load_checkpoint(ckpt).step
    assert ms > 0 and per_step == pytest.approx(ms / steps, rel=0.1)
    assert lines[epochs + 1:] == [f"wrote {ckpt} and {ckpt}.csv"]


def test_train_rejects_mismatched_dataset(workdir, tmp_path, capsys):
    cfg = tmp_path / "bigger.json"
    data = dict(CONFIG)
    data["geometry"] = {"n_rx": 16, "k_rx": 2}
    cfg.write_text(json.dumps(data))
    assert (
        main(
            ["train", "--config", str(cfg), "--data", str(workdir / "data"),
             "--out-ckpt", str(tmp_path / "x.ckpt")]
        )
        == 1
    )
    assert capsys.readouterr().err == (
        f"error: config section 'geometry' has n_rx=16, but dataset {workdir / 'data.train'} "
        f"has n_rx=8\n")


@pytest.mark.parametrize("geometry, name", [({"k_rx": 1}, "k_rx"), ({"k_tx": 4}, "k_tx")])
def test_train_refuses_a_dataset_of_other_subarrays(workdir, tmp_path, capsys, geometry, name):
    # The checkpoint records the dataset's run, so the config must describe it.
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({**CONFIG, "geometry": geometry}))
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(workdir / "data"),
                 "--out-ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: config section 'geometry' has {name}={geometry[name]}, "
        f"but dataset {workdir / 'data.train'} has {name}=2\n")
    assert "epoch" not in captured.out and not ckpt.exists()


@pytest.mark.parametrize("key, value, shown", [
    ("carrier_frequency", 0.14e12, "140000000000.0"), ("n_tx", 8, "8"),
    ("intra_spacing", 5e-4, "0.0005"), ("inter_spacing", 0.02, "0.02"),
    ("tx_origin", [3, 0, 0], "(3, 0, 0)"), ("axis", [1, 1, 0.5], "(1, 1, 0.5)"),
])
def test_train_refuses_a_config_of_another_geometry(workdir, tmp_path, capsys, key, value,
                                                    shown):
    # Data made at the default geometry, and a config that differs in one key
    # (n_rx and the subarray counts are the tests above): the checkpoint
    # would record a geometry the data was never made with.
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({**CONFIG, "geometry": {key: value}}))
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(workdir / "data"),
                 "--out-ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    default = getattr(GeometryConfig(), key)
    assert captured.err == (f"error: config section 'geometry' has {key}={shown}, but dataset "
                            f"{workdir / 'data.train'} has {key}={default}\n")
    assert "epoch" not in captured.out and not ckpt.exists()


def test_train_stores_the_config_geometry(tmp_path, capsys):
    geometry = {"carrier_frequency": 0.14e12, "tx_origin": [3, 0, 0]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "dataset": {**CONFIG["dataset"], "count": 60},
                               "training": {**CONFIG["training"], "epochs": 1},
                               "geometry": geometry}))
    data, ckpt = str(tmp_path / "data"), tmp_path / "model.ckpt"
    assert main(["gen-data", "--config", str(cfg), "--out", data]) == 0
    assert main(["train", "--config", str(cfg), "--data", data, "--out-ckpt", str(ckpt)]) == 0
    meta = load_checkpoint(ckpt).meta
    header = read_dataset(data + ".train").header
    assert meta == header == CheckpointMeta(
        **asdict(GeometryConfig(carrier_frequency=0.14e12, tx_origin=(3.0, 0.0, 0.0))),
        normalization_scalar=header.normalization_scalar, master_seed=header.master_seed)
    assert (meta.carrier_frequency, meta.tx_origin) == (0.14e12, (3, 0, 0))


def test_train_and_sample_at_the_horizon_bound(workdir, tmp_path, capsys):
    # Past the bound the sampler squared t into an OverflowError; at it
    # every train and sample step stays finite.
    cfg = tmp_path / "config.json"
    ckpt, out = tmp_path / "model.ckpt", tmp_path / "gen.bin"
    for horizon in (HORIZON_LIMIT, HORIZON_LIMIT * (1 + 1e-9)):
        schedule = {**CONFIG["schedule"], "horizon": horizon, "n_steps": 2}
        cfg.write_text(json.dumps({**CONFIG, "schedule": schedule,
                                   "training": {**CONFIG["training"], "epochs": 1}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main(["train", "--config", str(cfg), "--data", str(workdir / "data"),
                           "--out-ckpt", str(ckpt)])
            if horizon == HORIZON_LIMIT:
                assert status == 0
                assert main(["sample", "--ckpt", str(ckpt), "--pos", "6,1,0", "--num", "3",
                             "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert status == 1 and captured.err == (
        "error: config section 'schedule' is invalid: horizon must be <= 1e+06, "
        f"got {horizon}\n")
    tensors = read_dataset(out).tensors
    assert np.all(np.isfinite(tensors)) and np.any(tensors != 0)
    # A checkpoint whose schedule is past the bound is refused before sampling.
    ckpt.write_bytes(rewrite_section(ckpt.read_bytes(), "schedule", horizon=horizon))
    assert main(["sample", "--ckpt", str(ckpt), "--pos", "6,1,0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {ckpt}: metadata 'schedule' is invalid: horizon must be <= 1e+06, "
        f"got {horizon}\n")


def train_with_test_file(workdir, tmp_path, test_bytes):
    """Run train on workdir's .train file beside the given .test file."""
    (tmp_path / "data.train").write_bytes((workdir / "data.train").read_bytes())
    (tmp_path / "data.test").write_bytes(test_bytes)
    ckpt = tmp_path / "model.ckpt"
    status = main(["train", "--config", config_path(workdir), "--data", str(tmp_path / "data"),
                   "--out-ckpt", str(ckpt)])
    assert not ckpt.exists()
    return status


@pytest.mark.parametrize("name, value", [
    pytest.param("k_rx", 4, id="4-k_rx-4"), pytest.param("k_tx", 4, id="5-k_tx-4"),
    pytest.param("normalization_scalar", 2.5, id="8-normalization_scalar-2.5"),
    pytest.param("master_seed", 4, id="9-master_seed-4"),
    pytest.param("tx_origin", [3, 0, 0], id="tx_origin"),
])
def test_train_refuses_a_test_file_from_another_run(workdir, tmp_path, capsys, name, value):
    raw = (workdir / "data.test").read_bytes()
    want = getattr(read_dataset(workdir / "data.test").header, name)
    bad = rewrite_section(raw, "meta", **{name: value})
    assert train_with_test_file(workdir, tmp_path, bad) == 1
    captured = capsys.readouterr()
    got = tuple(value) if isinstance(value, list) else value
    assert captured.err == (f"error: dataset {tmp_path / 'data.test'} has {name}={got}, "
                            f"but dataset {tmp_path / 'data.train'} has {name}={want}\n")
    assert "epoch" not in captured.out


@pytest.mark.parametrize("geometry, name", [({"n_rx": 4}, "n_rx"), ({"n_tx": 8}, "n_tx")])
def test_train_refuses_a_test_file_of_another_size(workdir, tmp_path, capsys, geometry, name):
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({**CONFIG, "geometry": geometry}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "other")]) == 0
    capsys.readouterr()
    assert train_with_test_file(workdir, tmp_path, (tmp_path / "other.test").read_bytes()) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: dataset {re.escape(str(tmp_path / 'data.test'))} has "
                        rf"{name}=\d+, but dataset {re.escape(str(tmp_path / 'data.train'))} has "
                        rf"{name}=\d+\n", captured.err)
    assert "epoch" not in captured.out


@pytest.mark.parametrize("part, bad", [("tensors", np.nan), ("conditions", np.inf)])
def test_train_names_a_non_finite_sample(workdir, tmp_path, capsys, part, bad):
    # Refused where the file is read, not as a divergence or a bad condition.
    clean = read_dataset(workdir / "data.train")
    arrays = {"tensors": clean.tensors.copy(), "conditions": clean.conditions.copy()}
    arrays[part][5].flat[3] = bad
    write_dataset(tmp_path / "data.train", Dataset(header=clean.header, **arrays))
    (tmp_path / "data.test").write_bytes((workdir / "data.test").read_bytes())
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path(workdir), "--data", str(tmp_path / "data"),
                 "--out-ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {tmp_path / 'data.train'}: sample 5 holds a non-finite value\n"
    assert "epoch" not in captured.out
    assert not ckpt.exists()


def test_diverged_training_is_an_error_line(workdir, tmp_path, capsys):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({**CONFIG, "training": {**CONFIG["training"],
                                                      "learning_rate": 1e300}}))
    ckpt = tmp_path / "x.ckpt"
    argv = ["train", "--config", str(cfg), "--data", str(workdir / "data"),
            "--out-ckpt", str(ckpt)]
    with np.errstate(all="ignore"):
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: training diverged at epoch 1, batch \d+ "
                        r"\(sigma \S+ to \S+\)\n", err)
    assert not ckpt.exists() and not (tmp_path / "x.ckpt.csv").exists()


# -- sample -----------------------------------------------------------------

def test_sample_outputs(workdir, tmp_path):
    out = tmp_path / "gen.bin"
    assert (
        main(
            ["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0,0.0",
             "--num", "3", "--seed", "5", "--out", str(out)]
        )
        == 0
    )
    ds = read_dataset(out)
    assert len(ds) == 3
    assert ds.tensors.shape == (3, 2, 8, 16)
    assert np.all(np.isfinite(ds.tensors))
    # Conditions carry the requested position.
    np.testing.assert_allclose(ds.conditions[:, 1:4], [[6.0, 1.0, 0.0]] * 3, atol=1e-6)


def test_sample_deterministic_and_seed_sensitive(workdir, tmp_path):
    args = ["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0,0.0",
            "--num", "2"]
    for name, seed in (("a.bin", "7"), ("b.bin", "7"), ("c.bin", "8")):
        assert main(args + ["--seed", seed, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() != (tmp_path / "c.bin").read_bytes()


def test_sample_reports_nfe(workdir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_lanes, "ITEM_FLOPS", 0)
    args = ["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0,0.0",
            "--seed", "1", "--out", str(tmp_path / "gen.bin")]
    assert main(args + ["--num", "2"]) == 0
    out = capsys.readouterr().out
    assert "generated: 2 samples" in out
    assert "sampler: 20 denoiser calls (NFE) at batch 2, " in out
    assert " ms per call on 1 inference thread in float32\n" in out
    # 8 tokens, so 32 samples per slice: two slices, one per lane.
    assert main(args + ["--num", "64"]) == 0
    out = capsys.readouterr().out
    assert "sampler: 20 denoiser calls (NFE) at batch 64, " in out
    assert " ms per call on 2 inference threads in float32\n" in out


def test_sample_uses_the_trained_schedule(tmp_path, capsys):
    # Criterion 9's config trains at horizon 3 with 10 steps, and sample
    # integrates on that grid, not on DiffusionSchedule()'s.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "dataset": {"count": 120, "test_fraction": 0.1, "cell_size": 0.5},
        "dit": {"patch_size": 4, "embed_dim": 16, "depth": 1, "n_heads": 2,
                "mlp_ratio": 2},
        "schedule": {"horizon": 3.0, "sigma_min": 0.01, "n_steps": 10},
        "training": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8},
    }))
    ckpt_path = tmp_path / "model.ckpt"
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out-ckpt", str(ckpt_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "gen.bin"
    assert main(["sample", "--ckpt", str(ckpt_path), "--pos", "6.0,1.0,0.0",
                 "--num", "2", "--seed", "5", "--out", str(out)]) == 0
    assert "sampler: 10 denoiser calls (NFE) at batch 2, " in capsys.readouterr().out

    ckpt = load_checkpoint(ckpt_path)
    schedule = DiffusionSchedule(horizon=3.0, sigma_min=0.01, n_steps=10)
    assert ckpt.schedule == schedule
    cond = condition_vector(ckpt.meta.tx_origin, (6.0, 1.0, 0.0))
    want = euler_sample(ema_denoiser(ckpt), cond, schedule, np.random.default_rng(5),
                        (2, 2, 8, 16)) * ckpt.meta.normalization_scalar
    got = read_dataset(out).tensors
    np.testing.assert_array_equal(got, want.astype(np.float32).astype(float))


@pytest.mark.parametrize("num", ["0", "-1"])
def test_sample_rejects_num_below_one(workdir, tmp_path, capsys, monkeypatch, num):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking --num")

    monkeypatch.setattr(cli, "euler_sample", no_sampling)
    out = tmp_path / "gen.bin"
    assert main(["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0,0.0",
                 "--num", num, "--out", str(out)]) == 1
    assert f"error: sample count (--num) must be >= 1, got {num}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**64, -1])
def test_sample_refuses_a_seed_outside_64_bits(workdir, tmp_path, capsys, monkeypatch, seed):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking --seed")

    monkeypatch.setattr(cli, "euler_sample", no_sampling)
    out = tmp_path / "gen.bin"
    assert main(["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0,0.0",
                 "--seed", str(seed), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()
    # A Python caller's seed is checked before sampling too.
    ckpt = load_checkpoint(workdir / "model.ckpt")
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
        cli.sample_channels(ckpt, (6.0, 1.0, 0.0), 4, seed)


def test_sample_rejects_malformed_position(workdir, tmp_path, capsys):
    assert (
        main(
            ["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0",
             "--out", str(tmp_path / "x.bin")]
        )
        == 1
    )
    assert "x,y,z" in capsys.readouterr().err


@pytest.mark.parametrize("pos", ["nan,0,0", "6.0,inf,0", "6.0,1.0,-inf", "6.0,one,0"])
def test_sample_rejects_non_finite_position(workdir, tmp_path, capsys, monkeypatch, pos):
    def no_denoising(*args, **kwargs):
        raise AssertionError("called the denoiser before checking --pos")

    monkeypatch.setattr(dit.DitDenoiser, "evaluate", no_denoising)
    out = tmp_path / "x.bin"
    assert main(["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", pos,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --pos expects finite x,y,z, got {pos!r}\n"
    assert not out.exists()


# -- eval -------------------------------------------------------------------

def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_eval_self_comparison(workdir, tmp_path):
    out = tmp_path / "metrics.csv"
    assert (
        main(
            ["eval", "--gen", str(workdir / "data.test"), "--ref", str(workdir / "data.test"),
             "--out-csv", str(out)]
        )
        == 0
    )
    rows = read_rows(out)
    by_key = {(r["section"], r["key"], r["index"]): float(r["value"]) for r in rows}
    assert by_key[("ssim", "mean", "")] == pytest.approx(1.0, abs=1e-9)
    assert by_key[("nmse", "mean", "")] == pytest.approx(0.0, abs=1e-12)
    assert by_key[("angular", "tv_tx", "")] == pytest.approx(0.0, abs=1e-12)
    assert by_key[("angular", "argmax_match_rx", "")] == 1.0
    n_test = len(read_dataset(workdir / "data.test"))
    assert sum(r["section"] == "ssim" and r["key"] == "pair" for r in rows) == n_test
    assert sum(r["section"] == "angular" and r["key"] == "gen_tx" for r in rows) == 16


def test_eval_scores_each_pair_once(workdir, tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = cli.ssim_complex
    monkeypatch.setattr(cli, "ssim_complex", counted)
    out = tmp_path / "ssim.csv"
    assert main(["eval", "--gen", str(workdir / "data.test"), "--ref",
                 str(workdir / "data.train"), "--metrics", "ssim",
                 "--out-csv", str(out)]) == 0
    rows = read_rows(out)
    pairs = sum(r["key"] == "pair" for r in rows)
    assert pairs == len(read_dataset(workdir / "data.test"))
    assert len(calls) == pairs
    # The CDF section is the sorted per-pair column at ordinates (i + 1) / n,
    # and the mean is taken over it.
    per_pair = sorted(float(r["value"]) for r in rows if r["key"] == "pair")
    cdf = [float(r["value"]) for r in rows if r["section"] == "ssim_cdf" and r["key"] == "value"]
    assert cdf == per_pair
    ordinates = [float(r["value"]) for r in rows if r["key"] == "ordinate"]
    assert ordinates == [(i + 1) / pairs for i in range(pairs)]
    mean = [float(r["value"]) for r in rows if r["key"] == "mean"]
    assert mean == [float(np.mean(per_pair))]


def random_dataset(seed, count, n_rx, n_tx):
    rng = np.random.default_rng(seed)
    return Dataset(
        header=CheckpointMeta(n_rx=n_rx, n_tx=n_tx, k_rx=1, k_tx=1),
        conditions=rng.normal(size=(count, 8)),
        tensors=rng.normal(size=(count, 2, n_rx, n_tx)),
    )


@pytest.mark.parametrize("shape, counts, digest", [
    pytest.param((8, 16), (5, 9),
                 "923781ecf22dd80d5fc13cf76edfbb729a4acd11f7abc97539185da2df906509", id="8x16"),
    pytest.param((16, 32), (6, 4),
                 "c95cc46d1a6893709f22453995ce68c77be9ce8b45f63918a82ac778b3abf1c0", id="16x32"),
])
def test_eval_csv_bytes_are_pinned(tmp_path, shape, counts, digest):
    # Every byte of the CSV, all three metrics, gen != ref; 8x16 clamps the
    # SSIM window's rows, 16x32 uses the full 11x11 window.
    for name, seed, count in (("gen", 1, counts[0]), ("ref", 2, counts[1])):
        write_dataset(tmp_path / name, random_dataset(seed, count, *shape))
    out = tmp_path / "m.csv"
    assert main(["eval", "--gen", str(tmp_path / "gen"), "--ref", str(tmp_path / "ref"),
                 "--out-csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_eval_reports_throughput(workdir, tmp_path, capsys):
    assert main(["eval", "--gen", str(workdir / "data.test"), "--ref",
                 str(workdir / "data.train"), "--out-csv", str(tmp_path / "m.csv")]) == 0
    found = re.findall(r"^scored (\d+) pairs in ([\d.]+) ms \(([\d.]+) pairs/s\)$",
                       capsys.readouterr().out, re.MULTILINE)
    assert len(found) == 1
    pairs, ms, rate = int(found[0][0]), float(found[0][1]), float(found[0][2])
    assert pairs == len(read_dataset(workdir / "data.test"))
    assert ms > 0 and rate == pytest.approx(pairs / (ms / 1e3), rel=0.1)


@pytest.mark.parametrize("which", ["gen", "ref"])
@pytest.mark.parametrize("part", ["tensors", "conditions"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_rejects_non_finite_input(workdir, tmp_path, capsys, which, part, bad):
    clean = read_dataset(workdir / "data.test")
    arrays = {"tensors": clean.tensors.copy(), "conditions": clean.conditions.copy()}
    arrays[part][2].flat[1] = bad
    arrays[part][4].flat[0] = bad
    path = tmp_path / "bad.bin"
    write_dataset(path, Dataset(header=clean.header, **arrays))
    files = {"gen": str(workdir / "data.test"), "ref": str(workdir / "data.test")}
    files[which] = str(path)
    out = tmp_path / "x.csv"
    assert main(["eval", "--gen", files["gen"], "--ref", files["ref"],
                 "--out-csv", str(out)]) == 1
    assert f"error: {path}: sample 2 holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_eval_metric_subset(workdir, tmp_path):
    out = tmp_path / "nmse.csv"
    assert (
        main(
            ["eval", "--gen", str(workdir / "data.test"), "--ref", str(workdir / "data.test"),
             "--metrics", "nmse", "--out-csv", str(out)]
        )
        == 0
    )
    sections = {r["section"] for r in read_rows(out)}
    assert sections == {"nmse"}


def test_eval_rejects_unknown_metric(workdir, tmp_path, capsys):
    assert (
        main(
            ["eval", "--gen", str(workdir / "data.test"), "--ref", str(workdir / "data.test"),
             "--metrics", "ssim,psnr", "--out-csv", str(tmp_path / "x.csv")]
        )
        == 1
    )
    assert "psnr" in capsys.readouterr().err


@pytest.mark.parametrize("name", [pytest.param("n_rx", id="2-n_rx"),
                                  pytest.param("n_tx", id="3-n_tx")])
def test_eval_rejects_a_header_without_antennas(workdir, tmp_path, capsys, name):
    bad = tmp_path / "data.test"
    bad.write_bytes(rewrite_section((workdir / "data.test").read_bytes(), "meta", **{name: 0}))
    assert main(["eval", "--gen", str(bad), "--ref", str(workdir / "data.test"),
                 "--out-csv", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset {bad}: metadata 'meta' is invalid: {name} must be an integer >= 1, "
        "got 0\n")
    assert not (tmp_path / "x.csv").exists()


def test_eval_rejects_dimension_mismatch(workdir, tmp_path, capsys):
    cfg = tmp_path / "small.json"
    data = dict(CONFIG)
    data["geometry"] = {"n_tx": 8, "k_tx": 2}
    data["dataset"] = {"count": 60, "test_fraction": 0.1, "cell_size": 0.5}
    cfg.write_text(json.dumps(data))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "small")]) == 0
    assert (
        main(
            ["eval", "--gen", str(tmp_path / "small.test"), "--ref", str(workdir / "data.test"),
             "--out-csv", str(tmp_path / "x.csv")]
        )
        == 1
    )
    assert capsys.readouterr().err == (f"error: dataset {tmp_path / 'small.test'} has n_tx=8, "
                                       f"but dataset {workdir / 'data.test'} has n_tx=16\n")


@pytest.mark.parametrize("key, value", [("k_rx", 1), ("carrier_frequency", 0.14e12)])
def test_eval_refuses_data_of_another_geometry(workdir, tmp_path, capsys, key, value):
    # Same antenna counts, so the metrics would run, but other subarrays or
    # another carrier: not the same channels.
    ref = read_dataset(workdir / "data.test")
    gen = tmp_path / "gen.bin"
    write_dataset(gen, Dataset(replace(ref.header, **{key: value}), ref.conditions,
                               ref.tensors))
    out = tmp_path / "x.csv"
    assert main(["eval", "--gen", str(gen), "--ref", str(workdir / "data.test"),
                 "--out-csv", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset {gen} has {key}={value}, but dataset {workdir / 'data.test'} has "
        f"{key}={getattr(ref.header, key)}\n")
    assert not out.exists()


def run_python(args, **env):
    """Run ``python args`` on this checkout's package with ``env`` added."""
    src = str(Path(thzgen.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


# -- files ------------------------------------------------------------------

@pytest.mark.parametrize("name, section, key", [
    ("data.test", "meta", "carrier_frequency"),
    ("model.ckpt", "meta", "carrier_frequency"),
    ("model.ckpt", "schedule", "n_steps"),
])
def test_a_file_section_missing_a_key_is_one_error_line(workdir, tmp_path, capsys, name,
                                                        section, key):
    # A file's section names every field; a missing one is not read as its default.
    bad = tmp_path / name
    bad.write_bytes(rewrite_section((workdir / name).read_bytes(), section, drop=[key]))
    out = tmp_path / "out"
    if name.endswith(".ckpt"):
        kind, argv = "checkpoint", ["sample", "--ckpt", str(bad), "--pos", "6,1,0",
                                    "--out", str(out)]
    else:
        kind, argv = "dataset", ["eval", "--gen", str(bad), "--ref", str(workdir / name),
                                 "--out-csv", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {kind} {bad}: metadata {section!r} is missing keys [{key!r}]\n")
    assert not out.exists()


def test_import_loads_no_scipy():
    # numpy is the package's only dependency.
    proc = run_python(["-c", "import sys, thzgen, thzgen.cli; "
                             "print([m for m in sys.modules if m.startswith('scipy')])"])
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not _lanes._blas_single_threaded,
                    reason="no OpenBLAS thread setter: every call runs on one lane")
def test_import_sets_openblas_to_one_thread():
    # The count is read through ctypes, not through the package, and the
    # package loads only the module that sets it.
    code = ("import ctypes, sys\n"
            "from numpy._core import _multiarray_umath as core\n"
            "get = ctypes.CDLL(core.__file__).scipy_openblas_get_num_threads64_\n"
            "before = get()\n"
            "import thzgen\n"
            "print(before, get())\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'thzgen'))\n")
    counts, modules = run_python(["-c", code], OPENBLAS_NUM_THREADS="2").stdout.splitlines()
    before, after = map(int, counts.split())
    assert (before, after) == (min(2, _lanes.usable_cpus()), 1)
    assert modules.split() == ["thzgen", "thzgen._lanes"]


def test_dataset_imports_no_model():
    # The run record lives in geometry, so reading data loads no DiT.
    proc = run_python(["-c", "import sys, thzgen.dataset; "
                             "print(*sorted(m for m in sys.modules if m.startswith('thzgen')))"])
    assert not {"thzgen.dit", "thzgen.diffusion", "thzgen.checkpoint"} & set(proc.stdout.split())


def test_python_m_thzgen_runs_the_cli():
    proc = run_python(["-m", "thzgen", "--help"])
    assert proc.stdout.startswith("usage: thzgen ")
    for command in ("gen-data", "train", "sample", "eval"):
        assert command in proc.stdout
