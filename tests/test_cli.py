import csv
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import thzgen
from thzgen import _lanes, cli, dit
from thzgen.checkpoint import ema_denoiser, load_checkpoint
from thzgen.cli import main
from thzgen.dataset import (
    _HEADER_FMT,
    Dataset,
    DatasetConfig,
    DatasetHeader,
    read_dataset,
    write_dataset,
)
from thzgen.diffusion import DiffusionSchedule, euler_sample
from thzgen.geometry import CONDITION_DIM, condition_vector
from thzgen.paths import GscmConfig
from thzgen.training import TrainConfig

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
    raw = bytearray((workdir / "data.train").read_bytes())
    fields = list(struct.unpack_from(_HEADER_FMT, raw))
    fields[4] = k_rx  # magic, version, n_rx, n_tx, k_rx, ...
    struct.pack_into(_HEADER_FMT, raw, 0, *fields)
    bad = tmp_path / "data.train"
    bad.write_bytes(bytes(raw))
    (tmp_path / "data.test").write_bytes((workdir / "data.test").read_bytes())
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path(workdir), "--data", str(tmp_path / "data"),
                 "--out-ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert f"error: dataset {bad} has an invalid header: {match}" in captured.err
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
    cfg.write_text(json.dumps({"dataset": {"countt": 10}}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "unknown config key: dataset.countt" in capsys.readouterr().err


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
    # Each value must have the JSON type of its default.
    doc = value
    for part in reversed(key.split(".")):
        doc = {part: doc}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
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
    doc = value
    for part in reversed(key.split(".")):
        doc = {part: doc}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: config key {key} must be a finite number\n"
    assert not (tmp_path / "x.train").exists()


def test_well_typed_config_values_are_accepted():
    # An int where a float is expected, and null or a number for an optional.
    cfg = cli._merge_strict(cli._CONFIG_DEFAULTS, {
        "schedule": {"horizon": 3}, "region": {"low": [4, -3.0, -0.5]},
        "geometry": {"intra_spacing": 0.001, "inter_spacing": None},
    })
    assert cfg["schedule"] == {"horizon": 3, "sigma_min": 0.01, "n_steps": 100}
    assert cfg["region"]["low"] == [4, -3.0, -0.5]
    assert cfg["geometry"]["intra_spacing"] == 0.001


def flatten(section, prefix=""):
    out = {}
    for key, value in section.items():
        if isinstance(value, dict) and value:
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def test_config_keys_and_defaults_are_unchanged():
    # Every config key with its default; a new key is a new knob.
    pinned = {
        "seed": 0,
        "geometry.carrier_frequency": 0.3e12, "geometry.n_tx": 16, "geometry.n_rx": 8,
        "geometry.k_tx": 2, "geometry.k_rx": 2, "geometry.intra_spacing": None,
        "geometry.inter_spacing": None, "geometry.tx_origin": [0.0, 0.0, 0.0],
        "geometry.axis": [0.0, 1.0, 0.0],
        "gscm.n_clusters": 3, "gscm.rays_per_cluster": 5, "gscm.k_factor_mean_db": 10.0,
        "gscm.k_factor_std_db": 3.0, "gscm.azimuth_spread": 0.05,
        "gscm.elevation_spread": 0.05, "gscm.path_loss_exponent": 2.0,
        "gscm.scatterer_radius_min": 1.0, "gscm.scatterer_radius_max": 5.0,
        "region.low": [4.0, -3.0, -0.5], "region.high": [10.0, 3.0, 0.5],
        "dataset.count": 1000, "dataset.test_fraction": 0.1, "dataset.cell_size": 0.5,
        "dit.patch_size": 4, "dit.embed_dim": 64, "dit.depth": 4, "dit.n_heads": 4,
        "dit.mlp_ratio": 4,
        "schedule.horizon": 10.0, "schedule.sigma_min": 0.01, "schedule.n_steps": 100,
        "training.learning_rate": 1e-4, "training.beta1": 0.9, "training.beta2": 0.999,
        "training.eps": 1e-3, "training.ema_decay": 0.999, "training.epochs": 100,
        "training.batch_size": 8,
    }
    got = flatten(cli._CONFIG_DEFAULTS)
    assert got == pinned
    # Each default keeps its JSON type, which _check_leaf enforces: an int
    # stays an int.
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in pinned.items()}
    cfg = cli.load_config(None)
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
    assert set(asdict(config)) == {*cli._CONFIG_DEFAULTS["dit"], "n_rx", "n_tx"}
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
])
def test_bad_value_is_fatal_before_synthesis(tmp_path, capsys, monkeypatch, section, value,
                                             message):
    def synthesize(*args):
        raise AssertionError("gen-data synthesized samples under a bad config")

    monkeypatch.setattr(cli, "build_dataset", synthesize)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: value}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
    assert capsys.readouterr().err == "error: n_tx must be an integer >= 1, got -16\n"


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
        f"error: config key seed must be in [0, 2**64), got {seed}\n")
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
    assert "does not match config" in capsys.readouterr().err


def train_with_test_file(workdir, tmp_path, test_bytes):
    """Run train on workdir's .train file beside the given .test file."""
    (tmp_path / "data.train").write_bytes((workdir / "data.train").read_bytes())
    (tmp_path / "data.test").write_bytes(test_bytes)
    ckpt = tmp_path / "model.ckpt"
    status = main(["train", "--config", config_path(workdir), "--data", str(tmp_path / "data"),
                   "--out-ckpt", str(ckpt)])
    assert not ckpt.exists()
    return status


@pytest.mark.parametrize("index, name, value", [
    (4, "k_rx", 4), (5, "k_tx", 4), (8, "normalization_scalar", 2.5), (9, "master_seed", 4),
])
def test_train_refuses_a_test_file_from_another_run(workdir, tmp_path, capsys, index, name,
                                                    value):
    raw = bytearray((workdir / "data.test").read_bytes())
    fields = list(struct.unpack_from(_HEADER_FMT, raw))
    want = fields[index]
    fields[index] = value  # magic, version, n_rx, n_tx, k_rx, k_tx, cond_dim, count, ...
    struct.pack_into(_HEADER_FMT, raw, 0, *fields)
    assert train_with_test_file(workdir, tmp_path, bytes(raw)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: dataset {tmp_path / 'data.test'} has {name}={value}, "
                            f"but {tmp_path / 'data.train'} has {name}={want}\n")
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
                        rf"{name}=\d+, but {re.escape(str(tmp_path / 'data.train'))} has "
                        rf"{name}=\d+\n", captured.err)
    assert "epoch" not in captured.out


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
        header=DatasetHeader(n_rx=n_rx, n_tx=n_tx, k_rx=1, k_tx=1, sample_count=count),
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


@pytest.mark.parametrize("field, name", [(2, "n_rx"), (3, "n_tx")])
def test_eval_rejects_a_header_without_antennas(workdir, tmp_path, capsys, field, name):
    raw = (workdir / "data.test").read_bytes()
    header = struct.calcsize(_HEADER_FMT)
    fields = list(struct.unpack_from(_HEADER_FMT, raw))
    fields[field] = 0  # magic, version, n_rx, n_tx, ...
    record = 4 * (fields[6] + 2 * fields[2] * fields[3])  # the body cut to match
    bad = tmp_path / "data.test"
    bad.write_bytes(struct.pack(_HEADER_FMT, *fields) + raw[header:header + fields[7] * record])
    assert main(["eval", "--gen", str(bad), "--ref", str(workdir / "data.test"),
                 "--out-csv", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset {bad} has an invalid header: {name} must be an integer >= 1, got 0\n")
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
    assert "dimension mismatch" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # numpy is the package's only dependency.
    src = str(Path(thzgen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, thzgen, thzgen.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_python_m_thzgen_runs_the_cli():
    src = str(Path(thzgen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "thzgen", "--help"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.startswith("usage: thzgen ")
    for command in ("gen-data", "train", "sample", "eval"):
        assert command in proc.stdout
