import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import thzgen
from thzgen import cli, dit
from thzgen.checkpoint import ema_denoiser, load_checkpoint
from thzgen.cli import main
from thzgen.dataset import Dataset, read_dataset, write_dataset
from thzgen.diffusion import DiffusionSchedule, euler_sample
from thzgen.geometry import condition_vector
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
    assert cfg.schedule == DiffusionSchedule()
    assert cfg.training == TrainConfig(seed=0)
    assert cfg.dit == dit.DitConfig(n_rx=8, n_tx=16)


@pytest.mark.parametrize("value", [
    {"patch_size": 3}, {"embed_dim": 10}, {"patch_size": 0},
])
def test_bad_dit_section_is_fatal_for_gen_data(tmp_path, capsys, value):
    # gen-data builds no model, but the config it loads is checked whole.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dit": value}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.train").exists()


def test_indivisible_subarrays_are_fatal(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"geometry": {"n_tx": 10, "k_tx": 4}}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "n_tx" in capsys.readouterr().err


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
    monkeypatch.setattr(dit, "LANES", 2)
    monkeypatch.setattr(dit, "SLICES_PER_LANE", 1)
    args = ["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0,0.0",
            "--seed", "1", "--out", str(tmp_path / "gen.bin")]
    assert main(args + ["--num", "2"]) == 0
    out = capsys.readouterr().out
    assert "generated: 2 samples" in out
    assert "sampler: 20 denoiser calls (NFE) at batch 2, " in out
    assert " ms per call on 1 inference thread\n" in out
    # 8 tokens, so 32 samples per slice: two slices, one per lane.
    assert main(args + ["--num", "64"]) == 0
    out = capsys.readouterr().out
    assert "sampler: 20 denoiser calls (NFE) at batch 64, " in out
    assert " ms per call on 2 inference threads\n" in out


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
    want = euler_sample(ema_denoiser(ckpt), cond.p, schedule, np.random.default_rng(5),
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


def test_sample_rejects_malformed_position(workdir, tmp_path, capsys):
    assert (
        main(
            ["sample", "--ckpt", str(workdir / "model.ckpt"), "--pos", "6.0,1.0",
             "--out", str(tmp_path / "x.bin")]
        )
        == 1
    )
    assert "x,y,z" in capsys.readouterr().err


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
    # The CDF section is the sorted per-pair column.
    per_pair = sorted(float(r["value"]) for r in rows if r["key"] == "pair")
    cdf = [float(r["value"]) for r in rows if r["section"] == "ssim_cdf" and r["key"] == "value"]
    assert cdf == per_pair


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
