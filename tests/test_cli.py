import csv
import json

import numpy as np
import pytest

from thzgen import cli, dit
from thzgen.checkpoint import load_checkpoint
from thzgen.cli import main
from thzgen.dataset import read_dataset

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


def test_indivisible_subarrays_are_fatal(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"geometry": {"n_tx": 10, "k_tx": 4}}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "n_tx" in capsys.readouterr().err


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
    assert "sampler: 100 denoiser calls (NFE) at batch 2, " in out
    assert " ms per call on 1 inference thread\n" in out
    # 8 tokens, so 32 samples per slice: two slices, one per lane.
    assert main(args + ["--num", "64"]) == 0
    out = capsys.readouterr().out
    assert "sampler: 100 denoiser calls (NFE) at batch 64, " in out
    assert " ms per call on 2 inference threads\n" in out


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
