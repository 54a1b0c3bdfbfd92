"""End-to-end acceptance gate.

Each test prints a single pass/fail line with its measured values.  The
toy training run backing the last criteria is shared through a module
fixture; everything is seeded, so the whole file is reproducible.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from thzgen.beamspace import dictionaries_for, from_beamspace, to_beamspace
from thzgen.channel import SPATIAL, ChannelMatrix, hpsm_channel, pwm_channel, swm_channel
from thzgen.checkpoint import Checkpoint, CheckpointMeta, ema_denoiser
from thzgen.cli import main
from thzgen.dataset import Dataset, SamplingRegion, build_dataset, normalize, split
from thzgen.diffusion import (
    AnalyticGaussianDenoiser,
    DiffusionSchedule,
    denoising_loss,
    euler_sample,
)
from thzgen.dit import DitConfig, DitDenoiser, init_params
from thzgen.evaluation import angular_power, compare_power, nmse, ssim, ssim_complex
from thzgen.geometry import ArrayGeometry, rayleigh_distance
from thzgen.paths import GscmConfig, draw_paths
from thzgen.training import TrainConfig, train


# One line per criterion; conftest prints these in the terminal summary so
# they are visible even when every test passes.
REPORT_LINES: list[str] = []


def report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"criterion {n}: {detail}"


def _subset(ds: Dataset, idx) -> Dataset:
    idx = np.asarray(idx)
    return Dataset(
        header=replace(ds.header, sample_count=len(idx)),
        conditions=ds.conditions[idx],
        tensors=ds.tensors[idx],
    )


# -- 1: beamspace exactness -------------------------------------------------

def test_criterion_1_beamspace_exactness():
    t0 = time.perf_counter()
    g = ArrayGeometry.uniform_linear(0.3e12, n_tx=256, n_rx=64, k_tx=8, k_rx=4)
    rx_d, tx_d = dictionaries_for(g)
    rng = np.random.default_rng(1)
    worst_rt, worst_energy = 0.0, 0.0
    for _ in range(100):
        m = rng.normal(size=(64, 256)) + 1j * rng.normal(size=(64, 256))
        h = ChannelMatrix(entries=m, domain_tag=SPATIAL, geometry=g)
        hb = to_beamspace(h, rx_d, tx_d)
        back = from_beamspace(hb, rx_d, tx_d)
        norm = np.linalg.norm(m)
        worst_rt = max(worst_rt, np.linalg.norm(back.entries - m) / norm)
        worst_energy = max(worst_energy, abs(np.linalg.norm(hb.entries) - norm) / norm)
    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-10 and worst_energy < 1e-10 and elapsed < 10.0
    report(
        1, ok,
        f"round-trip {worst_rt:.2e}, energy {worst_energy:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (limit 10s)",
    )


# -- 2: field-regime physics ------------------------------------------------

def test_criterion_2_field_regimes():
    t0 = time.perf_counter()

    def correlation(distance_factor):
        g = ArrayGeometry.uniform_linear(0.3e12, n_tx=16, n_rx=16)
        d_r = rayleigh_distance(g.aperture("tx"), g.wavelength)
        g = g.with_rx_origin((distance_factor * d_r, 0.0, 0.0))
        from thzgen.paths import Path, PathSet

        p = PathSet([Path()])  # the line of sight
        hs = swm_channel(p, g).entries
        hp = pwm_channel(p, g).entries
        return abs(np.vdot(hs, hp)) / (np.linalg.norm(hs) * np.linalg.norm(hp))

    far = correlation(100.0)
    near = correlation(0.1)
    d_r = rayleigh_distance(0.1275, 1e-3)
    elapsed = time.perf_counter() - t0
    ok = far > 0.999 and near < 0.99 and abs(d_r - 32.51) <= 0.01 and elapsed < 5.0
    report(
        2, ok,
        f"far corr {far:.5f} (>0.999), near corr {near:.5f} (<0.99), "
        f"Rayleigh {d_r:.4f}m (32.51±0.01), {elapsed:.1f}s (limit 5s)",
    )


# -- 3: hybrid-model advantage ----------------------------------------------

def test_criterion_3_hpsm_advantage():
    t0 = time.perf_counter()
    g0 = ArrayGeometry.uniform_linear(0.3e12, n_tx=64, n_rx=16, k_tx=4, k_rx=2)
    d_full = rayleigh_distance(g0.aperture("tx"), g0.wavelength)
    d_sub = rayleigh_distance((g0.n_tx_sub - 1) * g0.intra_spacing, g0.wavelength)
    d = float(np.sqrt(d_full * d_sub))
    assert d_sub < d < d_full
    wins = 0
    for i in range(20):
        rng = np.random.default_rng([17, i])
        ang = rng.uniform(-0.6, 0.6)
        z = rng.uniform(-0.3, 0.3)
        g = g0.with_rx_origin((d * np.cos(ang), d * np.sin(ang), z))
        ps = draw_paths(rng, GscmConfig(), g)
        truth = swm_channel(ps, g).entries
        e_h = nmse(hpsm_channel(ps, g).entries, truth)
        e_p = nmse(pwm_channel(ps, g).entries, truth)
        wins += e_h < e_p
    elapsed = time.perf_counter() - t0
    ok = wins >= 18 and elapsed < 60.0
    report(3, ok, f"hybrid wins {wins}/20 scenes (need >=18), {elapsed:.1f}s (limit 60s)")


# -- 4: diffusion oracle ----------------------------------------------------

def test_criterion_4_diffusion_oracle():
    t0 = time.perf_counter()
    schedule = DiffusionSchedule(horizon=10.0, sigma_min=0.01, n_steps=200)
    den = AnalyticGaussianDenoiser(np.zeros(4), 1.0)
    out = euler_sample(den, None, schedule, np.random.default_rng(0), shape=(10_000, 4))
    var = float(out.var())
    mean = float(abs(out.mean()))

    # Terminal-mean error vs the exact Gaussian transport, from the realized
    # initial ensemble so the Monte-Carlo noise cancels between step counts.
    mu = 5.0
    transport = np.sqrt((1.0 + 0.01**2) / (1.0 + 10.0**2))
    den5 = AnalyticGaussianDenoiser(np.full(4, mu), 1.0)
    errs = {}
    for n in (200, 400):
        sch = DiffusionSchedule(horizon=10.0, sigma_min=0.01, n_steps=n)
        init_mean = np.random.default_rng(11).standard_normal((10_000, 4)).mean() * 10.0
        sampled = euler_sample(den5, None, sch, np.random.default_rng(11), (10_000, 4))
        exact = mu + (init_mean - mu) * transport
        errs[n] = abs(float(sampled.mean()) - exact)
    ratio = errs[200] / errs[400]
    elapsed = time.perf_counter() - t0
    ok = 0.95 <= var <= 1.05 and mean < 0.03 and ratio >= 1.8 and elapsed < 60.0
    report(
        4, ok,
        f"terminal var {var:.4f} ([0.95,1.05]), |mean| {mean:.4f} (<0.03), "
        f"halving ratio {ratio:.2f} (>=1.8), {elapsed:.1f}s (limit 60s)",
    )


# -- 5: gradient correctness ------------------------------------------------

def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    cfg = DitConfig(n_rx=8, n_tx=8, patch_size=4, embed_dim=8, depth=1, n_heads=2,
                    mlp_ratio=2)
    rng = np.random.default_rng(2)
    params = init_params(cfg, rng)
    for name in params:  # every tensor non-zero so every gradient flows
        params[name] = rng.normal(0.0, 0.05, size=params[name].shape)
    den = DitDenoiser(cfg, params=params)

    data_rng = np.random.default_rng(3)
    h0 = data_rng.normal(size=(2, 2, 8, 8))
    cond = data_rng.normal(size=(2, 8))
    sigmas = np.array([0.3, 2.0])
    noise = data_rng.normal(size=h0.shape)
    _, grads = den.loss_and_grads(h0, cond, sigmas, noise)

    eps = 1e-6
    worst, worst_name = 0.0, ""
    for name, tensor in sorted(den.params.items()):
        flat = tensor.reshape(-1)
        picks = np.linspace(0, flat.size - 1, min(3, flat.size)).astype(int)
        for j in picks:
            base = flat[j]
            flat[j] = base + eps
            lp, _ = den.loss_and_grads(h0, cond, sigmas, noise)
            flat[j] = base - eps
            lm, _ = den.loss_and_grads(h0, cond, sigmas, noise)
            flat[j] = base
            fd = (lp - lm) / (2 * eps)
            g = grads[name].reshape(-1)[j]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    report(
        5, ok,
        f"max relative gradient error {worst:.2e} at {worst_name or 'n/a'} "
        f"(<1e-4), {elapsed:.1f}s (limit 120s)",
    )


# -- 6: identity-at-init and loss arithmetic --------------------------------

def test_criterion_6_identity_and_loss():
    cfg = DitConfig(n_rx=8, n_tx=16, patch_size=4, embed_dim=16, depth=2, n_heads=2,
                    mlp_ratio=2)
    den = DitDenoiser(cfg, rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 2, 8, 16))
    cond = rng.normal(size=(4, 8))
    max_dev = 0.0
    for sigma in (0.05, 1.0, 7.0):
        sig = np.full(4, sigma)
        out, _ = den.forward(h, sig, cond)
        c_skip = 1.0 / (sig**2 + 1.0)
        max_dev = max(max_dev, np.abs(out - c_skip[:, None, None, None] * h).max())

    class IdentityDenoiser:
        def evaluate(self, h_t, sigma, condition=None):
            return h_t

    sigma = 0.8
    h0 = np.random.default_rng(6).normal(size=(10_000, 1, 2, 2))
    noise = np.random.default_rng(7).standard_normal(h0.shape)
    loss = denoising_loss(IdentityDenoiser(), h0, None, np.full(10_000, sigma), noise)
    rel = abs(loss - sigma**2) / sigma**2
    ok = max_dev == 0.0 and rel < 0.03
    report(
        6, ok,
        f"identity-at-init deviation {max_dev:.1e} (exact), identity loss "
        f"{loss:.4f} vs sigma^2={sigma**2:.4f} (rel {rel:.3f} < 0.03)",
    )


# -- toy training run shared by criteria 7 and 8 ----------------------------

TOY_SCHEDULE = DiffusionSchedule(horizon=3.0, sigma_min=0.01, n_steps=100)


@pytest.fixture(scope="module")
def toy_run():
    t0 = time.perf_counter()
    geom = ArrayGeometry.uniform_linear(
        0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2, rx_origin=(7.0, 0.0, 0.0)
    )
    gscm = GscmConfig(
        k_factor_mean_db=15.0, k_factor_std_db=2.0, n_clusters=2, rays_per_cluster=3
    )
    region = SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))
    ds, scale = normalize(build_dataset(0, geom, gscm, region, 2400))
    train_set, test_set = split(ds, 256.0 / 2400.0, cell_size=0.5)
    train_set = _subset(train_set, np.arange(2048))
    test_set = _subset(test_set, np.arange(256))

    # Patch size 2: with 4-wide patches the generator can alias angular bins
    # that differ by exactly the patch width (identical patch-level phase
    # progression), which caps the argmax-match rate.
    dit = DitConfig(n_rx=8, n_tx=16, patch_size=2, embed_dim=64, depth=4, n_heads=4)
    cfg = TrainConfig(learning_rate=1e-3, epochs=40, batch_size=8, seed=0)
    result = train(train_set, test_set, dit, TOY_SCHEDULE, cfg)
    ckpt = Checkpoint(
        config=dit,
        params=result.model.params,
        ema_params=result.ema_params,
        adam_m=result.adam_m,
        adam_v=result.adam_v,
        step=result.step,
        meta=CheckpointMeta(
            normalization_scalar=scale, k_rx=2, k_tx=2, master_seed=0
        ),
    )
    return {
        "curves": result.curves,
        "checkpoint": ckpt,
        "test_set": test_set,
        "train_seconds": time.perf_counter() - t0,
    }


@pytest.mark.slow
def test_criterion_7_toy_training(toy_run):
    curves = toy_run["curves"]
    test_losses = np.array([c[2] for c in curves])
    first, last = test_losses[0], test_losses[-1]
    ratio = last / first
    smoothed = np.convolve(test_losses, np.ones(5) / 5.0, mode="valid")
    # Non-increasing up to plateau noise: rises below 0.5% of the local
    # level are evaluation jitter, not a trend reversal.
    rel_rise = float((np.diff(smoothed) / smoothed[:-1]).max())
    elapsed = toy_run["train_seconds"]
    ok = ratio < 0.5 and rel_rise <= 5e-3 and elapsed < 1800.0
    report(
        7, ok,
        f"test loss {first:.4f} -> {last:.4f} (ratio {ratio:.3f} < 0.5), "
        f"max smoothed relative rise {rel_rise:.2e} (<=5e-3), "
        f"{elapsed:.0f}s (limit 1800s)",
    )


@pytest.mark.slow
def test_criterion_8_conditional_fidelity(toy_run):
    t0 = time.perf_counter()
    test_set = toy_run["test_set"]
    ckpt = toy_run["checkpoint"]
    denoiser = ema_denoiser(ckpt)
    n_cond, n_draws = 64, 8

    conds = test_set.conditions[:n_cond]
    truth = test_set.complex_matrices()[:n_cond]
    stacked = np.repeat(conds, n_draws, axis=0)
    shape = (n_cond * n_draws, 2, 8, 16)
    samples = euler_sample(
        denoiser, stacked, TOY_SCHEDULE, np.random.default_rng(21), shape
    )
    gen = (samples[:, 0] + 1j * samples[:, 1]).reshape(n_cond, n_draws, 8, 16)

    cond_ssims = [
        np.mean([ssim_complex(gen[i, d], truth[i]) for d in range(n_draws)])
        for i in range(n_cond)
    ]
    shift = np.roll(np.arange(n_cond), 7)  # derangement: unrelated conditions
    base_ssims = [ssim_complex(truth[shift[i]], truth[i]) for i in range(n_cond)]
    gap = float(np.mean(cond_ssims) - np.mean(base_ssims))

    def fold(profile, k):
        # Each angular bin appears once per subarray block (the dictionary is
        # block-diagonal), so the per-angle profile sums over blocks; without
        # this the argmax coin-flips between identical twin bins.
        return profile.reshape(k, -1).sum(axis=0)

    def tv(a, b):
        return 0.5 * float(np.abs(a / a.sum() - b / b.sum()).sum())

    matches, tvs = 0, []
    for i in range(n_cond):
        gm = angular_power(gen[i])
        rm = angular_power(truth[i])
        gt, rt = fold(gm.tx_profile, 2), fold(rm.tx_profile, 2)
        gr, rr = fold(gm.rx_profile, 2), fold(rm.rx_profile, 2)
        matches += np.argmax(gt) == np.argmax(rt) and np.argmax(gr) == np.argmax(rr)
        tvs.append(0.5 * (tv(gt, rt) + tv(gr, rr)))
    match_rate = matches / n_cond
    tv_mean = float(np.mean(tvs))
    elapsed = time.perf_counter() - t0
    ok = gap >= 0.1 and match_rate >= 0.8 and tv_mean < 0.3 and elapsed < 600.0
    report(
        8, ok,
        f"SSIM gap {gap:.3f} (>=0.1), argmax match {match_rate:.0%} (>=80%), "
        f"tv mean {tv_mean:.3f} (<0.3), {elapsed:.0f}s (limit 600s)",
    )


# -- 9: CLI determinism -----------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    import json

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "dataset": {"count": 120, "test_fraction": 0.1, "cell_size": 0.5},
        "dit": {"patch_size": 4, "embed_dim": 16, "depth": 1, "n_heads": 2,
                "mlp_ratio": 2},
        "schedule": {"horizon": 3.0, "sigma_min": 0.01, "n_steps": 10},
        "training": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8},
    }))
    byte_equal = []
    for stage, args, outputs in (
        ("gen-data",
         ["gen-data", "--config", str(cfg), "--out", "{run}/data"],
         ["data.train", "data.test"]),
        ("train",
         ["train", "--config", str(cfg), "--data", str(tmp_path / "run1/data"),
          "--out-ckpt", "{run}/model.ckpt"],
         ["model.ckpt", "model.ckpt.csv"]),
        ("sample",
         ["sample", "--ckpt", str(tmp_path / "run1/model.ckpt"), "--pos",
          "6.0,1.0,0.0", "--num", "2", "--seed", "5", "--out", "{run}/gen.bin"],
         ["gen.bin"]),
    ):
        for run in ("run1", "run2"):
            (tmp_path / run).mkdir(exist_ok=True)
            argv = [a.replace("{run}", str(tmp_path / run)) for a in args]
            assert main(argv) == 0, stage
        for name in outputs:
            byte_equal.append(
                (tmp_path / "run1" / name).read_bytes()
                == (tmp_path / "run2" / name).read_bytes()
            )
    ok = all(byte_equal)
    report(9, ok, f"byte-identical artifacts across re-runs: {sum(byte_equal)}/{len(byte_equal)}")


# -- 10: metric self-consistency --------------------------------------------

def test_criterion_10_metric_identities():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 16))
    s = ssim(x, x)
    e = nmse(x, x)
    power = angular_power(x + 0j)
    cmp = compare_power(power, power)
    ok = (
        abs(s - 1.0) <= 1e-9
        and e == 0.0
        and cmp.tx.tv_distance == pytest.approx(0.0, abs=1e-12)
        and cmp.tx.cosine_similarity == pytest.approx(1.0, abs=1e-12)
        and cmp.rx.tv_distance == pytest.approx(0.0, abs=1e-12)
        and cmp.rx.cosine_similarity == pytest.approx(1.0, abs=1e-12)
    )
    report(10, ok, f"ssim(X,X)={s:.12f}, nmse(X,X)={e}, tv=0/cosine=1 identities hold")
