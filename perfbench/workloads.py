"""The three benchmark workloads: train, sample and synth.

Each workload builds its inputs from the seed in ``setup`` and then runs
fixed rounds in a closed loop: a round starts only after the previous one
finished.  Every round repeats the same inputs, so each round after the
first also checks that the program's outputs are reproduced bit for bit.
All thzgen functions are reached through their modules so that the tracer's
wrappers see every call.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from thzgen import beamspace, channel, checkpoint, cli, dataset, dit, evaluation, paths, training
from thzgen.diffusion import DiffusionSchedule
from thzgen.geometry import ArrayGeometry


@dataclass(frozen=True)
class Sizes:
    toy_samples: int = 72       # 8x16 samples drawn for `train` (split 64 / 8)
    toy_test: int = 8
    train_epochs: int = 4
    ckpt_samples: int = 80      # 8x16 samples behind the `sample` checkpoint
    ckpt_test: int = 16
    big_batch: int = 512
    small_batch: int = 8
    small_repeats: int = 16     # B=8 sampler calls per B=512 call
    euler_steps: int = 1
    synth_shape: tuple = (64, 256, 4, 8)   # n_rx, n_tx, k_rx, k_tx
    synth_draws: int = 16
    synth_test: int = 4
    setup_repeats: int = 5


FULL = Sizes()
# Smallest sizes that still run every code path; used by the self-test.
TINY = Sizes(
    toy_samples=40, toy_test=8, train_epochs=2, ckpt_samples=40, ckpt_test=8,
    big_batch=16, small_batch=2, small_repeats=2,
    synth_shape=(8, 16, 2, 2), synth_draws=8, synth_test=2, setup_repeats=2,
)

CARRIER = 0.3e12
REGION = dataset.SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))
# Cells far smaller than the sample spacing make the split's test share
# exact, so no seed trips its 2% tolerance.
CELL_SIZE = 0.05
TOY_GSCM = paths.GscmConfig(
    k_factor_mean_db=15.0, k_factor_std_db=2.0, n_clusters=2, rays_per_cluster=3
)
TOY_DIT = dit.DitConfig(n_rx=8, n_tx=16, patch_size=2, embed_dim=64, depth=4, n_heads=4)
TOY_SCHEDULE = DiffusionSchedule(horizon=3.0, sigma_min=0.01, n_steps=100)
# Loss passes of the final EMA weights over the training set (chunks of 64).
LOSS_PASSES = 2


def toy_train_config(seed: int, epochs: int) -> training.TrainConfig:
    # A fast EMA so the EMA test loss after a short run reflects training
    # rather than the initial weights.
    return training.TrainConfig(
        learning_rate=1e-3, epochs=epochs, batch_size=8, seed=seed, ema_decay=0.95
    )


class Outcome:
    """Operations attempted and failed, correctness checks, and timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.counts: Counter = Counter()

    def record(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(float(value))

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, label: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(label)

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {label}")


class Clock:
    """Accumulates perf_counter time spent inside `with clock:` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0
        return False


def _toy_splits(seed: int, n: int, n_test: int, work: Path, stem: str):
    """8x16 dataset through build/normalize/split/write/read, as gen-data + train do."""
    geom = ArrayGeometry.uniform_linear(
        CARRIER, n_tx=16, n_rx=8, k_tx=2, k_rx=2, rx_origin=(7.0, 0.0, 0.0)
    )
    full, scale = dataset.normalize(dataset.build_dataset(seed, geom, TOY_GSCM, REGION, n))
    train_set, test_set = dataset.split(full, n_test / n, CELL_SIZE)
    dataset.write_dataset(work / f"{stem}.train", train_set)
    dataset.write_dataset(work / f"{stem}.test", test_set)
    return (
        dataset.read_dataset(work / f"{stem}.train"),
        dataset.read_dataset(work / f"{stem}.test"),
        scale,
        geom,
    )


# ---------------------------------------------------------------------------


class TrainWorkload:
    name = "train"
    why = ("toy DiT training: forward/backward, Adam, EMA and epoch-end test loss do "
           "the work; channel synthesis runs only in setup, so channel changes show no change")
    # Timing sample -> the pipeline rate it gives (items per second).
    rates = {
        "primary_ms": "train_steps_per_s",
        "secondary_ms": "ema_loss_samples_per_s",
    }

    def setup(self, seed: int, work: Path, sizes: Sizes) -> dict:
        train_set, test_set, _, _ = _toy_splits(
            seed, sizes.toy_samples, sizes.toy_test, work, "toy"
        )
        rng = np.random.default_rng([seed, 3])
        return {
            "train": train_set,
            "test": test_set,
            "cfg": toy_train_config(seed, sizes.train_epochs),
            "sigmas": TOY_SCHEDULE.draw_sigma(rng, len(train_set)),
            "noise": rng.standard_normal(train_set.tensors.shape),
            "first": None,
        }

    def round(self, st: dict, out: Outcome) -> None:
        out.op(1 + LOSS_PASSES)
        # Each epoch (its steps plus its test loss) is one timing sample.
        marks = [time.perf_counter()]
        result = training.train(
            st["train"], st["test"], TOY_DIT, TOY_SCHEDULE, st["cfg"],
            progress=lambda *_: marks.append(time.perf_counter()),
        )
        steps_per_epoch = result.step / st["cfg"].epochs
        for start, end in zip(marks, marks[1:]):
            out.record("primary_ms", 1e3 * (end - start) / steps_per_epoch)
        ema_model = dit.DitDenoiser(TOY_DIT, params=result.ema_params)
        for _ in range(LOSS_PASSES):
            with Clock() as t_loss:
                training.evaluate_loss(ema_model, st["train"], st["sigmas"], st["noise"])
            out.record("secondary_ms", 1e3 * t_loss.seconds / len(st["train"]))
        out.record("train_test_loss", result.curves[-1][2])

        curves = np.asarray(result.curves, dtype=float)
        out.check("train losses are finite", bool(np.all(np.isfinite(curves))))
        if st["first"] is None:
            st["first"] = curves
        else:
            out.check("train_test_loss is reproducible",
                      np.array_equal(curves, st["first"]))


class SampleWorkload:
    name = "sample"
    why = ("forward-only DiT through cli.sample_channels at B=512 (memory and GELU bound) "
           "and B=8 (dispatch bound); no backward cache use, no Adam")
    rates = {
        "primary_ms": "denoise_calls_per_s.b512",
        "secondary_ms": "denoise_calls_per_s.b8",
    }

    def setup(self, seed: int, work: Path, sizes: Sizes) -> dict:
        train_set, test_set, scale, geom = _toy_splits(
            seed, sizes.ckpt_samples, sizes.ckpt_test, work, "ckpt"
        )
        # A few training steps so the adaLN-Zero gates and the head are non-zero.
        result = training.train(
            train_set, test_set, TOY_DIT, TOY_SCHEDULE, toy_train_config(seed, 1)
        )
        path = work / "model.ckpt"
        checkpoint.save_checkpoint(path, checkpoint.Checkpoint(
            config=TOY_DIT,
            params=result.model.params,
            ema_params=result.ema_params,
            adam_m=result.adam_m,
            adam_v=result.adam_v,
            step=result.step,
            meta=checkpoint.CheckpointMeta(
                normalization_scalar=scale, k_rx=2, k_tx=2, master_seed=seed
            ),
        ))
        ckpt = checkpoint.load_checkpoint(path)
        position = tuple(geom.tx_origin + test_set.conditions[0, 1:4])
        return {
            "ckpt": ckpt,
            "position": position,
            "seed": seed,
            "sizes": sizes,
            "schedule": DiffusionSchedule(
                horizon=3.0, sigma_min=0.01, n_steps=sizes.euler_steps
            ),
            "first": {},
        }

    def _sample(self, st: dict, batch: int, out: Outcome) -> float:
        """One sample_channels call: ms per denoiser call, and two checks."""
        with Clock() as clock:
            tensors = cli.sample_channels(
                st["ckpt"], st["position"], batch, st["seed"], st["schedule"]
            ).tensors
        out.check(f"B={batch} samples are finite", bool(np.all(np.isfinite(tensors))))
        first = st["first"].setdefault(batch, tensors.tobytes())
        out.check(f"B={batch} samples are byte-identical on re-run",
                  tensors.tobytes() == first)
        return 1e3 * clock.seconds / st["schedule"].n_steps

    def round(self, st: dict, out: Outcome) -> None:
        sizes = st["sizes"]
        out.op(1 + sizes.small_repeats)
        out.record("primary_ms", self._sample(st, sizes.big_batch, out))
        for _ in range(sizes.small_repeats):
            out.record("secondary_ms", self._sample(st, sizes.small_batch, out))


class SynthWorkload:
    name = "synth"
    why = ("64x256 UM-MIMO channels (k 4x8) through gen-data, HPSM and the eval command; "
           "no DiT, and the SSIM window is the full 11x11")
    rates = {
        "primary_ms": "gen_samples_per_s",
        "secondary_ms": "hpsm_eval_pairs_per_s",
        "hpsm_ms": "hpsm_channels_per_s",
        "eval_ms": "eval_pairs_per_s",
    }

    def setup(self, seed: int, work: Path, sizes: Sizes) -> dict:
        n_rx, n_tx, k_rx, k_tx = sizes.synth_shape
        center = (np.asarray(REGION.low) + np.asarray(REGION.high)) / 2.0
        geom = ArrayGeometry.uniform_linear(
            CARRIER, n_tx=n_tx, n_rx=n_rx, k_tx=k_tx, k_rx=k_rx, rx_origin=tuple(center)
        )
        gscm = paths.GscmConfig()
        rx_dict, tx_dict = beamspace.dictionaries_for(geom)
        # Replays build_dataset's per-sample streams to get the same draws,
        # and the exact (SWM) and planar (PWM) references for the checks.
        draws = []
        for i in range(sizes.synth_draws):
            rng = dataset.sample_rng(seed, i)
            geom_i = geom.with_rx_origin(REGION.draw(rng))
            path_set = paths.draw_paths(rng, gscm, geom_i)
            draws.append({
                "geometry": geom_i,
                "paths": path_set,
                "swm": channel.swm_channel(path_set, geom_i).entries,
                "pwm": channel.pwm_channel(path_set, geom_i).entries,
            })
        return {
            "seed": seed, "geometry": geom, "gscm": gscm, "draws": draws,
            "rx_dict": rx_dict, "tx_dict": tx_dict, "work": work, "sizes": sizes,
            "first": None,
        }

    def _gen_data(self, st: dict):
        """The gen-data command's path, plus reading both files back."""
        sizes, work = st["sizes"], st["work"]
        full = dataset.build_dataset(
            st["seed"], st["geometry"], st["gscm"], REGION, sizes.synth_draws
        )
        full, scale = dataset.normalize(full)
        parts = dataset.split(full, sizes.synth_test / sizes.synth_draws, CELL_SIZE)
        for part, suffix in zip(parts, ("train", "test")):
            dataset.write_dataset(work / f"swm.{suffix}", part)
        read = [dataset.read_dataset(work / f"swm.{s}") for s in ("train", "test")]
        return full, scale, parts, read

    def round(self, st: dict, out: Outcome) -> None:
        work, draws = st["work"], st["draws"]
        n = len(draws)
        out.op(3)
        with Clock() as t_gen:
            full, scale, parts, read = self._gen_data(st)
        with Clock() as t_hpsm:
            spatial, beams = [], []
            for d in draws:
                h = channel.hpsm_channel(d["paths"], d["geometry"])
                beams.append(beamspace.to_beamspace(h, st["rx_dict"], st["tx_dict"]).entries)
                spatial.append(h.entries)
        with Clock() as t_eval:
            hb = np.stack(beams) / scale
            row = {c.tobytes(): i for i, c in enumerate(full.conditions)}
            for part, suffix in zip(parts, ("train", "test")):
                idx = [row[c.tobytes()] for c in part.conditions]
                gen = dataset.Dataset(
                    header=part.header,
                    conditions=part.conditions,
                    tensors=np.stack([hb[idx].real, hb[idx].imag], axis=1),
                )
                dataset.write_dataset(work / f"hpsm.{suffix}", gen)
                args = argparse.Namespace(
                    gen=str(work / f"hpsm.{suffix}"), ref=str(work / f"swm.{suffix}"),
                    metrics="ssim,angular,nmse", out_csv=str(work / f"eval.{suffix}.csv"),
                )
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.cmd_eval(args)
                out.counts["eval_pairs"] += len(part)
                out.check(f"eval {suffix} exits 0", status == 0)
        out.record("primary_ms", 1e3 * t_gen.seconds / n)
        out.record("secondary_ms", 1e3 * (t_hpsm.seconds + t_eval.seconds) / n)
        out.record("hpsm_ms", 1e3 * t_hpsm.seconds / n)
        out.record("eval_ms", 1e3 * t_eval.seconds / n)

        nmse_values = []
        for suffix in ("train", "test"):
            with open(work / f"eval.{suffix}.csv", newline="") as f:
                nmse_values += [float(r["value"]) for r in csv.DictReader(f)
                                if r["section"] == "nmse" and r["key"] == "pair"]
        out.check("eval scores every pair",
                  len(nmse_values) == n and bool(np.all(np.isfinite(nmse_values))))

        for d, h, b in zip(draws, spatial, beams):
            energy = abs(np.linalg.norm(b) - np.linalg.norm(h)) / np.linalg.norm(h)
            out.check("beamspace preserves energy to 1e-12", energy <= 1e-12)
            out.check("HPSM NMSE vs SWM is below PWM's",
                      evaluation.nmse(h, d["swm"]) < evaluation.nmse(d["pwm"], d["swm"]))
        for part, back in zip(parts, read):
            out.check("dataset file reads back what was written", np.array_equal(
                back.tensors, part.tensors.astype("<f4").astype(float)))
        written = b"".join((work / f"swm.{s}").read_bytes() for s in ("train", "test"))
        if st["first"] is None:
            st["first"] = written
        else:
            out.check("gen-data output is byte-identical on re-run", written == st["first"])


WORKLOADS = {w.name: w for w in (TrainWorkload(), SampleWorkload(), SynthWorkload())}
