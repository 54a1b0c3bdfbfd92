"""Command-line interface: gen-data, train, sample, eval.

``load_config`` builds every section of a JSON config at once, each a
dataclass that holds its own defaults and checks itself when built, so a
bad value in any section fails every command before it does any work.
All randomness flows from the declared seeds, so every command is
reproducible bit-for-bit.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .checkpoint import (
    INFERENCE_DTYPE,
    Checkpoint,
    CheckpointMeta,
    ema_denoiser,
    load_checkpoint,
    save_checkpoint,
)
from .dataset import (
    Dataset,
    DatasetConfig,
    SamplingRegion,
    build_dataset,
    lane_count as dataset_lanes,
    normalize,
    read_dataset,
    split,
    write_dataset,
)
from .diffusion import DiffusionSchedule, euler_sample
from .dit import DitConfig
from .dit import lane_count as dit_lanes
from .errors import NumericError, build, check_keys, check_seed, decode_json
from .evaluation import angular_power, compare_power, nmse, ssim_complex
from .geometry import GeometryConfig, check_position, condition_vector
from .paths import GscmConfig
from .training import TrainConfig, train


@dataclass
class RunConfig:
    """A run's seed and config sections; each field is a top-level key."""

    seed: int
    geometry: GeometryConfig
    gscm: GscmConfig
    region: SamplingRegion
    dataset: DatasetConfig
    dit: DitConfig
    schedule: DiffusionSchedule
    training: TrainConfig


def load_config(path: str | None) -> RunConfig:
    """The config in the JSON file at ``path``; ``None`` takes every default.

    Each section is built by ``errors.build``, so an unknown key or a value
    the section's dataclass refuses is one ValueError naming the section.
    DitConfig's antenna counts come from the geometry and TrainConfig's seed
    from the top-level seed, so neither is a key of its section.
    """
    data = {}
    if path is not None:
        with open(path, "rb") as f:
            data = decode_json(f.read(), f"config {path}")
    check_keys("config", data, {f.name for f in fields(RunConfig)})
    seed = data.get("seed", 0)
    check_seed("config key seed", seed)

    def section(name, cls, **fixed):
        return build(cls, data.get(name, {}), f"config section {name!r}", **fixed)

    geometry = section("geometry", GeometryConfig)
    return RunConfig(
        seed=seed,
        geometry=geometry,
        gscm=section("gscm", GscmConfig),
        region=section("region", SamplingRegion),
        dataset=section("dataset", DatasetConfig),
        dit=section("dit", DitConfig, n_rx=geometry.n_rx, n_tx=geometry.n_tx),
        schedule=section("schedule", DiffusionSchedule),
        training=section("training", TrainConfig, seed=seed),
    )


def _print_header(label: str, dataset: Dataset) -> None:
    header = dataset.header
    print(
        f"{label}: {len(dataset)} samples, "
        f"{header.n_rx}x{header.n_tx} (subarrays {header.k_rx}x{header.k_tx}), "
        f"scale {header.normalization_scalar:.6g}, seed {header.master_seed}"
    )


def _require_same(cls, a, a_source: str, b, b_source: str) -> None:
    """Refuse the first field of ``cls`` on which records ``a`` and ``b`` differ,
    naming it, both sources and both values."""
    for f in fields(cls):
        got, want = getattr(a, f.name), getattr(b, f.name)
        if got != want:
            raise ValueError(
                f"{a_source} has {f.name}={got}, but {b_source} has {f.name}={want}")


def _threads(lanes: int, kind: str = "") -> str:
    return f"{lanes} {kind}thread{'s' if lanes > 1 else ''}"


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        check_seed("--seed", args.seed)
    seed = cfg.seed if args.seed is None else args.seed
    count = cfg.dataset.count if args.count is None else args.count
    # The base layout has the Rx at the region's center; each sample moves it.
    center = (np.asarray(cfg.region.low) + np.asarray(cfg.region.high)) / 2.0
    geometry = cfg.geometry.at(center)
    start = time.perf_counter()
    dataset = build_dataset(seed, geometry, cfg.gscm, cfg.region, count)
    elapsed = time.perf_counter() - start
    dataset, _ = normalize(dataset)
    train_set, test_set = split(dataset, cfg.dataset.test_fraction, cfg.dataset.cell_size)
    write_dataset(args.out + ".train", train_set)
    write_dataset(args.out + ".test", test_set)
    _print_header("train", train_set)
    _print_header("test", test_set)
    print(
        f"synthesized {count} samples in {1e3 * elapsed:.1f} ms "
        f"({count / elapsed:.1f} samples/s on {_threads(dataset_lanes(geometry, count))})"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_path, test_path = args.data + ".train", args.data + ".test"
    train_set = read_dataset(train_path)
    test_set = read_dataset(test_path)
    # The checkpoint records the data's run, so the config must describe it,
    # and both files must come from one gen-data run.
    _require_same(GeometryConfig, cfg.geometry, "config section 'geometry'",
                  train_set.header, f"dataset {train_path}")
    _require_same(CheckpointMeta, test_set.header, f"dataset {test_path}",
                  train_set.header, f"dataset {train_path}")

    def progress(epoch, train_loss, test_loss):
        print(f"epoch {epoch}: train {train_loss:.5f} test {test_loss:.5f}")

    start = time.perf_counter()
    state = train(train_set, test_set, cfg.dit, cfg.schedule, cfg.training, progress)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    print(
        f"trained {state.step} steps in {elapsed_ms:.1f} ms "
        f"({elapsed_ms / state.step:.2f} ms/step, float32 step on float64 weights)"
    )
    save_checkpoint(args.out_ckpt, state)
    csv_path = args.out_csv or args.out_ckpt + ".csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "test_loss"])
        for epoch, train_loss, test_loss in state.curves:
            writer.writerow([epoch, f"{train_loss:.10g}", f"{test_loss:.10g}"])
    print(f"wrote {args.out_ckpt} and {csv_path}")
    return 0


def sample_channels(
    ckpt: Checkpoint,
    position,
    num: int,
    seed: int,
    schedule: DiffusionSchedule | None = None,
) -> Dataset:
    """Generate de-normalized beamspace samples at one Rx position.

    ``schedule`` defaults to the one the checkpoint was trained with.
    """
    if num < 1:
        raise ValueError(f"sample count (--num) must be >= 1, got {num}")
    check_seed("seed", seed)
    cond = condition_vector(ckpt.meta.tx_origin, position)
    denoiser = ema_denoiser(ckpt)
    schedule = ckpt.schedule if schedule is None else schedule
    rng = np.random.default_rng(seed)
    shape = (num, 2, ckpt.config.n_rx, ckpt.config.n_tx)
    samples = euler_sample(denoiser, cond, schedule, rng, shape)
    samples = samples * ckpt.meta.normalization_scalar
    conditions = np.broadcast_to(cond, (num, len(cond))).copy()
    return Dataset(header=replace(ckpt.meta, master_seed=seed), conditions=conditions,
                   tensors=samples)


def cmd_sample(args) -> int:
    check_seed("--seed", args.seed)
    try:
        position = [float(v) for v in args.pos.split(",")]
    except ValueError:
        position = args.pos
    position = check_position("--pos", position)
    ckpt = load_checkpoint(args.ckpt)
    start = time.perf_counter()
    dataset = sample_channels(ckpt, position, args.num, args.seed)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    write_dataset(args.out, dataset)
    _print_header("generated", dataset)
    nfe = ckpt.schedule.n_steps  # one denoiser call per Euler step
    print(
        f"sampler: {nfe} denoiser calls (NFE) at batch {args.num}, "
        f"{elapsed_ms / nfe:.1f} ms per call on "
        f"{_threads(dit_lanes(ckpt.config, args.num), 'inference ')} in {INFERENCE_DTYPE}"
    )
    return 0


_VALID_METRICS = ("ssim", "angular", "nmse")


def _pair_by_condition(gen: Dataset, ref: Dataset) -> list[tuple[int, int]]:
    """Each generated sample paired with the reference nearest in (x, y, z)."""
    gen_xyz = gen.conditions[:, 1:4]
    ref_xyz = ref.conditions[:, 1:4]
    pairs = []
    for i in range(len(gen)):
        j = int(np.argmin(np.linalg.norm(ref_xyz - gen_xyz[i], axis=1)))
        pairs.append((i, j))
    return pairs


def cmd_eval(args) -> int:
    metrics = args.metrics.split(",")
    invalid = [m for m in metrics if m not in _VALID_METRICS]
    if invalid:
        raise ValueError(
            f"unknown metrics {invalid}; valid choices: {list(_VALID_METRICS)}"
        )
    gen = read_dataset(args.gen)
    ref = read_dataset(args.ref)
    _require_same(GeometryConfig, gen.header, f"dataset {args.gen}",
                  ref.header, f"dataset {args.ref}")
    pairs = _pair_by_condition(gen, ref)
    gen_mats = gen.complex_matrices()
    ref_mats = ref.complex_matrices()

    start = time.perf_counter()
    rows: list[tuple] = []
    if "ssim" in metrics:
        per_pair = [ssim_complex(gen_mats[i], ref_mats[j]) for i, j in pairs]
        for idx, value in enumerate(per_pair):
            rows.append(("ssim", "pair", idx, value))
        # The empirical CDF, sorted values at ordinates (i + 1) / n; the mean is
        # summed in sorted order too.
        values = np.sort(per_pair)
        rows.append(("ssim", "mean", "", float(values.mean())))
        for idx, value in enumerate(values):
            rows.append(("ssim_cdf", "value", idx, value))
            rows.append(("ssim_cdf", "ordinate", idx, (idx + 1) / len(values)))
    if "angular" in metrics:
        gen_map = angular_power(gen_mats)
        ref_map = angular_power(ref_mats)
        comparison = compare_power(gen_map, ref_map)
        for label, profile in (
            ("gen_tx", gen_map.tx_profile),
            ("gen_rx", gen_map.rx_profile),
            ("ref_tx", ref_map.tx_profile),
            ("ref_rx", ref_map.rx_profile),
        ):
            for idx, value in enumerate(profile):
                rows.append(("angular", label, idx, value))
        for side, stats in (("tx", comparison.tx), ("rx", comparison.rx)):
            rows.append(("angular", f"tv_{side}", "", stats.tv_distance))
            rows.append(("angular", f"cosine_{side}", "", stats.cosine_similarity))
            rows.append(("angular", f"argmax_match_{side}", "", int(stats.argmax_match)))
    if "nmse" in metrics:
        values = [nmse(gen_mats[i], ref_mats[j]) for i, j in pairs]
        for idx, value in enumerate(values):
            rows.append(("nmse", "pair", idx, value))
        rows.append(("nmse", "mean", "", float(np.mean(values))))
    elapsed = time.perf_counter() - start

    with open(args.out_csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["section", "key", "index", "value"])
        writer.writerows(rows)
    print(f"wrote {args.out_csv} ({len(rows)} rows)")
    print(
        f"scored {len(pairs)} pairs in {1e3 * elapsed:.1f} ms "
        f"({len(pairs) / elapsed:.1f} pairs/s)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzgen",
        description="THz UM-MIMO channel dataset generation, diffusion training, "
        "sampling, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize and write train/test datasets")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--out", required=True, help="output prefix (.train/.test appended)")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the conditional denoiser")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True, help="dataset prefix from gen-data")
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate channels at a position")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pos", required=True, help="Rx position as x,y,z (meters)")
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="compare generated and reference datasets")
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metrics", default="ssim,angular,nmse")
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
