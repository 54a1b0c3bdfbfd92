"""Command-line interface: gen-data, train, sample, eval.

A JSON config overlays defaults read from the config dataclasses, and
``load_config`` builds every section at once; each dataclass checks itself
when built, so a bad value in any section fails every command before it
does any work.  All randomness flows from the declared seeds, so every
command is reproducible bit-for-bit.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields

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
    DatasetHeader,
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
from .errors import NumericError, check_seed, is_finite_number
from .evaluation import angular_power, compare_power, nmse, ssim_complex
from .geometry import ArrayGeometry, condition_vector
from .paths import GscmConfig
from .training import TrainConfig, train

_CONFIG_DEFAULTS = {
    "seed": 0,
    "geometry": {
        "carrier_frequency": 0.3e12,
        "n_tx": 16,
        "n_rx": 8,
        "k_tx": 2,
        "k_rx": 2,
        "intra_spacing": None,
        "inter_spacing": None,
        "tx_origin": [0.0, 0.0, 0.0],
        "axis": [0.0, 1.0, 0.0],
    },
    "gscm": asdict(GscmConfig()),
    "region": {"low": [4.0, -3.0, -0.5], "high": [10.0, 3.0, 0.5]},
    "dataset": asdict(DatasetConfig()),
    # n_rx and n_tx come from the geometry.
    "dit": {f.name: f.default for f in fields(DitConfig) if f.name not in ("n_rx", "n_tx")},
    "schedule": asdict(DiffusionSchedule()),
    "training": {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_leaf(key: str, default, value) -> None:
    """A config value must have the JSON type of its default, and be finite.

    ``json.load`` accepts the NaN and Infinity literals and integers of any
    size; no config key takes them.
    """
    if isinstance(default, list):
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(map(_is_number, value)))
        want = f"a list of {len(default)} numbers"
    elif default is None:
        ok, want = value is None or _is_number(value), "a number or null"
    elif isinstance(default, int):
        ok, want = _is_number(value) and isinstance(value, int), "an integer"
    else:
        ok, want = _is_number(value), "a number"
    if not ok:
        raise ValueError(f"config key {key} must be {want}, got {json.dumps(value)}")
    items = value if isinstance(value, list) else [value]
    if not all(v is None or is_finite_number(v) for v in items):
        raise ValueError(f"config key {key} must be a finite number")


def _merge_strict(defaults, data, path=""):
    """Overlay data on defaults; an unknown key or a mistyped value is fatal."""
    if not isinstance(data, dict):
        raise ValueError(f"config section {path or '<root>'} must be an object")
    merged = {}
    for key, default in defaults.items():
        if key in data:
            value = data[key]
            if isinstance(default, dict) and default:
                value = _merge_strict(default, value, f"{path}{key}.")
            else:
                _check_leaf(path + key, default, value)
            merged[key] = value
        else:
            merged[key] = default
    for key in data:
        if key not in defaults:
            raise ValueError(f"unknown config key: {path}{key}")
    return merged


@dataclass
class RunConfig:
    seed: int
    geometry: ArrayGeometry
    geometry_raw: dict
    gscm: GscmConfig
    region: SamplingRegion
    dataset: DatasetConfig
    dit: DitConfig
    schedule: DiffusionSchedule
    training: TrainConfig


def load_config(path: str | None) -> RunConfig:
    data = {}
    if path is not None:
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    cfg = _merge_strict(_CONFIG_DEFAULTS, data)
    check_seed("config key seed", cfg["seed"], typed=True)

    g = cfg["geometry"]
    region = SamplingRegion(low=tuple(cfg["region"]["low"]), high=tuple(cfg["region"]["high"]))
    center = (np.asarray(region.low) + np.asarray(region.high)) / 2.0
    geometry = ArrayGeometry.uniform_linear(**g, rx_origin=center)
    return RunConfig(
        seed=cfg["seed"],
        geometry=geometry,
        geometry_raw=g,
        gscm=GscmConfig(**cfg["gscm"]),
        region=region,
        dataset=DatasetConfig(**cfg["dataset"]),
        dit=DitConfig(n_rx=geometry.n_rx, n_tx=geometry.n_tx, **cfg["dit"]),
        schedule=DiffusionSchedule(**cfg["schedule"]),
        training=TrainConfig(seed=cfg["seed"], **cfg["training"]),
    )


def _print_header(label: str, header: DatasetHeader) -> None:
    print(
        f"{label}: {header.sample_count} samples, "
        f"{header.n_rx}x{header.n_tx} (subarrays {header.k_rx}x{header.k_tx}), "
        f"scale {header.normalization_scalar:.6g}, seed {header.master_seed}"
    )


def _threads(lanes: int, kind: str = "") -> str:
    return f"{lanes} {kind}thread{'s' if lanes > 1 else ''}"


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        check_seed("--seed", args.seed, typed=True)
    seed = cfg.seed if args.seed is None else args.seed
    count = cfg.dataset.count if args.count is None else args.count
    start = time.perf_counter()
    dataset = build_dataset(seed, cfg.geometry, cfg.gscm, cfg.region, count)
    elapsed = time.perf_counter() - start
    dataset, _ = normalize(dataset)
    train_set, test_set = split(dataset, cfg.dataset.test_fraction, cfg.dataset.cell_size)
    write_dataset(args.out + ".train", train_set)
    write_dataset(args.out + ".test", test_set)
    _print_header("train", train_set.header)
    _print_header("test", test_set.header)
    print(
        f"synthesized {count} samples in {1e3 * elapsed:.1f} ms "
        f"({count / elapsed:.1f} samples/s on {_threads(dataset_lanes(cfg.geometry, count))})"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_path, test_path = args.data + ".train", args.data + ".test"
    train_set = read_dataset(train_path)
    test_set = read_dataset(test_path)
    header = train_set.header
    for name, got, want in (
        ("n_rx", header.n_rx, cfg.geometry.n_rx),
        ("n_tx", header.n_tx, cfg.geometry.n_tx),
    ):
        if got != want:
            raise ValueError(
                f"dataset {name}={got} does not match config {name}={want}"
            )
    # Both files must come from one gen-data run: same shape, scale and seed.
    for name in ("n_rx", "n_tx", "k_rx", "k_tx", "normalization_scalar", "master_seed"):
        got, want = getattr(test_set.header, name), getattr(header, name)
        if got != want:
            raise ValueError(
                f"dataset {test_path} has {name}={got}, but {train_path} has {name}={want}"
            )

    def progress(epoch, train_loss, test_loss):
        print(f"epoch {epoch}: train {train_loss:.5f} test {test_loss:.5f}")

    start = time.perf_counter()
    state = train(train_set, test_set, cfg.dit, cfg.schedule, cfg.training, progress)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    print(
        f"trained {state.step} steps in {elapsed_ms:.1f} ms "
        f"({elapsed_ms / state.step:.2f} ms/step, float32 step on float64 weights)"
    )
    state.meta = CheckpointMeta(
        normalization_scalar=header.normalization_scalar,
        k_rx=header.k_rx,
        k_tx=header.k_tx,
        master_seed=header.master_seed,
        tx_origin=tuple(cfg.geometry.tx_origin),
        geometry=cfg.geometry_raw,
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
    header = DatasetHeader(
        n_rx=ckpt.config.n_rx,
        n_tx=ckpt.config.n_tx,
        k_rx=ckpt.meta.k_rx,
        k_tx=ckpt.meta.k_tx,
        sample_count=num,
        normalization_scalar=ckpt.meta.normalization_scalar,
        master_seed=seed,
    )
    conditions = np.broadcast_to(cond, (num, len(cond))).copy()
    return Dataset(header=header, conditions=conditions, tensors=samples)


def cmd_sample(args) -> int:
    check_seed("--seed", args.seed, typed=True)
    ckpt = load_checkpoint(args.ckpt)
    try:
        position = tuple(float(v) for v in args.pos.split(","))
    except ValueError:
        position = ()
    if len(position) != 3 or not np.isfinite(position).all():
        raise ValueError(f"--pos expects finite x,y,z, got {args.pos!r}")
    start = time.perf_counter()
    dataset = sample_channels(ckpt, position, args.num, args.seed)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    write_dataset(args.out, dataset)
    _print_header("generated", dataset.header)
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
    if (gen.header.n_rx, gen.header.n_tx) != (ref.header.n_rx, ref.header.n_tx):
        raise ValueError(
            f"dimension mismatch: generated {gen.header.n_rx}x{gen.header.n_tx} "
            f"vs reference {ref.header.n_rx}x{ref.header.n_tx}"
        )
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
