"""Binary checkpoint format for the DiT denoiser.

Layout (version 6), all little-endian:

- magic "THZW", u32 version, u32 JSON length, then JSON metadata with
  exactly the sections "config" (the DitConfig), "meta" (the
  CheckpointMeta: the run's geometry keys and the dataset bookkeeping
  sampling needs), "schedule" (the DiffusionSchedule the model was trained
  with, which sampling reuses) and "curves" ([epoch, train_loss, test_loss]
  rows).  Each section is built by ``errors.build``, and the meta's antenna
  counts must be the config's, so bad metadata fails as a ValueError
  naming the file;
- u64 step and u64 n, the parameter count of each group;
- four n-element f8 vectors, each laid out by ``param_shapes(config)``:
  params, ema_params, adam_m, adam_v.

Older versions are refused: 1 and 2 stored one f4 record per tensor, 3 had no
curves, 4's config also held ``sigma_data`` and ``condition_dim``, now constants,
and 5's meta held the subarray counts and Tx origin beside a geometry object.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .diffusion import DiffusionSchedule
from .dit import DitConfig, DitDenoiser, FlatParams, param_shapes
from .errors import build, check_seed, check_size, decode_json, is_finite_number, is_integer
from .geometry import GeometryConfig

MAGIC = b"THZW"
VERSION = 6
_HEAD = struct.Struct("<4sII")  # magic, version, JSON length
_COUNTS = struct.Struct("<QQ")  # step, parameters per group
_GROUPS = ("params", "ema_params", "adam_m", "adam_v")


@dataclass(frozen=True)
class CheckpointMeta(GeometryConfig):
    """The run's geometry, and the dataset bookkeeping carried with the weights."""

    normalization_scalar: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        scale = self.normalization_scalar
        if not (is_finite_number(scale) and scale > 0):
            raise ValueError(
                f"normalization_scalar must be a finite number > 0, got {scale!r}")
        check_seed("master_seed", self.master_seed)


@dataclass
class Checkpoint:
    """One training run's state: what ``train`` advances and the file holds."""

    config: DitConfig
    params: dict
    ema_params: dict
    adam_m: dict
    adam_v: dict
    step: int
    meta: CheckpointMeta = field(default_factory=CheckpointMeta)
    schedule: DiffusionSchedule = field(default_factory=DiffusionSchedule)
    curves: list = field(default_factory=list)  # (epoch, train_loss, test_loss)

    @property
    def model(self) -> DitDenoiser:
        """A denoiser holding a copy of the trained (not the EMA) weights."""
        return DitDenoiser(self.config, params=self.params)


_SECTIONS = {"config": DitConfig, "meta": CheckpointMeta, "schedule": DiffusionSchedule}


def _checked_curves(path, curves) -> list:
    """The curves as ``(epoch, train_loss, test_loss)`` tuples, or a ValueError."""
    fault = f"checkpoint {path}: metadata 'curves'"
    if not isinstance(curves, (list, tuple)):
        raise ValueError(f"{fault} must be a list of rows, got {type(curves).__name__}")
    for i, row in enumerate(curves):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ValueError(
                f"{fault} row {i} must be [epoch, train_loss, test_loss], got {row!r}")
        if not is_integer(row[0]):
            raise ValueError(f"{fault} row {i} has a non-integer epoch {row[0]!r}")
        if not all(map(is_finite_number, row[1:])):
            raise ValueError(f"{fault} row {i} has a non-finite loss in {row[1:]!r}")
    return [(int(epoch), float(train), float(test)) for epoch, train, test in curves]


def _check_arrays(path, config: DitConfig, meta: CheckpointMeta) -> None:
    """Refuse a meta whose antenna counts are not the config's."""
    if (meta.n_rx, meta.n_tx) != (config.n_rx, config.n_tx):
        raise ValueError(
            f"checkpoint {path}: metadata 'meta' does not fit 'config': "
            f"arrays {meta.n_rx}x{meta.n_tx} in 'meta', {config.n_rx}x{config.n_tx} in 'config'")


def _decode_metadata(path, blob: bytes) -> dict:
    meta_json = decode_json(blob, f"checkpoint {path}: metadata")
    if not isinstance(meta_json, dict):
        raise ValueError(f"checkpoint {path}: metadata must be a JSON object")
    if set(meta_json) != {*_SECTIONS, "curves"}:
        raise ValueError(
            f"checkpoint {path}: metadata must hold exactly the keys "
            f"{sorted([*_SECTIONS, 'curves'])}, it has {sorted(meta_json)}"
        )
    sections = {
        name: build(cls, meta_json[name], f"checkpoint {path}: metadata {name!r}")
        for name, cls in _SECTIONS.items()
    }
    _check_arrays(path, sections["config"], sections["meta"])
    return {**sections, "curves": _checked_curves(path, meta_json["curves"])}


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt``; a group whose names or shapes miss the config is fatal.

    Every group, the curves and the meta's antenna counts are checked
    before the file is opened.
    """
    shapes = param_shapes(ckpt.config)
    vectors = [
        FlatParams.copy_of(shapes, getattr(ckpt, name), f"checkpoint {path} group {name!r}")
        .vector
        for name in _GROUPS
    ]
    meta = {name: asdict(getattr(ckpt, name)) for name in _SECTIONS}
    meta["curves"] = _checked_curves(path, ckpt.curves)
    _check_arrays(path, ckpt.config, ckpt.meta)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MAGIC, VERSION, len(blob)))
        f.write(blob)
        f.write(_COUNTS.pack(ckpt.step, vectors[0].size))
        for vector in vectors:
            vector.astype("<f8", copy=False).tofile(f)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file shorter or longer than its layout is fatal.

    The file size is checked against the layout the header declares before
    the metadata is decoded or any vector is read.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        check_size(f"checkpoint {path}", _HEAD.size, size)
        magic, version, blob_len = _HEAD.unpack(f.read(_HEAD.size))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a checkpoint file: bad magic")
        if 0 < version < VERSION:
            raise ValueError(
                f"checkpoint {path} has version {version}, an older layout; this "
                f"reader takes version {VERSION} only, so retrain the model"
            )
        if version != VERSION:
            raise ValueError(f"checkpoint {path} has unsupported version {version}")
        vectors_at = _HEAD.size + blob_len + _COUNTS.size
        check_size(f"checkpoint {path}", vectors_at, size)
        blob = f.read(blob_len)
        step, n = _COUNTS.unpack(f.read(_COUNTS.size))
        end = vectors_at + 8 * len(_GROUPS) * n
        check_size(f"checkpoint {path}", end, size)
        if size > end:
            raise ValueError(
                f"checkpoint {path} has {size} bytes, but its layout ends at "
                f"{end}: {size - end} trailing bytes"
            )

        sections = _decode_metadata(path, blob)
        shapes = param_shapes(sections["config"])
        want = sum(math.prod(shape) for shape in shapes.values())
        if n != want:
            raise ValueError(
                f"checkpoint {path} declares {n} parameters per group, but its "
                f"config's layout has {want}"
            )
        groups = {
            name: FlatParams(shapes, np.fromfile(f, dtype="<f8", count=n))
            for name in _GROUPS
        }
    return Checkpoint(step=step, **groups, **sections)


# The dtype sampling and the test loss run the network in; the weights are
# cast to it once, when the denoiser is built.
INFERENCE_DTYPE = np.dtype(np.float32)


def ema_denoiser(ckpt: Checkpoint) -> DitDenoiser:
    """An inference denoiser holding the EMA weights in ``INFERENCE_DTYPE``."""
    return DitDenoiser(ckpt.config, params=ckpt.ema_params, dtype=INFERENCE_DTYPE)
