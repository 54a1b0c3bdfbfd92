"""Binary checkpoint format for the DiT denoiser.

Layout (version 3), all little-endian:

- magic "THZW", u32 version, u32 JSON length, then JSON metadata with
  exactly the sections "config" (the DitConfig), "meta" (the
  CheckpointMeta, dataset bookkeeping needed for sampling) and "schedule"
  (the DiffusionSchedule the model was trained with, which sampling
  reuses).  Each section is built through its dataclass, which checks its
  values, so bad metadata fails as a ValueError naming the file;
- u64 step and u64 n, the parameter count of each group;
- four n-element f8 vectors, each laid out by ``param_shapes(config)``:
  params, ema_params, adam_m, adam_v.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .diffusion import DiffusionSchedule
from .dit import DitConfig, DitDenoiser, FlatParams, param_shapes

MAGIC = b"THZW"
# Versions 1 (erf GELU) and 2 (tanh GELU) stored one f4 record per tensor.
VERSION = 3
_HEAD = struct.Struct("<4sII")  # magic, version, JSON length
_COUNTS = struct.Struct("<QQ")  # step, parameters per group
_GROUPS = ("params", "ema_params", "adam_m", "adam_v")


def _is_finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class CheckpointMeta:
    """Dataset-side bookkeeping carried along with the weights."""

    normalization_scalar: float = 1.0
    k_rx: int = 1
    k_tx: int = 1
    master_seed: int = 0
    tx_origin: tuple = (0.0, 0.0, 0.0)
    geometry: dict = field(default_factory=dict)

    def __post_init__(self):
        scale = self.normalization_scalar
        if not (_is_finite_number(scale) and scale > 0):
            raise ValueError(
                f"normalization_scalar must be a finite number > 0, got {scale!r}")
        for name in ("k_rx", "k_tx"):
            k = getattr(self, name)
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {k!r}")
        try:
            origin = tuple(self.tx_origin)
        except TypeError:
            origin = ()
        if len(origin) != 3 or not all(map(_is_finite_number, origin)):
            raise ValueError(f"tx_origin must be 3 finite numbers, got {self.tx_origin!r}")
        self.tx_origin = origin


@dataclass
class Checkpoint:
    config: DitConfig
    params: dict
    ema_params: dict
    adam_m: dict
    adam_v: dict
    step: int
    meta: CheckpointMeta
    schedule: DiffusionSchedule = field(default_factory=DiffusionSchedule)


def _metadata_section(path, cls, name: str, values):
    """Build ``cls`` from one metadata section; any fault names the file."""
    if not isinstance(values, dict):
        raise ValueError(f"checkpoint {path}: metadata {name!r} must be a JSON object")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"checkpoint {path}: metadata {name!r} has unknown keys {unknown}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: metadata {name!r} is invalid: {exc}") from exc


_SECTIONS = {"config": DitConfig, "meta": CheckpointMeta, "schedule": DiffusionSchedule}


def _decode_metadata(path, blob: bytes) -> dict:
    try:
        meta_json = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta_json, dict):
        raise ValueError(f"checkpoint {path}: metadata must be a JSON object")
    if set(meta_json) != set(_SECTIONS):
        raise ValueError(
            f"checkpoint {path}: metadata must hold exactly the keys "
            f"{sorted(_SECTIONS)}, it has {sorted(meta_json)}"
        )
    return {
        name: _metadata_section(path, cls, name, meta_json[name])
        for name, cls in _SECTIONS.items()
    }


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt``; a group whose names or shapes miss the config is fatal.

    Every group is checked before the file is opened.
    """
    shapes = param_shapes(ckpt.config)
    vectors = [
        FlatParams.copy_of(shapes, getattr(ckpt, name), f"checkpoint {path} group {name!r}")
        .vector
        for name in _GROUPS
    ]
    meta = {name: asdict(getattr(ckpt, name)) for name in _SECTIONS}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MAGIC, VERSION, len(blob)))
        f.write(blob)
        f.write(_COUNTS.pack(ckpt.step, vectors[0].size))
        for vector in vectors:
            vector.astype("<f8", copy=False).tofile(f)


def _require(path, needed: int, size: int) -> None:
    if size < needed:
        raise ValueError(
            f"checkpoint {path} is truncated: its layout needs at least {needed} "
            f"bytes, the file has {size}"
        )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file shorter or longer than its layout is fatal.

    The file size is checked against the layout the header declares before
    the metadata is decoded or any vector is read.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        _require(path, _HEAD.size, size)
        magic, version, blob_len = _HEAD.unpack(f.read(_HEAD.size))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a checkpoint file: bad magic")
        if version in (1, 2):
            raise ValueError(
                f"checkpoint {path} has version {version}, which stores float32 "
                f"weights per tensor; this reader takes version {VERSION} only, "
                f"so retrain the model"
            )
        if version != VERSION:
            raise ValueError(f"checkpoint {path} has unsupported version {version}")
        vectors_at = _HEAD.size + blob_len + _COUNTS.size
        _require(path, vectors_at, size)
        blob = f.read(blob_len)
        step, n = _COUNTS.unpack(f.read(_COUNTS.size))
        end = vectors_at + 8 * len(_GROUPS) * n
        _require(path, end, size)
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


def ema_denoiser(ckpt: Checkpoint) -> DitDenoiser:
    return DitDenoiser(ckpt.config, params=ckpt.ema_params)
