"""Binary checkpoint format for the DiT denoiser.

Layout: magic "THZW", u32 version, u32 JSON length + JSON metadata (the
DitConfig plus dataset bookkeeping needed for sampling), u32 record count,
then (u32 name length, name, u32 rank, rank x u64 shape, f32 data)
records for raw weights, EMA weights, Adam moments, and the step counter.
All integers and floats little-endian.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dit import DitConfig, DitDenoiser, FlatParams, param_shapes

MAGIC = b"THZW"
VERSION = 1


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
        self.tx_origin = tuple(self.tx_origin)


@dataclass
class Checkpoint:
    config: DitConfig
    params: dict
    ema_params: dict
    adam_m: dict
    adam_v: dict
    step: int
    meta: CheckpointMeta


def _write_record(f, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    shape = array.shape
    f.write(struct.pack("<I", len(shape)))
    for dim in shape:
        f.write(struct.pack("<Q", dim))
    np.ascontiguousarray(array, dtype="<f4").tofile(f)


class _Layout:
    """Bounds-checked cursor over the bytes of a checkpoint file."""

    def __init__(self, path, buf: bytes):
        self.path = path
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise ValueError(
                f"checkpoint {self.path} is truncated: its layout needs at least "
                f"{end} bytes, the file has {len(self.buf)}"
            )
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def record(self):
        """(name, shape, raw little-endian f32 bytes) of the next record."""
        (name_len,) = self.unpack("<I")
        name = self.take(name_len).decode("utf-8")
        (rank,) = self.unpack("<I")
        shape = self.unpack(f"<{rank}Q")
        return name, shape, self.take(4 * math.prod(shape))


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


def _decode_metadata(path, blob: bytes) -> tuple[DitConfig, CheckpointMeta]:
    try:
        meta_json = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta_json, dict):
        raise ValueError(f"checkpoint {path}: metadata must be a JSON object")
    if set(meta_json) != {"config", "meta"}:
        raise ValueError(
            f"checkpoint {path}: metadata must hold exactly the keys "
            f"['config', 'meta'], it has {sorted(meta_json)}"
        )
    return (
        _metadata_section(path, DitConfig, "config", meta_json["config"]),
        _metadata_section(path, CheckpointMeta, "meta", meta_json["meta"]),
    )


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    meta = {"config": asdict(ckpt.config), "meta": asdict(ckpt.meta)}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    records = []
    for prefix, tensors in (
        ("param/", ckpt.params),
        ("ema/", ckpt.ema_params),
        ("adam_m/", ckpt.adam_m),
        ("adam_v/", ckpt.adam_v),
    ):
        for name in sorted(tensors):
            records.append((prefix + name, np.asarray(tensors[name])))
    records.append(("step", np.array([ckpt.step], dtype=float)))

    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(records)))
        for name, array in records:
            _write_record(f, name, array)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file shorter or longer than its layout is fatal.

    The whole record layout is walked and checked against the file length
    before any metadata or tensor is decoded.
    """
    with open(path, "rb") as f:
        layout = _Layout(path, f.read())
    if layout.take(4) != MAGIC:
        raise ValueError(f"{path} is not a checkpoint file: bad magic")
    (version,) = layout.unpack("<I")
    if version != VERSION:
        raise ValueError(f"checkpoint {path} has unsupported version {version}")
    (blob_len,) = layout.unpack("<I")
    blob = layout.take(blob_len)
    (n_records,) = layout.unpack("<I")
    raw = [layout.record() for _ in range(n_records)]
    if layout.pos != len(layout.buf):
        raise ValueError(
            f"checkpoint {path} has {len(layout.buf)} bytes, but its layout "
            f"ends at {layout.pos}: {len(layout.buf) - layout.pos} trailing bytes"
        )

    config, meta = _decode_metadata(path, blob)
    groups = {"param/": {}, "ema/": {}, "adam_m/": {}, "adam_v/": {}}
    step = 0
    for name, shape, data in raw:
        values = np.frombuffer(data, dtype="<f4").reshape(shape)
        if name == "step":
            step = int(values[0])
            continue
        prefix, _, key = name.partition("/")
        if prefix + "/" not in groups:
            raise ValueError(f"checkpoint {path}: unknown record {name!r}")
        groups[prefix + "/"][key] = values
    shapes = param_shapes(config)
    params, ema, adam_m, adam_v = (
        FlatParams.copy_of(shapes, tensors, f"checkpoint {path} group {prefix!r}")
        for prefix, tensors in groups.items()
    )
    return Checkpoint(
        config=config,
        params=params,
        ema_params=ema,
        adam_m=adam_m,
        adam_v=adam_v,
        step=step,
        meta=meta,
    )


def ema_denoiser(ckpt: Checkpoint) -> DitDenoiser:
    return DitDenoiser(ckpt.config, params=ckpt.ema_params)
