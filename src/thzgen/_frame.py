"""The one file layout of checkpoints and datasets.

A file is, all little-endian: a 4-byte magic, a u32 version, a u32 JSON
length, the metadata (one JSON object of named sections, keys sorted), then
the payload, arrays whose shapes the sections fix.  Each fault ``read``
finds is one ValueError naming the kind of file and its path.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, is_dataclass
from typing import Callable

import numpy as np

from .errors import build, decode_json

_HEAD = struct.Struct("<4sII")  # magic, version, JSON length


@dataclass(frozen=True)
class FileFormat:
    """One kind of file.  Each section is a config dataclass, built from a
    JSON object that names every field, or a ``check(where, value)`` that
    returns the value the section holds.  ``shapes`` gives the payload
    arrays' shapes from the built sections."""

    kind: str
    magic: bytes
    version: int
    remedy: str  # what to do with a file of an older version
    sections: dict
    dtype: str
    shapes: Callable[[dict], list]


def write(path, fmt: FileFormat, sections: dict, payload) -> None:
    """Write ``sections``, then each array of ``payload`` in order.

    Each section that is not a dataclass is checked before the file is opened.
    """
    doc = {name: asdict(sections[name]) if is_dataclass(spec)
           else spec(f"{fmt.kind} {path}: metadata {name!r}", sections[name])
           for name, spec in fmt.sections.items()}
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_HEAD.pack(fmt.magic, fmt.version, len(blob)))
        f.write(blob)
        for array in payload:
            array.astype(fmt.dtype, copy=False).tofile(f)


def read(path, fmt: FileFormat) -> tuple[dict, list]:
    """The built sections and the payload arrays of the ``fmt`` file at ``path``.

    The size is checked against the head, the metadata, then the payload the
    sections declare; bytes past that are trailing bytes.
    """
    where = f"{fmt.kind} {path}"

    def need(needed):
        if size < needed:
            raise ValueError(f"{where} is truncated: its layout needs at least {needed} "
                             f"bytes, the file has {size}")

    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        need(_HEAD.size)
        magic, version, blob_len = _HEAD.unpack(f.read(_HEAD.size))
        if magic != fmt.magic:
            raise ValueError(f"{path} is not a {fmt.kind} file: bad magic {magic!r}")
        if 0 < version < fmt.version:
            raise ValueError(f"{where} has version {version}, an older layout; this reader "
                             f"takes version {fmt.version} only, so {fmt.remedy}")
        if version != fmt.version:
            raise ValueError(f"{where} has unsupported version {version}")
        need(_HEAD.size + blob_len)
        doc = decode_json(f.read(blob_len), f"{where}: metadata")
        if not isinstance(doc, dict):
            raise ValueError(f"{where}: metadata must be a JSON object")
        if set(doc) != set(fmt.sections):
            raise ValueError(f"{where}: metadata must hold exactly the keys "
                             f"{sorted(fmt.sections)}, it has {sorted(doc)}")
        sections = {name: build(spec, doc[name], f"{where}: metadata {name!r}", complete=True)
                    if is_dataclass(spec) else spec(f"{where}: metadata {name!r}", doc[name])
                    for name, spec in fmt.sections.items()}
        shapes = fmt.shapes(sections)
        end = _HEAD.size + blob_len + np.dtype(fmt.dtype).itemsize * sum(map(math.prod, shapes))
        need(end)
        if size > end:
            raise ValueError(f"{where} has {size} bytes, but its layout ends at {end}: "
                             f"{size - end} trailing bytes")
        payload = [np.fromfile(f, dtype=fmt.dtype, count=math.prod(shape)).reshape(shape)
                   for shape in shapes]
    return sections, payload
