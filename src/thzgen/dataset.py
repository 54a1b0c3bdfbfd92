"""Dataset construction, normalization, position-disjoint splitting, and file IO.

``SamplingRegion`` and ``DatasetHeader`` check themselves when built;
``read_dataset`` names the file in any fault of its header or length.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .beamspace import dictionaries_for, to_beamspace
from .channel import swm_channel
from .errors import DegenerateGeometryError, InsufficientDataError
from .geometry import CONDITION_DIM, ArrayGeometry, condition_vector
from .paths import GscmConfig, draw_paths

MAGIC = b"THZC"
VERSION = 1
_HEADER_FMT = "<4sI5IQdQ"  # magic, version, Nr, Nt, Kr, Kt, cond_dim, count, scalar, seed


@dataclass(frozen=True)
class SamplingRegion:
    """Axis-aligned box of Rx positions (absolute coordinates, meters)."""

    low: tuple[float, float, float]
    high: tuple[float, float, float]

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        # A flat axis (low == high) is allowed; a single point is not.
        if not np.all(low <= high) or np.all(low == high):
            raise ValueError(f"degenerate sampling region: low={low}, high={high}")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(np.asarray(self.low), np.asarray(self.high))


@dataclass(frozen=True)
class DatasetHeader:
    n_rx: int
    n_tx: int
    k_rx: int
    k_tx: int
    sample_count: int
    normalization_scalar: float = 1.0
    master_seed: int = 0
    condition_dim: int = CONDITION_DIM

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        scale = self.normalization_scalar
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"normalization_scalar must be a finite number > 0, got {scale}")


@dataclass
class Dataset:
    """In-memory dataset: stacked conditions (n, 8) and tensors (n, 2, Nr, Nt)."""

    header: DatasetHeader
    conditions: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        n = self.header.sample_count
        if self.conditions.shape != (n, self.header.condition_dim):
            raise ValueError(
                f"conditions shape {self.conditions.shape} inconsistent with header"
            )
        if self.tensors.shape != (n, 2, self.header.n_rx, self.header.n_tx):
            raise ValueError(
                f"tensors shape {self.tensors.shape} inconsistent with header"
            )

    def __len__(self) -> int:
        return self.header.sample_count

    def complex_matrices(self) -> np.ndarray:
        """(n, Nr, Nt) complex view of the stacked real/imag tensors."""
        return self.tensors[:, 0] + 1j * self.tensors[:, 1]


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-sample stream; output is invariant to worker layout."""
    return np.random.default_rng([master_seed, index])


def build_dataset(
    master_seed: int,
    geometry: ArrayGeometry,
    gscm: GscmConfig,
    region: SamplingRegion,
    n: int,
) -> Dataset:
    """Synthesize n beamspace channel samples at uniform Rx positions.

    Ground truth is the exact spherical-wave channel, transformed with the
    subarray beam dictionaries and stacked as a real/imag tensor.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rx_dict, tx_dict = dictionaries_for(geometry)

    conditions = np.empty((n, CONDITION_DIM))
    tensors = np.empty((n, 2, geometry.n_rx, geometry.n_tx))
    for i in range(n):
        rng = sample_rng(master_seed, i)
        pos = region.draw(rng)
        geom_i = geometry.with_rx_origin(pos)
        try:
            paths = draw_paths(rng, gscm, geom_i)
            h = swm_channel(paths, geom_i)
        except DegenerateGeometryError as exc:
            raise DegenerateGeometryError(f"sample {i}: {exc}") from exc
        hb = to_beamspace(h, rx_dict, tx_dict).entries
        tensors[i, 0] = hb.real
        tensors[i, 1] = hb.imag
        conditions[i] = condition_vector(geometry.tx_origin, pos).p

    header = DatasetHeader(
        n_rx=geometry.n_rx,
        n_tx=geometry.n_tx,
        k_rx=geometry.k_rx,
        k_tx=geometry.k_tx,
        sample_count=n,
        master_seed=master_seed,
    )
    return Dataset(header=header, conditions=conditions, tensors=tensors)


def normalize(dataset: Dataset) -> tuple[Dataset, float]:
    """Scale all tensors by one global scalar so the mean per-entry RMS is 1.

    The scalar composes with any previous normalization in the header so
    multiplying by the stored value always recovers physical units.
    """
    norms = np.linalg.norm(dataset.tensors.reshape(len(dataset), -1), axis=1)
    n_entries = dataset.tensors[0].size
    s = float(norms.mean() / np.sqrt(n_entries))
    if s == 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    header = replace(
        dataset.header,
        normalization_scalar=dataset.header.normalization_scalar * s,
    )
    return (
        Dataset(header=header, conditions=dataset.conditions, tensors=dataset.tensors / s),
        s,
    )


def position_cell(offset: np.ndarray, cell_size: float) -> tuple[int, int, int]:
    return tuple(np.floor(np.asarray(offset) / cell_size).astype(int))


def split(
    dataset: Dataset, test_fraction: float, cell_size: float = 0.5
) -> tuple[Dataset, Dataset]:
    """Position-disjoint train/test split.

    Rx positions are hashed into cubic cells and whole cells are assigned
    to one side, so no test-position cell ever appears in training.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if not 0.0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be a finite number > 0, got {cell_size}")
    n = len(dataset)
    cells: dict[tuple, list[int]] = {}
    for i in range(n):
        cells.setdefault(
            position_cell(dataset.conditions[i, 1:4], cell_size), []
        ).append(i)

    rng = np.random.default_rng([dataset.header.master_seed, 0x5B117])
    order = sorted(cells.keys())
    rng.shuffle(order)

    target = test_fraction * n
    test_idx: list[int] = []
    for cell in order:
        if len(test_idx) >= target:
            break
        test_idx.extend(cells[cell])
    achieved = len(test_idx) / n
    if abs(achieved - test_fraction) > 0.02:
        raise InsufficientDataError(
            f"position cells too coarse for a {test_fraction:.0%} split "
            f"(achieved {achieved:.1%}); add samples or shrink cell_size"
        )
    test_set = set(test_idx)
    train_idx = [i for i in range(n) if i not in test_set]
    test_idx = sorted(test_idx)

    def subset(idx):
        return Dataset(
            header=replace(dataset.header, sample_count=len(idx)),
            conditions=dataset.conditions[idx],
            tensors=dataset.tensors[idx],
        )

    return subset(train_idx), subset(test_idx)


def write_dataset(path, dataset: Dataset) -> None:
    header = dataset.header
    n = header.sample_count
    record = np.empty(
        (n, header.condition_dim + 2 * header.n_rx * header.n_tx), dtype="<f4"
    )
    record[:, : header.condition_dim] = dataset.conditions
    record[:, header.condition_dim :] = dataset.tensors.reshape(n, -1)
    with open(path, "wb") as f:
        f.write(
            struct.pack(
                _HEADER_FMT,
                MAGIC,
                VERSION,
                header.n_rx,
                header.n_tx,
                header.k_rx,
                header.k_tx,
                header.condition_dim,
                n,
                header.normalization_scalar,
                header.master_seed,
            )
        )
        record.tofile(f)


def read_dataset(path) -> Dataset:
    """Read a dataset file; a bad header, or a length other than it declares, is fatal."""
    header_size = struct.calcsize(_HEADER_FMT)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < header_size:
            raise ValueError(
                f"dataset {path} is truncated: the header needs {header_size} "
                f"bytes, the file has {size}"
            )
        magic, version, n_rx, n_tx, k_rx, k_tx, cond_dim, count, scalar, seed = (
            struct.unpack(_HEADER_FMT, f.read(header_size))
        )
        if magic != MAGIC:
            raise ValueError(f"{path} is not a dataset file: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"dataset {path} has unsupported version {version}")
        record_len = cond_dim + 2 * n_rx * n_tx
        expected = header_size + 4 * count * record_len
        if size != expected:
            raise ValueError(
                f"dataset {path} has {size} bytes, but its header declares "
                f"{count} records of {4 * record_len} bytes, {expected} bytes in all"
            )
        try:
            header = DatasetHeader(
                n_rx=n_rx, n_tx=n_tx, k_rx=k_rx, k_tx=k_tx, sample_count=count,
                normalization_scalar=scalar, master_seed=seed, condition_dim=cond_dim,
            )
        except ValueError as exc:
            raise ValueError(f"dataset {path} has an invalid header: {exc}") from exc
        record = np.fromfile(f, dtype="<f4", count=count * record_len).reshape(
            count, record_len
        )
    conditions = record[:, :cond_dim].astype(float)
    tensors = record[:, cond_dim:].astype(float).reshape(count, 2, n_rx, n_tx)
    return Dataset(header=header, conditions=conditions, tensors=tensors)
