"""Dataset construction, normalization, position-disjoint splitting, and file IO.

A dataset's header is its run's ``CheckpointMeta``: the geometry that made
it, the normalization scalar and the seed, the record a checkpoint carries.

A dataset file is a ``_frame`` file, version 3, magic "THZC".  Its metadata
has exactly the sections "meta" (the header) and "count" (the number of
samples), and its payload is one f4 record per sample: its condition vector
and its real/imag tensor.  Version 1 packed a header of counts only, and
version 2 stored the count in a binary head; both are refused.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _frame, _lanes
from .beamspace import dictionaries_for, to_beamspace
from .channel import swm_channel
from .errors import (
    DegenerateGeometryError,
    InsufficientDataError,
    check_count,
    check_finite,
    check_seed,
    is_finite_number,
)
from .geometry import CONDITION_DIM, ArrayGeometry, CheckpointMeta, check_position, condition_vector
from .paths import GscmConfig, draw_paths


@dataclass(frozen=True)
class SamplingRegion:
    """Axis-aligned box of Rx positions (absolute coordinates, meters)."""

    low: tuple[float, float, float] = (4.0, -3.0, -0.5)
    high: tuple[float, float, float] = (10.0, 3.0, 0.5)

    def __post_init__(self):
        low = np.asarray(check_position("region low", self.low), dtype=float)
        high = np.asarray(check_position("region high", self.high), dtype=float)
        # A flat axis (low == high) is allowed; a single point is not.
        if not np.all(low <= high) or np.all(low == high):
            raise ValueError(f"degenerate sampling region: low={low}, high={high}")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(np.asarray(self.low), np.asarray(self.high))


def _check_split(test_fraction: float, cell_size: float) -> None:
    check_finite("test_fraction", test_fraction)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if not (is_finite_number(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be a finite number > 0, got {cell_size}")


@dataclass(frozen=True)
class DatasetConfig:
    """How many samples gen-data draws, and how ``split`` divides them."""

    count: int = 1000
    test_fraction: float = 0.1
    cell_size: float = 0.5

    def __post_init__(self):
        check_count("count", self.count)
        _check_split(self.test_fraction, self.cell_size)


@dataclass
class Dataset:
    """In-memory dataset: stacked conditions (n, 8) and tensors (n, 2, Nr, Nt)."""

    header: CheckpointMeta
    conditions: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        n = len(self.conditions)
        check_count("sample count", n)
        if self.conditions.shape != (n, CONDITION_DIM):
            raise ValueError(
                f"conditions shape {self.conditions.shape} inconsistent with header"
            )
        if self.tensors.shape != (n, 2, self.header.n_rx, self.header.n_tx):
            raise ValueError(
                f"tensors shape {self.tensors.shape} inconsistent with header"
            )

    def __len__(self) -> int:
        return len(self.conditions)

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
    subarray beam dictionaries and stacked as a real/imag tensor.  Each
    sample draws from its own stream (``sample_rng``) and fills its own rows,
    so the samples run on ``lane_count(geometry, n)`` lanes with the same
    bytes at any count; a failure names the lowest failing sample.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    check_seed("master_seed", master_seed)
    rx_dict, tx_dict = dictionaries_for(geometry)

    conditions = np.empty((n, CONDITION_DIM))
    tensors = np.empty((n, 2, geometry.n_rx, geometry.n_tx))

    def synthesize(i):
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
        conditions[i] = condition_vector(geometry.tx_origin, pos)

    _lanes.run(n, lane_count(geometry, n), synthesize)

    header = CheckpointMeta(**asdict(geometry.config), master_seed=master_seed)
    return Dataset(header=header, conditions=conditions, tensors=tensors)


# A sample's numpy work, in the float32 matmul flops that ``_lanes.ITEM_FLOPS``
# counts, per channel entry.  Most of it is the SWM's per-entry line-of-sight
# term (a distance, a complex exponential and a division); the scattered
# paths' rank-S product and the block beamspace transform add the rest.
# Measured on a 2-core x86_64 host with BLAS at one thread: past the 0.41 ms
# a sample's interpreter-bound part takes, each entry adds about 75 ns, and
# float32 matmuls ran at 100 GFLOP/s.  One lane against two, in samples/s
# (median of 15 alternating builds): 8x16 (k 2x2) 1831 and 1886, 32x64
# (k 4x4) 1643 and 1297, 64x128 (k 4x4) 952 and 1077, 64x256 (k 4x8) 599
# and 778; this estimate splits the last two.
ENTRY_FLOPS = 7_500


def lane_count(geometry: ArrayGeometry, n: int) -> int:
    """Threads ``build_dataset`` runs ``n`` samples of ``geometry`` on.

    A sample's work is taken as ``ENTRY_FLOPS`` per channel entry, so it
    grows with the channel as ``n_rx * n_tx`` does.
    """
    return _lanes.lane_count(n, ENTRY_FLOPS * geometry.n_rx * geometry.n_tx)


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
    _check_split(test_fraction, cell_size)
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
    if not train_idx:  # the test side holds at least one cell
        raise InsufficientDataError(
            f"a {test_fraction:.0%} split of {n} samples leaves the train side empty; "
            f"add samples or lower test_fraction"
        )
    test_idx = sorted(test_idx)

    def subset(idx):
        return Dataset(
            header=dataset.header,
            conditions=dataset.conditions[idx],
            tensors=dataset.tensors[idx],
        )

    return subset(train_idx), subset(test_idx)


FORMAT = _frame.FileFormat(
    kind="dataset", magic=b"THZC", version=3, remedy="regenerate it", dtype="<f4",
    sections={"meta": CheckpointMeta, "count": check_count},
    # One record per sample: its condition vector and its real/imag tensor.
    shapes=lambda s: [(s["count"], CONDITION_DIM + 2 * s["meta"].n_rx * s["meta"].n_tx)])


def write_dataset(path, dataset: Dataset) -> None:
    n = len(dataset)
    record = np.empty((n, CONDITION_DIM + dataset.tensors[0].size), dtype="<f4")
    record[:, :CONDITION_DIM] = dataset.conditions
    record[:, CONDITION_DIM:] = dataset.tensors.reshape(n, -1)
    _frame.write(path, FORMAT, {"meta": dataset.header, "count": n}, [record])


def read_dataset(path) -> Dataset:
    """Read a dataset file.

    A fault of its layout or metadata, or a NaN or Inf in any sample's
    condition or tensor, is fatal, naming the file.
    """
    sections, (record,) = _frame.read(path, FORMAT)
    header = sections["meta"]
    finite = np.isfinite(record).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: sample {int(np.argmin(finite))} holds a non-finite value")
    conditions = record[:, :CONDITION_DIM].astype(float)
    tensors = record[:, CONDITION_DIM:].astype(float).reshape(
        len(record), 2, header.n_rx, header.n_tx)
    return Dataset(header=header, conditions=conditions, tensors=tensors)
