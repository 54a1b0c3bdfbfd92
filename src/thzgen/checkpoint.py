"""Binary checkpoint format for the DiT denoiser.

A checkpoint is a ``_frame`` file, version 7, magic "THZW".  Its metadata has
exactly the sections "config" (the DitConfig), "meta" (the run's
CheckpointMeta: its geometry and the dataset bookkeeping sampling needs),
"schedule" (the DiffusionSchedule the model was trained with, which sampling
reuses), "curves" ([epoch, train_loss, test_loss] rows) and "step".  The
meta's antenna counts must be the config's.  The payload is four f8 vectors,
each laid out by ``param_shapes(config)``: params, ema_params, adam_m, adam_v.

Older versions are refused: 1 and 2 stored one f4 record per tensor, 3 had no
curves, 4's config also held ``sigma_data`` and ``condition_dim``, now
constants, 5's meta held the subarray counts and Tx origin beside a geometry
object, and 6 stored the step and the parameter count in a binary head.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _frame
from .diffusion import DiffusionSchedule
from .dit import DitConfig, DitDenoiser, FlatParams, param_shapes
from .errors import check_count, is_finite_number, is_integer
from .geometry import CheckpointMeta

_GROUPS = ("params", "ema_params", "adam_m", "adam_v")


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


def _checked_curves(where: str, curves) -> list:
    """The curves as ``(epoch, train_loss, test_loss)`` tuples, or a ValueError."""
    if not isinstance(curves, (list, tuple)):
        raise ValueError(f"{where} must be a list of rows, got {type(curves).__name__}")
    for i, row in enumerate(curves):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ValueError(
                f"{where} row {i} must be [epoch, train_loss, test_loss], got {row!r}")
        if not is_integer(row[0]):
            raise ValueError(f"{where} row {i} has a non-integer epoch {row[0]!r}")
        if not all(map(is_finite_number, row[1:])):
            raise ValueError(f"{where} row {i} has a non-finite loss in {row[1:]!r}")
    return [(int(epoch), float(train), float(test)) for epoch, train, test in curves]


def _check_arrays(path, config: DitConfig, meta: CheckpointMeta) -> None:
    """Refuse a meta whose antenna counts are not the config's."""
    if (meta.n_rx, meta.n_tx) != (config.n_rx, config.n_tx):
        raise ValueError(
            f"checkpoint {path}: metadata 'meta' does not fit 'config': "
            f"arrays {meta.n_rx}x{meta.n_tx} in 'meta', {config.n_rx}x{config.n_tx} in 'config'")


FORMAT = _frame.FileFormat(
    kind="checkpoint", magic=b"THZW", version=7, remedy="retrain the model", dtype="<f8",
    sections={"config": DitConfig, "meta": CheckpointMeta, "schedule": DiffusionSchedule,
              "curves": _checked_curves,
              "step": lambda where, step: check_count(where, step, minimum=0)},
    shapes=lambda s: [(sum(map(math.prod, param_shapes(s["config"]).values())),)] * len(_GROUPS))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt``; a group whose names or shapes miss the config is fatal.

    Every group, the curves, the step and the meta's antenna counts are
    checked before the file is opened.
    """
    shapes = param_shapes(ckpt.config)
    vectors = [
        FlatParams.copy_of(shapes, getattr(ckpt, name), f"checkpoint {path} group {name!r}")
        .vector
        for name in _GROUPS
    ]
    _check_arrays(path, ckpt.config, ckpt.meta)
    sections = {name: getattr(ckpt, name) for name in FORMAT.sections}
    _frame.write(path, FORMAT, sections, vectors)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any fault of its layout or metadata is fatal."""
    sections, vectors = _frame.read(path, FORMAT)
    _check_arrays(path, sections["config"], sections["meta"])
    shapes = param_shapes(sections["config"])
    groups = {name: FlatParams(shapes, vector) for name, vector in zip(_GROUPS, vectors)}
    return Checkpoint(**groups, **sections)


# The dtype sampling and the test loss run the network in; the weights are
# cast to it once, when the denoiser is built.
INFERENCE_DTYPE = np.dtype(np.float32)


def ema_denoiser(ckpt: Checkpoint) -> DitDenoiser:
    """An inference denoiser holding the EMA weights in ``INFERENCE_DTYPE``."""
    return DitDenoiser(ckpt.config, params=ckpt.ema_params, dtype=INFERENCE_DTYPE)
