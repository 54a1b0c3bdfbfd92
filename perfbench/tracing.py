"""In-memory span tracer that wraps thzgen's public functions from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces the
traced functions and methods on the ``thzgen`` modules (and every other
``thzgen`` module that imported them by name) with thin wrappers, and
``Tracer.uninstall`` puts the originals back.  A span records its name,
start, end, parent span and request id; spans stay in memory until the run
ends and ``write_jsonl`` saves them.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) pairs; "Class.method" patches the method on the class.
# The span name is "<module>.<function>" with the package and class dropped.
TARGETS = (
    ("paths", "draw_paths"),
    ("channel", "swm_channel"),
    ("channel", "hpsm_channel"),
    ("channel", "pwm_channel"),
    ("beamspace", "to_beamspace"),
    ("dataset", "build_dataset"),
    ("dataset", "normalize"),
    ("dataset", "split"),
    ("dataset", "write_dataset"),
    ("dataset", "read_dataset"),
    ("dit", "gelu"),
    ("dit", "dgelu"),
    ("dit", "layer_norm"),
    ("dit", "layer_norm_backward"),
    ("dit", "DitDenoiser.forward"),
    ("dit", "DitDenoiser.backward"),
    ("dit", "DitDenoiser.loss_and_grads"),
    ("dit", "DitDenoiser.evaluate"),
    ("diffusion", "euler_sample"),
    ("diffusion", "ema_update"),
    ("diffusion", "DiffusionSchedule.draw_sigma"),
    ("training", "train"),
    ("training", "adam_step"),
    ("training", "evaluate_loss"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("evaluation", "ssim_complex"),
    ("evaluation", "angular_power"),
    ("evaluation", "nmse"),
    ("cli", "sample_channels"),
    ("cli", "cmd_eval"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))

# A span of one of these opens a new request unless a request is already
# open: one training step, one test-loss pass, one sampler step, one drawn
# sample, one hybrid channel, one SSIM or NMSE evaluation of a pair.
REQUEST_ROOTS = frozenset({
    "dit.loss_and_grads",
    "training.evaluate_loss",
    "dit.evaluate",
    "paths.draw_paths",
    "channel.hpsm_channel",
    "evaluation.ssim_complex",
    "evaluation.nmse",
})


def _batch_of(array) -> int:
    shape = np.shape(array)
    return int(shape[0]) if len(shape) == 4 else 1


def _file_bytes(path) -> int:
    return os.path.getsize(path)


# Span tags: a number describing the call, taken from its arguments (or,
# for file writers, from the file it produced).
_TAGS = {
    "dit.forward": lambda a, k, r: _batch_of(a[1]),
    "dit.backward": lambda a, k, r: _batch_of(a[2]),
    "dit.evaluate": lambda a, k, r: _batch_of(a[1]),
    "diffusion.euler_sample": lambda a, k, r: len(
        a[2].time_grid(a[5] if len(a) > 5 else k.get("n_steps"))
    ) - 1,
    "dataset.build_dataset": lambda a, k, r: int(a[4] if len(a) > 4 else k["n"]),
    "channel.swm_channel": lambda a, k, r: len(a[0]) * a[1].n_rx * a[1].n_tx,
    "dataset.write_dataset": lambda a, k, r: _file_bytes(a[0]),
    "dataset.read_dataset": lambda a, k, r: _file_bytes(a[0]),
    "checkpoint.save_checkpoint": lambda a, k, r: _file_bytes(a[0]),
    "checkpoint.load_checkpoint": lambda a, k, r: _file_bytes(a[0]),
    "training.train": lambda a, k, r: r.step,
}


class Tracer:
    """Collects spans in parallel lists; one tracer per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.tags: list[float] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._request = 0
        self._root: int | None = None
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        if self._root is None and name in REQUEST_ROOTS:
            self._request += 1
            self._root = idx
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request if self._root is not None else 0)
        self.tags.append(np.nan)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()
        if self._root == idx:
            self._root = None

    def wrap(self, name: str, fn):
        tag = _TAGS.get(name)
        module = name.partition(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Recursive calls (ema_update over a dict) stay inside one span.
            if self._stack and self.names[self._stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                self._close(idx)
            if tag is not None:
                self.tags[idx] = tag(args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function with its wrapper, everywhere in thzgen."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "thzgen" or n.startswith("thzgen.")]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"thzgen.{module_name}")
            span = f"{module_name}.{attr.rpartition('.')[2]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one JSON object per span (times in ns)."""
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for i, name in enumerate(self.names):
                tag = self.tags[i]
                f.write(json.dumps({
                    "id": i, "name": name, "start_ns": self.starts[i],
                    "end_ns": self.ends[i], "parent": self.parents[i],
                    "request": self.requests[i],
                    "tag": None if np.isnan(tag) else tag,
                }) + "\n")


class SpanTable:
    """Array view of a tracer's spans with self times."""

    def __init__(self, tracer: Tracer):
        self.names = np.asarray(tracer.names, dtype=object)
        start = np.asarray(tracer.starts, dtype=np.int64)
        end = np.asarray(tracer.ends, dtype=np.int64)
        self.parents = np.asarray(tracer.parents, dtype=np.int64)
        self.tags = np.asarray(tracer.tags, dtype=float)
        self.dur_ms = (end - start) / 1e6
        covered = np.zeros(len(self.names))
        has_parent = self.parents >= 0
        np.add.at(covered, self.parents[has_parent], self.dur_ms[has_parent])
        self.self_ms = self.dur_ms - covered

    def mask(self, name: str, tag: float | None = None) -> np.ndarray:
        m = self.names == name
        if tag is not None:
            m &= self.tags == tag
        return m

    def count(self, name: str, tag: float | None = None) -> int:
        return int(self.mask(name, tag).sum())

    def mean_ms(self, name: str, tag: float | None = None) -> float:
        m = self.mask(name, tag)
        return float(self.dur_ms[m].mean()) if m.any() else 0.0

    def total_ms(self, name: str, tag: float | None = None) -> float:
        return float(self.dur_ms[self.mask(name, tag)].sum())

    def self_total_ms(self, name: str) -> float:
        return float(self.self_ms[self.mask(name)].sum())

    def tag_total(self, name: str) -> float:
        m = self.mask(name)
        return float(np.nansum(self.tags[m])) if m.any() else 0.0

    def percentile_ms(self, name: str, q: float, tag: float | None = None) -> float:
        m = self.mask(name, tag)
        return float(np.percentile(self.dur_ms[m], q)) if m.any() else 0.0

    def inside(self, name: str, ancestor: str, tag: float | None = None) -> np.ndarray:
        """Mask of `name` spans nested in an `ancestor` span (with `tag`, if given)."""
        m = np.zeros(len(self.names), dtype=bool)
        for i in np.flatnonzero(self.names == name):
            j = self.parents[i]
            while j >= 0 and self.names[j] != ancestor:
                j = self.parents[j]
            m[i] = j >= 0 and (tag is None or self.tags[j] == tag)
        return m
