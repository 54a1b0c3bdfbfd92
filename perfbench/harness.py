"""Runs one workload: set-up, closed-loop rounds, checks, metrics, records.

``prepare`` must run before numpy is imported: it fixes the BLAS thread
count through the environment and puts the checkout's ``src/`` first on the
import path, so the benchmark always measures the source tree it sits in.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no thzgen source tree to measure."""


def prepare(root: Path) -> int:
    """Fix the BLAS thread count and import thzgen from ``root/src``."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    package = root / "src" / "thzgen"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no thzgen sources under {package}")
    sys.path.insert(0, str(root / "src"))
    import thzgen

    if Path(thzgen.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported thzgen from {thzgen.__file__}, not {package}")
    return threads


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git (None outside a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path, threads: int, **run) -> dict:
    import numpy as np
    import scipy
    import thzgen._core

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "thzgen").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        **run,
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "kernel_backend": thzgen._core.BACKEND,
    }


@dataclass
class Result:
    workload: str
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    rounds: int
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def summary(self) -> dict:
        from metrics import UNITS

        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }


def _loop(workload, state, outcome, seconds: float, tracer=None, baseline=None) -> int:
    """Closed loop: rounds back to back while the next one fits in `seconds`.

    At least two rounds, so that every run checks a re-run's outputs.  With
    a tracer, rounds alternate between untraced ones (into `baseline`) and
    traced ones (into `outcome`), so both see the same machine state.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        target = baseline if tracer is not None and not traced else outcome
        try:
            with tracer if traced else contextlib.nullcontext():
                workload.round(state, target)
        except Exception as exc:  # a failing program is a measured outcome
            target.fail(f"{type(exc).__name__}: {exc}")
            return rounds
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds > seconds:
            return rounds


def _peak_alloc_mb(state, sizes) -> float:
    """tracemalloc peak of one B=512 denoiser call on the sampling checkpoint."""
    import tracemalloc

    import numpy as np
    from thzgen import checkpoint

    denoiser = checkpoint.ema_denoiser(state["ckpt"])
    rng = np.random.default_rng(0)
    cfg = state["ckpt"].config
    h = 3.0 * rng.standard_normal((sizes.big_batch, 2, cfg.n_rx, cfg.n_tx))
    cond = rng.standard_normal(8)
    tracemalloc.start()
    try:
        denoiser.evaluate(h, 3.0, cond)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 sizes=None):
    """Returns (Result, Tracer or None).

    Sets up `sizes.setup_repeats` times, runs the loop, computes the metrics.
    A traced run alternates untraced and traced rounds; the untraced ones
    are the baseline for the tracing overhead.  Set-up is traced too.
    """
    from statistics import median

    import metrics
    from tracing import Tracer
    from workloads import FULL, TOY_DIT, WORKLOADS, Outcome

    sizes = sizes or FULL
    workload = WORKLOADS[name]
    work = out_dir / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    outcome = Outcome()
    setup_times = []
    extras = {}
    rounds = 0
    try:
        if tracer:
            tracer.install()
        try:
            for _ in range(sizes.setup_repeats):
                t0 = time.perf_counter()
                state = workload.setup(seed, work, sizes)
                setup_times.append(time.perf_counter() - t0)
        except Exception as exc:
            outcome.op()
            outcome.fail(f"setup: {type(exc).__name__}: {exc}")
            state = None
        finally:
            if tracer:
                tracer.uninstall()
        if state is not None and tracer:
            baseline = Outcome()
            rounds = _loop(workload, state, outcome, seconds, tracer, baseline)
            outcome.attempted += baseline.attempted
            outcome.failed += baseline.failed
            outcome.failures += baseline.failures
            for key in ("primary", "secondary"):
                untraced = baseline.samples.get(f"{key}_ms")
                traced = outcome.samples.get(f"{key}_ms")
                if untraced and traced:
                    extras[f"bench.trace_overhead_frac.{key}"] = (
                        median(traced) / median(untraced) - 1.0)
            if outcome.samples.get("train_test_loss"):
                extras["training.train.test_loss"] = median(outcome.samples["train_test_loss"])
            if name == "sample":
                extras["dit.evaluate.peak_alloc_mb.b512"] = _peak_alloc_mb(state, sizes)
        elif state is not None:
            rounds = _loop(workload, state, outcome, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        values = metrics.per_layer(tracer, outcome.counts, sizes, TOY_DIT, extras)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(outcome, setup_times, peak_rss_mb)
    return Result(
        workload=name,
        trace=trace,
        correct=outcome.failed == 0 and outcome.attempted > 0,
        attempted=max(outcome.attempted, 1),
        failed=outcome.failed,
        metrics=values,
        rounds=rounds,
        failures=outcome.failures,
        notes={"setup_s": setup_times, "samples": outcome.samples},
    ), tracer


def write_records(out_dir: Path, result: Result, tracer, env: dict) -> Path:
    """Saves the result with its environment, and the spans of a traced run."""
    stem = f"{result.workload}-seed{env['seed']}-trace{int(result.trace)}"
    record = {"environment": env, **result.summary(), "rounds": result.rounds,
              "failures": result.failures, "raw": result.notes}
    path = out_dir / f"result-{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"spans-{stem}.jsonl", env)
    return path
