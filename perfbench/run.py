#!/usr/bin/env python3
"""Pipeline benchmark for thzgen: `train`, `sample` and `synth` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

It measures the thzgen sources under ``src/`` of the checkout it sits in.
Human-readable lines (environment, metrics under their pipeline names,
failed checks) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  Records and spans go to ``.perfbench/``.
The exit code is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

import harness

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "sample", "synth")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def report(result, env: dict, record: Path) -> None:
    from metrics import COMPUTED
    from workloads import WORKLOADS

    rates = WORKLOADS[result.workload].rates
    for key in ("workload", "seed", "seconds", "trace", "git_commit", "source_sha256",
                "nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "kernel_backend"):
        print(f"env {key} = {env[key]}")
    print(f"rounds = {result.rounds}, attempted = {result.attempted}, "
          f"failed = {result.failed}, error_rate = {result.failed / result.attempted:g}")
    units = result.summary()["metrics"]
    for name, value in result.metrics.items():
        label = "  [computed]" if name in COMPUTED else ""
        print(f"{name} = {value:.6g} {units[name]['unit']}{label}")
    for key, values in result.notes["samples"].items():
        if key in rates:
            print(f"{rates[key]} = {1e3 / median(values):.6g} 1/s  "
                  f"(median of {len(values)} {key} samples, not gated)")
        else:
            print(f"{key} = {median(values):.6g}  (median of {len(values)}, not gated)")
    for failure in result.failures:
        print(f"FAILED {failure}")
    print(f"record = {record}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        threads = harness.prepare(ROOT)
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    env = harness.environment(ROOT, threads, workload=args.workload, seed=args.seed,
                              seconds=args.seconds, trace=args.trace)
    result, tracer = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    record = harness.write_records(out_dir, result, tracer, env)
    report(result, env, record)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
