#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes (about ten seconds).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
- every workload, untraced and traced, prints exactly the metric names and
  units that BENCHMARK.json declares, and passes its correctness checks;
- BENCHMARK.json's workloads and metrics match the benchmark's own lists;
- a deliberately corrupted program output trips a correctness check in
  every workload;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import harness

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def _fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_declaration(spec: dict) -> None:
    import metrics
    from run import WORKLOAD_NAMES
    from workloads import WORKLOADS

    declared = [(w["name"], w["why"]) for w in spec["workloads"]]
    own = [(w.name, w.why) for w in WORKLOADS.values()]
    if declared != own or list(WORKLOAD_NAMES) != list(WORKLOADS):
        _fail(f"workloads differ: BENCHMARK.json {declared} vs benchmark {own}")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != list(metrics.END_TO_END):
        _fail("end_to_end metrics in BENCHMARK.json differ from metrics.END_TO_END")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != list(metrics.PER_LAYER):
        _fail("per_layer metrics in BENCHMARK.json differ from metrics.PER_LAYER")


def run_tiny(name: str, trace: bool, out_dir: Path):
    from workloads import TINY

    result, _ = harness.run_workload(name, SEED, 0.01, trace, out_dir, sizes=TINY)
    return json.loads(json.dumps(result.summary())), result


def check_outputs(spec: dict, out_dir: Path) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            printed, result = run_tiny(workload["name"], trace, out_dir)
            got = {k: v["unit"] for k, v in printed["metrics"].items()}
            if got != expected:
                _fail(f"{workload['name']} trace={int(trace)} printed metrics "
                      f"{sorted(set(got) ^ set(expected))} differ from BENCHMARK.json")
            if not printed["correct"] or printed["failed"]:
                _fail(f"{workload['name']} trace={int(trace)} failed: {result.failures}")
            print(f"ok  {workload['name']:6s} trace={int(trace)}: "
                  f"{len(got)} metrics, {printed['attempted']} ops and checks")


def _corrupt_after_first(fn, corrupt):
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        result = fn(*args, **kwargs)
        return corrupt(result) if len(calls) > 1 else result

    return wrapper


def check_corruption(out_dir: Path) -> None:
    """A corrupted output of each workload must fail a correctness check."""
    from thzgen import beamspace, cli, training

    def bump_test_loss(result):
        epoch, train_loss, test_loss = result.curves[-1]
        result.curves[-1] = (epoch, train_loss, test_loss * (1 + 1e-12))
        return result

    def nudge_samples(ds):
        ds.tensors[0, 0, 0, 0] = ds.tensors[0, 0, 0, 0] + 1e-9
        return ds

    def leak_energy(h):
        return type(h)(entries=h.entries * (1 + 1e-9), domain_tag=h.domain_tag,
                       geometry=h.geometry)

    cases = (
        ("train", training, "train", bump_test_loss, "reproducible"),
        ("sample", cli, "sample_channels", nudge_samples, "byte-identical"),
        ("synth", beamspace, "to_beamspace", leak_energy, "energy"),
    )
    for workload, module, attr, corrupt, expected in cases:
        patched = _corrupt_after_first(getattr(module, attr), corrupt)
        with mock.patch.object(module, attr, patched):
            printed, result = run_tiny(workload, False, out_dir)
        tripped = [f for f in result.failures if expected in f]
        if printed["correct"] or not printed["failed"] or not tripped:
            _fail(f"corrupting {attr} in {workload} did not trip the '{expected}' check "
                  f"(failures: {result.failures})")
        print(f"ok  {workload:6s} corrupted {attr}: {tripped[0]}")


def check_bare_directory(out_dir: Path) -> None:
    """Without the program's sources the benchmark must refuse to run."""
    bare = out_dir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        _fail(f"bare directory run exited {proc.returncode} with output {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    harness.prepare(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        check_declaration(spec)
        check_outputs(spec, out_dir)
        check_corruption(out_dir)
        check_bare_directory(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
