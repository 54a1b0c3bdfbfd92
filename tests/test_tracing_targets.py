"""The benchmark calls thzgen by name; each name it uses must resolve.

``perfbench/tracing.py`` lists its targets as ``(module, attr)`` pairs and
``Tracer.install`` looks each one up at run time, and the workloads call
functions such as ``training.evaluate_loss`` or ``dataset.sample_rng``, so a
renamed, deleted or re-signatured function would otherwise fail only a
benchmark run.  These tests read ``perfbench/`` and change nothing in it.
"""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr in load_targets():
        module = importlib.import_module(f"thzgen.{module_name}")
        if "." in attr:
            # Methods are patched on the class, so they must be its own.
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench/tracing.py traces missing targets: {missing}"


def test_benchmark_selftest_passes():
    # The benchmark records the environment's scipy version, so it cannot run
    # where scipy does not import.
    pytest.importorskip("scipy", reason="perfbench's harness imports scipy, which does not "
                                        "import here")
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and "selftest passed" in proc.stdout, (
        proc.stdout + proc.stderr)
