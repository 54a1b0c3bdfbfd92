"""The benchmark's tracer wraps thzgen functions by name; each name must resolve.

``perfbench/tracing.py`` lists its targets as ``(module, attr)`` pairs and
``Tracer.install`` looks each one up at run time, so a renamed or deleted
function would otherwise fail only a traced benchmark run.  This test reads
that file and changes nothing in it.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
