"""Lanes: the independent items of one call, split over threads it starts and joins.

``run(count, lanes, item)`` calls ``item(i)`` for every ``i < count``.  Lane
``j`` runs items ``j, j + lanes, ...`` in order: lane 0 on the calling
thread, the others on threads the call starts, each in a copy of the
caller's context (which carries numpy's errstate), and joins before it
returns.  A lane stops at its first failure, and the error of the lowest
failing item is raised; which item that is depends on the split alone, not
on thread timing.  Callers whose items write disjoint outputs get the same
bytes at any lane count.

``lane_count`` decides the lane count from an estimate of the work per item.
Each item also runs Python that holds the interpreter lock, so a second lane
pays only when the numpy work of an item outweighs it.

Importing this module (and so any ``import thzgen``) sets OpenBLAS to one
thread for the rest of the process and does not restore the count, so lanes
are the package's only parallelism: OpenBLAS's own threads would contend
with them for the same cores, and its idle threads spin on a core after
the count drops.  Where numpy's BLAS has no thread setter that this module
can call, every call runs on one lane.
"""
from __future__ import annotations

import contextvars
import ctypes
import os
import threading

# Matmul flops an item must carry before a call's items are split over
# lanes.  Measured on a 2-core x86_64 host with BLAS at one thread, one lane
# against two: inference slices of 30.1 MFLOP (embed 32, depth 4) ran 2%
# slower on two lanes, of 32.5 MFLOP (embed 48, depth 2) 1.2x faster and of
# 111 MFLOP (the toy model) 1.4x faster.  build_dataset counts a sample in
# the same flops (``dataset.ENTRY_FLOPS``).
ITEM_FLOPS = 32_000_000


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _set_one_blas_thread() -> bool:
    """Set OpenBLAS to one thread; False where there is no setter.

    numpy's bundled ``scipy_openblas`` exports it; it resolves through the
    handle of numpy's core extension, which links it.
    """
    try:
        from numpy._core import _multiarray_umath as core

        set_threads = ctypes.CDLL(core.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return True


_blas_single_threaded = _set_one_blas_thread()  # False: every call runs on one lane


def lane_count(count: int, item_flops: float) -> int:
    """Lanes for ``count`` items of ``item_flops`` matmul flops each."""
    if item_flops < ITEM_FLOPS or not _blas_single_threaded:
        return 1
    return max(1, min(usable_cpus(), count))


def run(count: int, lanes: int, item) -> None:
    """Call ``item(i)`` for i in range(count) on ``lanes`` lanes (see the module doc)."""
    failures = [None] * lanes  # each lane's first failure: (item, error)

    def lane(j):
        for i in range(j, count, lanes):
            try:
                item(i)
            except Exception as exc:
                failures[j] = (i, exc)
                return

    if lanes == 1:
        lane(0)
    else:
        helpers = [threading.Thread(target=contextvars.copy_context().run, args=(lane, j))
                   for j in range(1, lanes)]
        for helper in helpers:
            helper.start()
        try:
            lane(0)
        finally:
            for helper in helpers:
                helper.join()
    failed = [f for f in failures if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
