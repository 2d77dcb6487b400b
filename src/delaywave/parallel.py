"""One process-wide thread pool for the numpy kernels that split across cores.

numpy releases the GIL inside ufuncs and reductions on large arrays, so
threads overlap that work. The pool has one worker per CPU this process may
use (``workers``) and is created on first use; importing this module starts
no thread. A call made from inside a pool task runs inline, so a task never
waits on the pool it occupies.

Kernels that walk large arrays cut their work with ``chunks`` into blocks of
about ``BLOCK_VALUES`` values. The pool runs the energy sample's and
certification's blocks; every 1-D preset is one block in each and runs
inline. The upwind shift of the memory field cuts its lanes the same way but
does not use the pool: the GIL keeps threads from splitting it, so
``solver.run`` forks one helper process for half its lanes where
``spare_cpu`` allows.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# float64 values per block, 1 MiB: one block and a kernel's scratch stay in one
# core's 2 MiB L2, and a kernel's peak memory is a few temporaries of one block
BLOCK_VALUES = 1 << 17

_lock = threading.Lock()
_pool = None
_local = threading.local()
_one_cpu = False  # set by use_one_cpu


def workers() -> int:
    """CPUs this process may use: those it may run on, or one after
    use_one_cpu."""
    if _one_cpu:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def use_one_cpu():
    """Use one CPU in this process from now on: a sweep worker's
    initializer, as its siblings use the other CPUs."""
    global _one_cpu
    _one_cpu = True


def _inline() -> bool:
    """Whether work stays in the calling thread: one CPU, or a pool task."""
    return workers() < 2 or getattr(_local, "in_pool", False)


def spare_cpu() -> bool:
    """Whether the caller may fork a helper process to use a second CPU:
    fork exists, and the caller is neither on one CPU nor a pool task."""
    return hasattr(os, "fork") and not _inline()


def _mark_worker():
    _local.in_pool = True


def _executor() -> ThreadPoolExecutor:
    """The shared executor, created on first use."""
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers(), thread_name_prefix="delaywave",
                                       initializer=_mark_worker)
        return _pool


def _forget_pool():
    # a forked child has none of the parent's pool threads
    global _pool, _lock
    _pool = None
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map(fn, *iterables) -> list:
    """list(builtins.map(fn, *iterables)), on the shared pool when there are
    several calls and several workers; inline otherwise, and inside a pool
    task. Results keep the order of the calls."""
    calls = list(zip(*iterables))
    if len(calls) < 2 or _inline():
        return [fn(*args) for args in calls]
    return list(_executor().map(fn, *zip(*calls)))


def chunks(n: int, item_values: int, multiple: int = 1) -> list:
    """range(n) cut into slices of about BLOCK_VALUES values at item_values
    values per item, each starting at a multiple of ``multiple`` items and
    none stopping past n; a last slice of fewer items than ``multiple`` is
    merged into the one before."""
    step = max(multiple, BLOCK_VALUES // item_values // multiple * multiple)
    cut = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    if len(cut) > 1 and n - cut[-1].start < multiple:
        cut[-2:] = [slice(cut[-2].start, n)]
    return cut
