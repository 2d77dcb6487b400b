"""One process-wide thread pool for the numpy kernels that split across cores.

numpy releases the GIL inside ufuncs and reductions on large arrays, so
threads overlap that work. The pool has one worker per CPU this process may
use (``workers``) and is created on first use; importing this module starts
no thread. A call made from inside a pool task runs inline, so a task never
waits on the pool it occupies.

The pool runs the energy chunks and certification. Callers cut their work
with ``chunks``, each at its own size:
- ``analysis._CHUNK_VALUES`` (2**17 values): certification screens each
  batch in chunks, then scores the samples the screen keeps in chunks of
  the same size; both hold several float64 temporaries per chunk, so the
  size bounds peak memory. The screen's bound may round differently per
  chunk, which its margin covers; the scores are per sample and bitwise;
- ``energetics._CHUNK_VALUES`` (2**17 values, 1 MiB): a chunk of grid points
  stays in one core's 2 MiB L2 through its power, division and seven
  reductions. Chunks are aligned to 4 points, the row group of OpenBLAS's
  gemv, so each chunk's products are bitwise those of the whole product.
Each size is such that every 1-D preset is one piece and runs inline.

The upwind shift of the memory field does not use the pool: the GIL keeps
threads from splitting it, so ``solver.run`` forks one helper process for
half its lanes where ``spare_cpu`` allows.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

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


def chunks(n: int, item_values: int, chunk_values: int, multiple: int = 1) -> list:
    """range(n) cut into slices of about chunk_values values at item_values
    values per item, each starting at a multiple of ``multiple`` items; a
    last slice of fewer items than that is merged into the one before."""
    step = max(multiple, chunk_values // item_values // multiple * multiple)
    cut = [slice(lo, lo + step) for lo in range(0, n, step)]
    if len(cut) > 1 and n - cut[-1].start < multiple:
        cut[-2:] = [slice(cut[-2].start, n)]
    return cut
