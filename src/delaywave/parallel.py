"""One process-wide thread pool for the numpy kernels that split across cores.

numpy releases the GIL inside ufuncs and reductions on large arrays, so
threads overlap that work. The pool has one worker per CPU this process may
run on and is created on first use; importing this module starts no thread.
A call made from inside a pool task runs inline, so a task never waits on
the pool it occupies.

Callers cut their work with ``chunks``, each at its own size:
- ``analysis._CHUNK_VALUES`` (2**18 values): the certification kernel holds
  several float64 temporaries per chunk, so the size bounds peak memory;
- ``energetics._CHUNK_VALUES`` (2**17 values, 1 MiB): a chunk of |z|^m is
  still in one core's 2 MiB L2 when it is divided by m;
- ``solver._INLINE_BYTES`` (1 MiB) only decides whether the upwind shift
  uses the pool; its pieces are whole tau lanes, one group per worker.
Each size is such that every 1-D preset is one piece and runs inline.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_lock = threading.Lock()
_pool = None
_local = threading.local()


def workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


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
    if len(calls) < 2 or workers() < 2 or getattr(_local, "in_pool", False):
        return [fn(*args) for args in calls]
    return list(_executor().map(fn, *zip(*calls)))


def chunks(n: int, item_values: int, chunk_values: int) -> list:
    """range(n) cut into slices of about chunk_values values at item_values
    values per item; every slice holds at least one item."""
    step = max(1, chunk_values // item_values)
    return [slice(lo, lo + step) for lo in range(0, n, step)]
