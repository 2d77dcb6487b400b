"""How big-array kernels cut their work, and how many CPUs a run may use.

``chunks`` cuts the upwind shift's tau lanes, the energy sample's grid
points and certification's samples into blocks of about ``BLOCK_VALUES``
values. Where ``spare_cpu`` allows, ``solver.run`` forks one helper process
that shifts half the lanes of each step and contracts half the blocks of
each energy sample; all else runs in the calling thread.
"""

from __future__ import annotations

import os

# float64 values per block, 1 MiB: one block and a kernel's scratch stay in one
# core's 2 MiB L2, and a kernel's peak memory is a few temporaries of one block
BLOCK_VALUES = 1 << 17

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


def spare_cpu() -> bool:
    """Whether the caller may fork a helper process to use a second CPU:
    fork exists and the process may use two CPUs."""
    return hasattr(os, "fork") and workers() >= 2


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
