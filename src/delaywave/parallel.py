"""How big-array kernels cut their work, and how many CPUs a run may use.

``chunks`` cuts the upwind shift's tau lanes, the energy sample's grid
points and certification's samples into blocks of about ``BLOCK_VALUES``
values. The energy sample cuts a memory field of more than one block into
tiles of half a block, so a tile and its powered copy fit in one L2 together
(``energetics._point_halves``); a field of one block or less is one tile.
Where ``spare_cpu`` allows, ``solver.run`` forks one helper process that
shifts half the lanes of each step and contracts half the tiles of each
energy sample; all else runs in the calling thread. ``fork`` starts every
child: that helper, and each ``Child``, the certifier and sweep workers.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback

# float64 values per block, 1 MiB: one block and a kernel's scratch stay in one
# core's 2 MiB L2
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
    """Use one CPU in this process from now on: a sweep worker's share."""
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


def fork(work, keep) -> int:
    """Fork a child that runs ``work()`` and ends with ``os._exit``, status 0
    if it returns and 1, its traceback printed, if it raises; the child's pid.

    SIGINT stays blocked across the fork, so it cannot interrupt the child
    before the child ignores it. The child closes every file descriptor but
    stdin, stdout, stderr and those in ``keep``, so each pipe end it does not
    keep sees EOF when its owner closes it. Its ``os._exit`` never flushes
    this process's stdio buffers nor runs its atexit hooks.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise
    if pid:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return pid
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        low = 3
        for fd in sorted(keep):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        work()
        code = 0
    except Exception:
        traceback.print_exc()  # stderr is at most line-buffered: no flush waits
    finally:
        os._exit(code)


class Child:
    """A ``fork`` child that runs ``work()`` and sends each value of the
    iterable it returns, as it comes, pickled on a pipe (a float64 comes back
    bit for bit). ``receive`` returns the next; if the child ends first, or
    is closed, it raises ChildProcessError naming the child and its pid.
    ``close`` kills the child if it still runs and reaps it, so none
    outlives its caller."""

    def __init__(self, work, name):
        def send():
            with open(write, "wb") as pipe:
                for value in work():
                    pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()  # each value as soon as it is made

        read, write = os.pipe()
        try:
            self.pid = fork(send, keep=(write,))
        except OSError:
            os.close(read)
            raise
        finally:
            os.close(write)
        self.name = name
        self._pipe = open(read, "rb")

    def receive(self):
        if not self._pipe.closed:
            try:
                return pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):  # the child is ending
                os.waitpid(self.pid, 0)  # not killed: it may still print its traceback
                self._pipe.close()
        raise ChildProcessError(f"{self.name} (pid {self.pid}) failed")

    def close(self):
        if not self._pipe.closed:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._pipe.close()
