"""How big-array kernels cut their work, and what runs in a child process.

``chunks`` cuts the upwind shift's tau lanes, the energy sample's grid
points and certification's samples into blocks of about ``BLOCK_VALUES``
values. The energy sample cuts a memory field of more than one block into
tiles of half a block, so a tile and its powered copy fit in one L2 together
(``energetics._point_halves``); a field of one block or less is one tile.
One rule holds for every child process: ``fork`` starts each (the run's
shift helper, and each ``Child``: the certifier and sweep workers) as a
process of one CPU (``workers``), and a ``Child`` that cannot be forked runs
its work in the caller, with the same bytes. Where ``workers`` allows two
CPUs, never where os.fork does not exist, ``solver.run`` forks the helper.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import traceback

# float64 values per block, 1 MiB: one block and a kernel's scratch stay in one
# core's 2 MiB L2
BLOCK_VALUES = 1 << 17

log = logging.getLogger(__name__)

_child = False  # set in every child that fork starts


def workers() -> int:
    """CPUs this process may use: one in a child that ``fork`` started, or
    where os.fork does not exist; else those it may run on."""
    if _child or not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


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
    The child uses one CPU (``workers``), so it forks no helper of its own.

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
    global _child
    _child, code = True, 1
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
    outlives its caller. Where os.fork does not exist, or the pipe or fork
    fails with OSError (a warning names the child), ``pid`` is None and
    ``receive`` takes the next value of ``iter(work())`` in the caller."""

    def __init__(self, work, name):
        self.name = name
        self.pid = None
        if hasattr(os, "fork"):
            try:
                self._pipe = self._start(work)
                return
            except OSError as exc:  # no process or pipe to spare
                log.warning("cannot start %s (%s); running its work here", name, exc)
        self._values = iter(work())

    def _start(self, work):
        """Fork the child; the read end of its pipe."""
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
        return open(read, "rb")

    def receive(self):
        if self.pid is None:
            for value in self._values:
                return value
            raise ChildProcessError(f"{self.name} ended")
        if not self._pipe.closed:
            try:
                return pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):  # the child is ending
                os.waitpid(self.pid, 0)  # not killed: it may still print its traceback
                self._pipe.close()
        raise ChildProcessError(f"{self.name} (pid {self.pid}) failed")

    def close(self):
        if self.pid is None:
            self._values = iter(())
        elif not self._pipe.closed:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._pipe.close()
