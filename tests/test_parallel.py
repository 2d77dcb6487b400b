import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from delaywave import parallel, solver
from delaywave.config import load_preset, parse_config
from delaywave.scenario import run_scenario


@pytest.fixture
def no_pool(monkeypatch):
    """Any use of the shared pool raises; map would use it on 2 workers."""
    def refuse():
        raise AssertionError("the shared pool was used")

    monkeypatch.setattr(parallel, "_executor", refuse)
    monkeypatch.setattr(parallel, "workers", lambda: 2)


def test_map_keeps_call_order_on_the_pool():
    got = parallel.map(lambda a, b: (a, b, threading.current_thread().name),
                       range(6), "abcdef")
    assert [(a, b) for a, b, _ in got] == list(zip(range(6), "abcdef"))
    if parallel.workers() > 1:
        assert all(name.startswith("delaywave") for _, _, name in got)


def test_map_runs_inline_for_one_call_or_one_worker(no_pool, monkeypatch):
    assert parallel.map(lambda a: a + 1, [1]) == [2]
    with pytest.raises(AssertionError, match="shared pool"):
        parallel.map(lambda a: a, [1, 2])
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    assert parallel.map(lambda a: a + 1, [1, 2]) == [2, 3]


def test_map_inside_a_pool_task_runs_inline(monkeypatch):
    # two outer tasks on a two-worker pool, each mapping again: the inner
    # calls must not wait for a worker their own task occupies
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)

    def outer(i):
        return parallel.map(lambda j: (i, j, threading.current_thread().name), range(3))

    result = []
    worker = threading.Thread(target=lambda: result.extend(parallel.map(outer, range(2))),
                              daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert [[(i, j) for i, j, _ in inner] for inner in result] == \
        [[(i, j) for j in range(3)] for i in range(2)]
    # each inner map ran in the thread of its outer task
    assert all(len({name for _, _, name in inner}) == 1 for inner in result)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_map_in_a_forked_child_gets_a_pool_of_its_own(monkeypatch):
    # the child has none of the parent's pool threads: mapping on the
    # parent's pool object there would wait forever
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)
    # both of the parent's workers start and go idle, so the executor
    # would hand the child's two calls to them instead of new threads
    both = threading.Barrier(2)
    parallel.map(lambda i: both.wait(timeout=10), range(2))
    pid = os.fork()
    if pid == 0:
        try:
            names = parallel.map(lambda i: threading.current_thread().name, range(2))
            os._exit(0 if all(n.startswith("delaywave") for n in names) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("parallel.map hung in a forked child")
    assert os.waitstatus_to_exitcode(status) == 0


def test_chunks_cut_by_values():
    assert parallel.chunks(10, 3, 7) == [slice(0, 2), slice(2, 4), slice(4, 6),
                                         slice(6, 8), slice(8, 10)]
    assert parallel.chunks(4, 5, 100) == [slice(0, 20)]
    assert parallel.chunks(3, 100, 7) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_one_dimensional_run_starts_no_pool(no_pool):
    cfg = parse_config(load_preset("decay_exponential"))
    result = run_scenario(replace(cfg, t_end=2.0))
    assert result.summary["termination"] == "reached-t-end"
    # the patch is the pool's only door: a field beyond _INLINE_BYTES goes through it
    z = np.zeros((8, 9, 65, 65))
    with pytest.raises(AssertionError, match="shared pool"):
        solver._upwind_shift(solver.SimState(0.0, None, None, z), np.ones((8, 1, 1, 1)))
