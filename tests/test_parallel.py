import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from delaywave import analysis, parallel, solver
from delaywave.config import load_preset, parse_config
from delaywave.energetics import energy_report
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


def test_chunks_cut_by_values(monkeypatch):
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 7)
    assert parallel.chunks(10, 3) == [slice(0, 2), slice(2, 4), slice(4, 6),
                                      slice(6, 8), slice(8, 10)]
    assert parallel.chunks(3, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 100)
    assert parallel.chunks(4, 5) == [slice(0, 4)]  # a step of 20, stopped at n
    # aligned to 4 items: a step of 6 is cut to 4, and a last slice of 1 to 3
    # items is merged into the one before
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 6)
    assert parallel.chunks(12, 1, multiple=4) == [slice(0, 4), slice(4, 8), slice(8, 12)]
    for n in (9, 10, 11):
        assert parallel.chunks(n, 1, multiple=4) == [slice(0, 4), slice(4, n)]
    assert parallel.chunks(3, 1, multiple=4) == [slice(0, 3)]


def test_chunks_cover_range_in_aligned_bounded_slices(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(n=st.integers(0, 300), item_values=st.integers(1, 50),
                      multiple=st.integers(1, 9), block_values=st.integers(0, 400))
    def check(n, item_values, multiple, block_values):
        monkeypatch.setattr(parallel, "BLOCK_VALUES", block_values)
        cut = parallel.chunks(n, item_values, multiple=multiple)
        assert [i for c in cut for i in range(c.start, c.stop)] == list(range(n))
        assert all(c.stop <= n and c.step is None for c in cut)
        assert all(c.start % multiple == 0 for c in cut)
        most = max(multiple, block_values // item_values // multiple * multiple)
        assert all(c.stop - c.start <= most for c in cut[:-1])
        if len(cut) > 1:
            assert cut[-1].stop - cut[-1].start >= multiple
            # only a last slice merged with a short remainder is longer
            assert cut[-1].stop - cut[-1].start < most + multiple

    check()


def test_run_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # a 17x17 box at negative energy certifies both embedding constants; at
    # 4000 values a block is one shift lane, 108 energy points or 13
    # certification samples, so every kernel runs several blocks
    cfg = solver.RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(17, 17), n_tau=4,
                           n_rho=9, m="2.2 + 0.3*x*y", p="3.2 + 0.3*x",
                           u0="20*sin(pi*x)*sin(pi*y)", t_end=0.05)
    real = parallel.chunks
    pieces = {}

    def chunks(n, item_values, multiple=1):
        cut = real(n, item_values, multiple)
        pieces[item_values] = max(pieces.get(item_values, 0), len(cut))
        return cut

    monkeypatch.setattr(parallel, "chunks", chunks)
    texts = []
    for block_values in (4000, parallel.BLOCK_VALUES):
        monkeypatch.setattr(parallel, "BLOCK_VALUES", block_values)
        monkeypatch.setattr(analysis, "_ratio_memo", {})  # so both runs certify
        pieces.clear()
        result = run_scenario(cfg)
        texts.append((result.csv_text, result.json_text))
        if block_values == 4000:
            # shift lanes, energy points, certification samples
            assert pieces[8 * 17 * 17] == 4 and pieces[9 * 4] == 3 and pieces[17 * 17] > 1
    assert result.summary["energy"]["initial"] < 0.0
    assert result.summary["T_low"] is not None
    assert texts[0] == texts[1]


def test_one_dimensional_run_starts_no_pool(no_pool):
    cfg = parse_config(load_preset("decay_exponential"))
    result = run_scenario(replace(cfg, t_end=2.0))
    assert result.summary["termination"] == "reached-t-end"
    # the patch is the pool's only door: a 2-D energy sample of several
    # chunks goes through it
    prob = solver.build_problem(solver.RunConfig(dimension=2, lengths=(1.0, 1.0),
                                                 nodes=(65, 65), n_tau=8, n_rho=9))
    state = solver.init_state(prob)
    with pytest.raises(AssertionError, match="shared pool"):
        energy_report(state, prob.m, prob.p, prob.kernel, prob.xi)
