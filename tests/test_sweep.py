"""Sweep points: simulated in forked worker processes, analysed in the caller."""

import csv
import os
import signal
import threading
from dataclasses import replace

import pytest

from delaywave import analysis, parallel, scenario, solver
from delaywave.config import _apply_axis, load_preset, parse_config
from delaywave.scenario import run_scenario, sweep

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

WORKER = "the sweep worker"


def _short_blowup():
    return replace(parse_config(load_preset("blowup")), t_end=0.05, sample_dt=0.01)


def _sweep_within(seconds, *args):
    """sweep(*args) in a thread of its own; fails if it has not returned in time."""
    result = []
    worker = threading.Thread(target=lambda: result.append(sweep(*args)), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"sweep did not return within {seconds} s"
    return result[0]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def sweep_workers(monkeypatch):
    """The pids of the sweep workers a sweep forks (certifier children are
    not counted); two CPUs whatever the host has, so each worker is capped
    at one as on a host with two."""
    started = []
    real = parallel.Child

    def counted(work, name):
        child = real(work, name)
        if name == WORKER:
            started.append(child.pid)
        return child

    monkeypatch.setattr(parallel, "Child", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started


@pytest.fixture
def no_processes(monkeypatch):
    real = parallel.Child

    def refuse(work, name):
        if name == WORKER:
            raise AssertionError("a sweep worker was started")
        return real(work, name)

    monkeypatch.setattr(parallel, "Child", refuse)


def test_one_value_sweep_starts_no_process(no_processes, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    rows, _ = sweep(_short_blowup(), "scale", [6.0])
    assert rows[0]["error"] is None


def test_one_worker_sweep_starts_no_process(no_processes, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    rows, _ = sweep(_short_blowup(), "scale", [6.0, 7.0, 8.0])
    assert [row["error"] for row in rows] == [None] * 3
    # the patch is the only way to a pool: with two CPUs the sweep goes through it
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    with pytest.raises(AssertionError, match="sweep worker was started"):
        sweep(_short_blowup(), "scale", [6.0, 7.0])


@fork_only
def test_sweep_summaries_equal_run_scenario_per_point(sweep_workers, tmp_path):
    cfg = _short_blowup()
    values = [7.0, 6.0, 1e9]  # the last point fails its init-sup check
    rows, _ = sweep(cfg, "scale", values, out_dir=str(tmp_path))
    assert len(sweep_workers) == 2
    assert [row["value"] for row in rows] == sorted(values)
    for row in rows[:2]:
        solo = run_scenario(_apply_axis(cfg, "scale", row["value"]))
        assert row["error"] is None and row["summary"] == solo.summary
        point = tmp_path / f"point_scale={row['value']!r}"
        assert (point / "trajectory.csv").read_text() == solo.csv_text
        assert (point / "summary.json").read_text() == solo.json_text
    with pytest.raises(Exception) as solo_error:
        run_scenario(_apply_axis(cfg, "scale", 1e9))
    assert rows[2]["summary"] is None
    assert rows[2]["error"] == f"{type(solo_error.value).__name__}: {solo_error.value}"


@fork_only
def test_sweep_reports_a_keyed_config_error_from_a_worker(sweep_workers):
    # the worker sends the error as text, which must read as the inline sweep's
    cfg = _short_blowup()
    pooled, table = sweep(cfg, "mu1", [-1.0, 1.0])
    assert len(sweep_workers) == 2
    inline = [sweep(cfg, "mu1", [value])[0][0] for value in (-1.0, 1.0)]
    assert pooled == inline
    assert pooled[0]["error"].startswith("ConfigError: ")
    assert table.splitlines()[1].split(",")[1] == "failed"


def test_sweep_table_quotes_an_error_with_a_comma(tmp_path):
    # an overflow's text holds a comma ("sup|u|=..., sup|v|=inf"); quoted, its
    # row still has the header's 9 fields, and the error reads back verbatim
    cfg = replace(parse_config(load_preset("blowup")), t_end=2.0, threshold=1e300)
    rows, table = sweep(cfg, "scale", [6.0, 40.0], out_dir=str(tmp_path))
    assert (tmp_path / "sweep.csv").read_text() == table
    errors = [row["error"] for row in rows]
    assert all(error.startswith("NumericalError: ") and ", sup|v|=inf" in error
               for error in errors)
    lines = table.splitlines()
    assert lines[0] == "scale,classification,termination,T_measured,T_low,E0,E_final," \
                       "gate_passed,error"
    parsed = list(csv.reader(lines))
    assert [len(fields) for fields in parsed] == [9] * 3
    assert [fields[-1] for fields in parsed[1:]] == errors
    assert lines[1] == f'6.0,failed,,,,,,,"{errors[0]}"'


class _TwoArgumentError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@fork_only
def test_sweep_records_an_error_that_does_not_unpickle(sweep_workers, monkeypatch):
    def broken(config):
        raise _TwoArgumentError("no problem", config.scale)

    monkeypatch.setattr(scenario, "build_problem", broken)
    rows, _ = _sweep_within(60, _short_blowup(), "scale", [6.0, 7.0])
    assert len(sweep_workers) == 2
    assert [row["error"] for row in rows] == [
        "_TwoArgumentError: no problem at 6.0", "_TwoArgumentError: no problem at 7.0"]


@fork_only
def test_sweep_workers_use_neither_the_pool_nor_a_helper(sweep_workers, monkeypatch, tmp_path):
    # on two CPUs each of the two workers is capped at one, its share: its
    # run forks no helper, so a 2-D point's energy sample (3 chunks) is
    # contracted in the worker
    calls = tmp_path / "calls"

    def recorded(name, real):
        def wrapper(*args, **kwargs):
            with open(calls, "a") as handle:
                handle.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_Helper", recorded("helper", solver._Helper))
    monkeypatch.setattr(scenario, "simulate", recorded("simulate", scenario.simulate))
    cfg = solver.RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(33, 33), n_tau=16,
                           n_rho=16, u0="0.3*sin(pi*x)*sin(pi*y)", t_end=0.02)
    rows, _ = _sweep_within(120, cfg, "mu1", [0.5, 1.0])
    assert len(sweep_workers) == 2
    assert [row["error"] for row in rows] == [None, None]
    seen = [line.split() for line in calls.read_text().splitlines()]
    workers = {pid for name, pid in seen if name == "simulate"}
    assert workers and str(os.getpid()) not in workers
    assert [name for name, pid in seen if pid in workers] == ["simulate"] * 2


@fork_only
def test_no_thread_exists_at_any_fork(sweep_workers, monkeypatch):
    # the sweep forks its two workers and each certifier child from a process
    # of one thread, so no child inherits a lock that another thread held
    threads = []
    real = parallel.fork

    def counted(work, keep):
        threads.append(threading.active_count())
        return real(work, keep)

    monkeypatch.setattr(parallel, "fork", counted)
    monkeypatch.setattr(analysis, "_ratio_memo", {})  # so the points certify
    rows, _ = sweep(_short_blowup(), "scale", [6.0, 7.0, 8.0])
    assert [row["error"] for row in rows] == [None] * 3
    assert len(sweep_workers) == 2 and len(threads) > 2
    assert threads == [1] * len(threads)


@fork_only
def test_a_killed_worker_fails_its_own_points(sweep_workers, monkeypatch):
    # worker 0 simulates 6.0 and 5.5, worker 1 simulates 7.0; worker 0 is
    # killed at its first point, and the sweep goes on without it
    caller = os.getpid()
    real = scenario.simulate

    def simulate(config):
        if os.getpid() != caller and config.scale == 6.0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(config)

    monkeypatch.setattr(scenario, "simulate", simulate)
    cfg = _short_blowup()
    rows, _ = _sweep_within(60, cfg, "scale", [6.0, 7.0, 5.5])
    assert len(sweep_workers) == 2
    lost = f"ChildProcessError: the sweep worker (pid {sweep_workers[0]}) failed"
    assert [(row["value"], row["summary"], row["error"]) for row in rows[:2]] == [
        (5.5, None, lost), (6.0, None, lost)]
    assert rows[2]["error"] is None
    assert rows[2]["summary"] == run_scenario(_apply_axis(cfg, "scale", 7.0)).summary
    _no_child_left()


class _Stop(BaseException):
    """Not an Exception, as Ctrl-C is not: no sweep point records it."""


@fork_only
def test_an_error_in_the_caller_ends_the_sweep_and_its_workers(sweep_workers, monkeypatch):
    real = scenario.analyse
    analysed = []

    def analyse(*args):
        if analysed:
            raise _Stop
        analysed.append(args)
        return real(*args)

    monkeypatch.setattr(scenario, "analyse", analyse)
    with pytest.raises(_Stop):
        sweep(_short_blowup(), "scale", [6.0, 7.0, 5.5, 8.0])
    assert len(sweep_workers) == 2 and len(analysed) == 1
    _no_child_left()


def test_sweep_order_invariant_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cfg = _short_blowup()

    @hypothesis.settings(max_examples=6, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from([5.5, 6.0, 7.0, 8.0]),
                               min_size=2, max_size=3, unique=True).flatmap(st.permutations))
    def check(values):
        assert sweep(cfg, "scale", values)[1] == sweep(cfg, "scale", sorted(values))[1]

    check()
