"""Sweep points: simulated in forked worker processes, analysed in the caller."""

import multiprocessing
import os
import threading
from dataclasses import replace

import pytest

from delaywave import analysis, parallel, scenario, solver
from delaywave.analysis import embedding_constant_for_gate
from delaywave.config import _apply_axis, load_preset, parse_config
from delaywave.scenario import run_scenario, sweep
from delaywave.spaces import make_grid

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")


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


@pytest.fixture
def pools(monkeypatch):
    """Counts the fork pools a sweep opens; two CPUs whatever the host has,
    so each worker is capped at one as on a host with two."""
    opened = []
    real = scenario._fork_pool

    def counted(processes):
        opened.append(processes)
        return real(processes)

    monkeypatch.setattr(scenario, "_fork_pool", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return opened


@pytest.fixture
def no_processes(monkeypatch):
    def refuse(processes):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scenario, "_fork_pool", refuse)


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
    with pytest.raises(AssertionError, match="process pool"):
        sweep(_short_blowup(), "scale", [6.0, 7.0])


@fork_only
def test_sweep_summaries_equal_run_scenario_per_point(pools, tmp_path):
    cfg = _short_blowup()
    values = [7.0, 6.0, 1e9]  # the last point fails its init-sup check
    rows, _ = sweep(cfg, "scale", values, out_dir=str(tmp_path))
    assert pools == [2]
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
def test_sweep_reports_a_keyed_config_error_from_a_worker(pools):
    # the worker sends the error as text, which must read as the inline sweep's
    cfg = _short_blowup()
    pooled, table = sweep(cfg, "mu1", [-1.0, 1.0])
    assert pools == [2]
    inline = [sweep(cfg, "mu1", [value])[0][0] for value in (-1.0, 1.0)]
    assert pooled == inline
    assert pooled[0]["error"].startswith("ConfigError: ")
    assert table.splitlines()[1].split(",")[1] == "failed"


class _TwoArgumentError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@fork_only
def test_sweep_records_an_error_that_does_not_unpickle(pools, monkeypatch):
    def broken(config):
        raise _TwoArgumentError("no problem", config.scale)

    monkeypatch.setattr(scenario, "build_problem", broken)
    rows, _ = _sweep_within(60, _short_blowup(), "scale", [6.0, 7.0])
    assert pools == [2]
    assert [row["error"] for row in rows] == [
        "_TwoArgumentError: no problem at 6.0", "_TwoArgumentError: no problem at 7.0"]


@fork_only
def test_sweep_after_the_shared_pool_has_threads(pools, monkeypatch):
    # a 2-D certification leaves the shared thread pool's workers alive;
    # the sweep's workers are forked next to them and must still finish
    monkeypatch.setattr(analysis, "_ratio_memo", {})  # so the family is drawn
    grid = make_grid((1.0, 1.0), (33, 33))  # 5 chunks of samples
    embedding_constant_for_gate(grid, 3.0, 4.0, n_samples=1000, seed=7)
    assert any(t.name.startswith("delaywave") for t in threading.enumerate())
    rows, _ = _sweep_within(120, _short_blowup(), "scale", [6.0, 7.0])
    assert pools == [2]
    assert [row["error"] for row in rows] == [None, None]


@fork_only
def test_sweep_workers_use_neither_the_pool_nor_a_helper(pools, monkeypatch, tmp_path):
    # on two CPUs each of the two workers is capped at one, its share: a
    # 2-D point's energy sample (3 chunks) maps inline, and its run forks
    # no shift helper
    calls = tmp_path / "calls"

    def recorded(name, real):
        def wrapper(*args, **kwargs):
            with open(calls, "a") as handle:
                handle.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parallel, "_executor", recorded("pool", parallel._executor))
    monkeypatch.setattr(solver, "_Helper", recorded("helper", solver._Helper))
    monkeypatch.setattr(scenario, "simulate", recorded("simulate", scenario.simulate))
    cfg = solver.RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(33, 33), n_tau=16,
                           n_rho=16, u0="0.3*sin(pi*x)*sin(pi*y)", t_end=0.02)
    rows, _ = _sweep_within(120, cfg, "mu1", [0.5, 1.0])
    assert pools == [2]
    assert [row["error"] for row in rows] == [None, None]
    seen = [line.split() for line in calls.read_text().splitlines()]
    workers = {pid for name, pid in seen if name == "simulate"}
    assert workers and str(os.getpid()) not in workers
    assert [name for name, pid in seen if pid in workers] == ["simulate"] * 2


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
