"""``solver.run`` gives the bits of ``reference_run`` (``_reference_run.py``)
however it cuts its work: with the helper or without, switching ways, and in
blocks of the default size or small, where the helper contracts half of each
energy sample it serves."""

import os
from dataclasses import replace

import pytest

from _reference_run import reference_run
from delaywave import parallel, solver
from delaywave.config import RunConfig

_1D = RunConfig(nodes=(41,), n_rho=9, n_tau=4, u0="0.3*sin(pi*x)", u1="0.2*sin(2*pi*x)",
                f0="0.2*sin(2*pi*x)", t_end=0.25, sample_dt=0.05)
_2D = replace(_1D, dimension=2, lengths=(1.0, 1.0), u0="0.3*sin(pi*x)*sin(pi*y)",
              u1="0.2*sin(2*pi*x)*sin(pi*y)", f0="0.2*sin(2*pi*x)*sin(pi*y)")
_VARIABLE = dict(m="2.2 + 0.3*x", p="3.2 + 0.3*x")
# the grid points of each case fill the last energy chunk of 8 points with
# 0 to 3 of them, merged into the chunk before when not empty
CONFIGS = {
    "1d-m2.5-f0-reads-s": replace(_1D, m="2.5", f0="0.2*sin(2*pi*x)*cos(s)"),  # 41 points
    "1d-variable-n_tau5": replace(_1D, nodes=(43,), n_tau=5, **_VARIABLE),  # 43
    "2d-variable": replace(_2D, nodes=(13, 10), m="2.2 + 0.3*x*y", p="3.2 + 0.3*x"),  # 130
    "2d-m2-on-part": replace(_2D, nodes=(12, 10), m="2 + 0.4*(x - 0.5 + abs(x - 0.5))"),  # 120
    "2d-m2.5": replace(_2D, nodes=(15, 13), m="2.5", p="3.5"),  # 195
    "frozen": replace(_1D, nodes=(42,), f0="0.2*sin(2*pi*x)*cos(3*s)", freeze_velocity=True,
                      **_VARIABLE),  # 42
    "m2-source-off": replace(_1D, disable_source=True),
    "blowup": replace(_1D, p="4", u0="6*sin(pi*x)", u1="4.2*sin(pi*x)", f0="4.2*sin(pi*x)",
                      t_end=1.0, threshold=10.0),
}
# (helper, small blocks); "switching" has stretches of 2 steps
WAYS = {
    "plain": (None, False),
    "blocks": (None, True),
    "helper": ("on", False),
    "switching": ("switching", True),
}


def _run(monkeypatch, problem, helper, small):
    """(trajectory, energy samples the helper contracted part of) of
    solver.run of problem the given way, which forks one helper or none;
    small blocks are 8 energy points, and cut the shift of every config too."""
    if helper and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    cfg, started, contracted = problem.config, [], []

    class Counted(solver._Helper):
        def __init__(self, plan):
            super().__init__(plan)
            started.append(self.pid)

        def contract(self):
            contracted.append(self.pid)
            super().contract()

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_Helper", Counted)
        patch.setattr(parallel, "spare_cpu", lambda: helper is not None)
        if helper == "switching":
            patch.setattr(solver, "_STRETCH_STEPS", 2)
        if small:
            patch.setattr(parallel, "BLOCK_VALUES", 8 * cfg.n_rho * cfg.n_tau)
        trajectory = solver.run(problem)
    assert len(started) == (helper is not None)
    return trajectory, len(contracted)


def _bits(trajectory):
    """A trajectory's times, reports, sup_u, stop and eps; repr keeps every
    bit of a float and tells -0.0 from 0.0."""
    return (trajectory.times.tobytes(), repr(trajectory.reports), trajectory.sup_u.tobytes(),
            trajectory.termination, repr(trajectory.blowup_time), repr(trajectory.eps))


@pytest.mark.parametrize("way", list(WAYS))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_equals_the_reference_run(monkeypatch, name, way):
    problem = solver.build_problem(CONFIGS[name])
    got, contracted = _run(monkeypatch, problem, *WAYS[way])
    assert _bits(got) == _bits(reference_run(problem))
    # at 8 points a chunk every sample has several chunks, and the helper
    # contracts half of them, in either way of a stretch; one chunk stays in
    # the calling process
    assert contracted == (len(got.reports) if way == "switching" else 0)
    # only the blow-up case stops at its threshold and forms the indicator
    blowup = (got.termination == solver.TERMINATED_BLOWUP,
              got.reports[0].blowup_indicator is not None)
    assert blowup == (name == "blowup",) * 2


def test_run_equals_the_reference_run_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(name=st.sampled_from(list(CONFIGS)), length=st.integers(9, 60),
                      sides=st.tuples(st.integers(5, 16), st.integers(5, 16)),
                      n_tau=st.integers(2, 6), helper=st.sampled_from([None, "on", "switching"]),
                      small=st.booleans())
    def check(name, length, sides, n_tau, helper, small):
        cfg = CONFIGS[name]
        nodes = (length,) if cfg.dimension == 1 else sides
        problem = solver.build_problem(replace(cfg, nodes=nodes, n_tau=n_tau))
        got, _ = _run(monkeypatch, problem, helper, small)
        assert _bits(got) == _bits(reference_run(problem))

    check()
