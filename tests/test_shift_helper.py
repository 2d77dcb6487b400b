"""The shift helper: a process that ``solver.run`` forks to shift half the
memory field's tau lanes at every step. No run may leave it behind, however
the run ends. ``test_reference_run.py`` checks that a run gives the same
bits with it as without it."""

import os

import numpy as np
import pytest

from _runs import run_python

from delaywave import solver
from delaywave.config import RunConfig

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_1D = RunConfig(nodes=(41,), m="2.5", u0="0.2*sin(pi*x)", u1="0.1*sin(2*pi*x)",
                f0="0.1*sin(2*pi*x)*cos(s)", t_end=0.5, sample_dt=0.05)


# Runs one CLI run in a fresh interpreter, so that no other child of the
# process can hide a leftover helper, then reports os.waitpid(-1, WNOHANG).
_SCRIPT = """
import os, signal, sys
from dataclasses import replace
from delaywave import cli, parallel, solver
from delaywave.config import load_preset, parse_config, serialize_config

mode, out = sys.argv[1], sys.argv[2]
parallel.workers = lambda: 2  # a helper whatever the host has
started = []
real_helper, real_step = solver._Helper, solver.step

def helper(plan):
    started.append(real_helper(plan))
    return started[-1]

def step(state, problem):
    if mode == "killed" and state.t >= 50 * problem.config.dt:
        os.kill(state.plan.helper.pid, signal.SIGKILL)
    return real_step(state, problem)

solver._Helper, solver.step = helper, step
if mode == "overflow":  # the threshold out of reach: u overflows to inf
    cfg = replace(parse_config(load_preset("blowup")), threshold=1e300)
else:
    cfg = replace(parse_config(load_preset("decay_exponential")), t_end=1.0)
path = os.path.join(out, "run.cfg")
with open(path, "w") as handle:
    handle.write(serialize_config(cfg))
try:
    code = cli.main(["--config", path, "--out", os.path.join(out, "run")])
finally:
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = "none"
    print(f"helpers started: {len(started)}; children left: {left}", flush=True)
sys.exit(code)
"""


def _cli_run(mode, tmp_path):
    return run_python(_SCRIPT, mode, tmp_path, timeout=120)


@pytest.mark.parametrize("mode, code", [("normal", 0), ("overflow", 3)])
def test_run_leaves_no_process(tmp_path, mode, code):
    done = _cli_run(mode, tmp_path)
    assert done.returncode == code, done.stderr
    assert "helpers started: 1; children left: none" in done.stdout


def test_run_whose_helper_dies_raises_and_leaves_no_process(tmp_path):
    # the helper is killed after 50 steps: the next hand-off to it, or the
    # end of the run, finds it gone, and the run ends with an uncaught
    # ChildProcessError (exit 1) instead of waiting for it
    done = _cli_run("killed", tmp_path)
    assert done.returncode == 1, done.stderr
    assert "ChildProcessError: the memory-field shift helper" in done.stderr
    assert "helpers started: 1; children left: none" in done.stdout
    assert not (tmp_path / "run" / "summary.json").exists()


def test_helper_is_used_in_the_stretches_that_measure_faster():
    # a clock on which a step takes `cost[split]` seconds. While the helper
    # is slower, it is tried after 1, 2, 4, 8 stretches, each try cut once
    # it has taken as long as a stretch without it; once it is faster, a try
    # finds it and it is kept; once it is slower again, its stretch is cut
    # and the other way taken. The bits are those of a state stepped
    # without a helper throughout.
    problem = solver.build_problem(_1D)
    state = solver.init_state(problem, shared=True)
    alone = solver.init_state(problem)
    state.plan = solver._Plan(problem, state.z)
    helper = solver._Helper(state.plan)
    clock, cost = [0.0], {True: 1.0, False: 0.5}

    def tick():  # read once per step, before the step's way is chosen
        clock[0] += cost[helper.split]
        return clock[0]

    def runs(steps):
        """(split, steps) of each stretch of `steps` steps run one way."""
        out = []
        for _ in range(steps):
            solver.step(state, problem)
            solver.step(alone, problem)
            if out and out[-1][0] == helper.split:
                out[-1][1] += 1
            else:
                out.append([helper.split, 1])
        return out

    helper.clock = tick
    stretch, cut = solver._STRETCH_STEPS, solver._STRETCH_STEPS // 2 + 1
    try:
        assert runs(1220) == [[True, stretch], [False, 2 * stretch], [True, cut],
                              [False, 2 * stretch], [True, cut], [False, 4 * stretch],
                              [True, cut], [False, 8 * stretch], [True, cut]]
        cost[True] = 0.25
        assert runs(1880) == [[False, 16 * stretch], [True, 2 * stretch], [False, cut],
                              [True, 2 * stretch], [False, cut], [True, 4 * stretch],
                              [False, cut], [True, 245]]
        cost[True] = 1.0
        slower = runs(200)
        assert slower[0][0] and slower[0][1] < stretch  # the stretch in progress is cut
        assert slower[1] == [False, 2 * stretch]  # a try, then a preferred stretch
    finally:
        assert helper.close()
    for name in ("u", "v"):
        assert np.array_equal(getattr(state, name).values, getattr(alone, name).values)
    assert np.array_equal(state.z, alone.z)
