"""The process model: a forked child uses one CPU, and a child that cannot be
forked does its work in the caller. A run and a sweep give the same bytes on
two CPUs, on one, where os.fork does not exist and where it fails."""

import errno
import logging
import os
from dataclasses import replace

import pytest

from delaywave import analysis, parallel
from delaywave.config import RunConfig, load_preset, parse_config
from delaywave.scenario import run_scenario, sweep

_DECAY = replace(parse_config(load_preset("decay_exponential")), t_end=0.5)
# a 17x17 box at negative energy, which certifies both embedding constants
_BOX = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(17, 17), n_tau=4, n_rho=9,
                 m="2.2 + 0.3*x*y", p="3.2 + 0.3*x", u0="20*sin(pi*x)*sin(pi*y)", t_end=0.05)
_BLOWUP = replace(parse_config(load_preset("blowup")), t_end=0.05, sample_dt=0.01)
_CHILDREN = ("the shift helper", "the embedding-constant certifier", "the sweep worker")


def _outputs(patch, way):
    """The csv and json texts of the decay and box runs and the sweep table
    of three blowup points, computed the given way on a host of two CPUs,
    each run certifying afresh; and the pids that called os.fork."""
    forks = []
    real = getattr(os, "fork", None)

    def counted():
        forks.append(os.getpid())
        if way == "fork-fails":
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if way == "one-cpu":
        patch.setattr(parallel, "workers", lambda: 1)
    if way == "no-fork":
        patch.delattr(os, "fork", raising=False)
        assert parallel.workers() == 1
    else:
        patch.setattr(os, "fork", counted)
    texts = []
    for config in (_DECAY, _BOX):
        patch.setattr(analysis, "_ratio_memo", {})
        result = run_scenario(config)
        texts += [result.csv_text, result.json_text]
    patch.setattr(analysis, "_ratio_memo", {})
    rows, table = sweep(_BLOWUP, "scale", [6.0, 7.0, 8.0])
    assert [row["error"] for row in rows] == [None] * 3
    return texts + [table], forks


@pytest.fixture(scope="module")
def two_cpus():
    """The outputs on two CPUs, where each run forks a helper and a
    certifier and the sweep two workers."""
    with pytest.MonkeyPatch.context() as patch:
        texts, forks = _outputs(patch, "two-cpus")
    # decay: helper and certifier; box: helper and two certifiers; sweep: two
    # workers and at least one certifier
    assert len(forks) >= 8
    return texts


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("way", ["one-cpu", "no-fork", "fork-fails"])
def test_outputs_do_not_depend_on_the_process_model(two_cpus, monkeypatch, caplog, way):
    with caplog.at_level(logging.WARNING, logger="delaywave"):
        texts, forks = _outputs(monkeypatch, way)
    assert texts == two_cpus
    if way == "one-cpu":
        return
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    warned = [r.getMessage() for r in caplog.records if "cannot start" in r.getMessage()]
    if way == "no-fork":
        assert not forks and not warned
        return
    # every child that could not start is named in a warning, once
    assert len(warned) == len(forks)
    for name in _CHILDREN:
        assert any(message.startswith(f"cannot start {name} (") for message in warned)
    assert all(any(message.startswith(f"cannot start {name} (") for name in _CHILDREN)
               for message in warned)
