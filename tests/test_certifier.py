"""The certifier: each miss of the certification memo forks a short-lived
child that maximizes the split ratio over the seeded family and sends the
ratio back on a pipe. ``test_reference_certify.py`` checks the bits it sends;
these tests check what stays out of the calling process and that a child
that fails is reported and reaped."""

import os
import re
import signal

import pytest

from _runs import run_python

from delaywave import analysis
from delaywave.analysis import embedding_constant_for_gate
from delaywave.spaces import make_grid

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _certify():
    return embedding_constant_for_gate(make_grid(1.0, 31), 3.0, 4.0, n_samples=200, seed=9)


def test_runs_load_no_numpy_random():
    # numpy.random imports secrets, which loads OpenSSL's libcrypto: about
    # 5 MB that only the certifier child may hold, in a single run and in a
    # sweep whose points run in forked workers alike; neither imports
    # multiprocessing
    code = ("import sys; from delaywave import parallel; "
            "from delaywave.config import load_preset, parse_config; "
            "from delaywave.scenario import run_scenario, sweep; "
            "parallel.workers = lambda: 2; "
            "loaded = lambda: [m in sys.modules for m in ('numpy.random', 'secrets')]; "
            "result = run_scenario(parse_config(load_preset('decay_exponential'))); "
            "seen = [loaded()]; "
            "rows, _ = sweep(parse_config(load_preset('blowup')), 'scale', [5.5, 6.0]); "
            "seen.append(loaded()); "
            "assert 'multiprocessing' not in sys.modules; "
            "assert result.summary['constants']['c_embed_gate'] > 0.0; "
            "assert all(row['summary']['constants']['c_embed_bound'] for row in rows); "
            "print(seen)")
    done = run_python(code, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[[False, False], [False, False]]"


def test_a_memo_miss_forks_one_child_and_a_hit_none(monkeypatch):
    monkeypatch.setattr(analysis, "_ratio_memo", {})
    forks = []
    real = os.fork

    def counted():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counted)
    first = _certify()
    assert forks == [os.getpid()]
    assert _certify() == first
    assert embedding_constant_for_gate(make_grid(1.0, 31), 3.0, 4.0, n_samples=200, seed=9,
                                       safety=3.0) == 1.5 * first
    assert len(forks) == 1


@pytest.mark.parametrize("mode", ["raises", "killed", "sends-nothing"])
def test_a_failed_certifier_raises_and_is_reaped(monkeypatch, mode):
    # the child raises (status 1), is killed by a signal, or exits 0 before
    # it sends the ratio; the child checks its pid so that a maximization
    # run in this process cannot end it
    caller = os.getpid()

    def fail(*args, **kwargs):
        if os.getpid() != caller and mode == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() != caller and mode == "sends-nothing":
            os._exit(0)
        raise RuntimeError("no ratio")

    monkeypatch.setattr(analysis, "_max_split_ratio", fail)
    monkeypatch.setattr(analysis, "_ratio_memo", {})
    with pytest.raises(ChildProcessError, match=r"certifier \(pid \d+\) failed") as info:
        _certify()
    pid = int(re.search(r"pid (\d+)", str(info.value)).group(1))
    assert pid != caller
    with pytest.raises(ChildProcessError):  # reaped: no such child is left
        os.waitpid(pid, os.WNOHANG)
    assert analysis._ratio_memo == {}


# A CLI run whose certifier fails, in a fresh interpreter: a line is left in
# stdout's buffer (a pipe, so block-buffered) before the child is forked; the
# child must not flush it again. Then os.waitpid(-1, WNOHANG) is reported.
_SCRIPT = """
import os, sys
from dataclasses import replace
from delaywave import analysis, cli
from delaywave.config import load_preset, parse_config, serialize_config

def fail(*args, **kwargs):
    raise RuntimeError("no ratio")

analysis._max_split_ratio = fail
out = sys.argv[1]
path = os.path.join(out, "run.cfg")
with open(path, "w") as handle:
    handle.write(serialize_config(replace(parse_config(load_preset("decay_exponential")),
                                          t_end=1.0)))
print("before the run")
try:
    code = cli.main(["--config", path, "--out", os.path.join(out, "run")])
finally:
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = "none"
    print(f"children left: {left}")
sys.exit(code)
"""


def test_cli_run_whose_certifier_fails_exits_1_and_prints_once(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # a buffered stdout
    done = run_python(_SCRIPT, tmp_path, env=env, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "ChildProcessError: the embedding-constant certifier (pid" in done.stderr
    assert done.stdout == "before the run\nchildren left: none\n"
    assert not (tmp_path / "run" / "summary.json").exists()


def test_cli_run_whose_certifier_raises_prints_the_childs_traceback(tmp_path):
    code = ("import sys; from delaywave import analysis, cli; "
            "analysis._max_split_ratio = lambda *args, **kwargs: 1 / 0; "
            "sys.exit(cli.main(['--preset', 'conservation', '--out', sys.argv[1]]))")
    done = run_python(code, tmp_path / "run", timeout=120)
    assert done.returncode == 1, done.stderr
    assert "ZeroDivisionError: division by zero" in done.stderr
    assert "ChildProcessError: the embedding-constant certifier (pid" in done.stderr
