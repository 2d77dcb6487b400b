import csv
import hashlib
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import pytest

from _runs import preset_result, run_python

from delaywave import analysis, cli
from delaywave.config import _apply_axis, load_preset, parse_config, serialize_config
from delaywave.errors import ConfigError, NumericalError
from delaywave.scenario import CSV_COLUMNS, run_scenario, sweep, trajectory_csv

GOLDEN_HEADER = ("t,E,H,I,J,F,L,phi,kinetic,elastic,delay_energy,"
                 "source_potential,damping_modular,delay_modular,sup_u")

ZERO_DATA = """
[grid]
nodes = 51

[exponents]
m = 2
p = 3

[delay]
mu1 = 0.5
mu2 = 0.1
tau1 = 0.5
tau2 = 1.0

[initial]
u0 = 0
u1 = 0

[run]
t_end = 0.5
"""


def test_csv_header_is_golden():
    assert ",".join(CSV_COLUMNS) == GOLDEN_HEADER


def test_zero_data_scenario_all_zero_rows():
    result = run_scenario(parse_config(ZERO_DATA))
    lines = result.csv_text.strip().splitlines()
    assert lines[0] == GOLDEN_HEADER
    for line in lines[2:]:
        cells = line.split(",")
        assert cells[6] == "nan"  # blow-up indicator undefined at zero deficit
        values = [float(c) for i, c in enumerate(cells) if i != 6 and i != 0]
        assert all(v == 0.0 for v in values)
    assert result.summary["classification"] == "global-decay"


def test_run_cli_preset_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["--preset", "blowup", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["classification"] == "blow-up"
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()
    assert summary["wall_time_seconds"] is None  # bit-stable files carry no timing


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[exponents]\nm = 1.5\n")
    code = cli.main(["--config", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "config"


@pytest.mark.parametrize("make", [
    lambda path: None,  # missing
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"[grid]\nnodes = \xff\xfe\n"),  # not UTF-8
], ids=["missing", "directory", "not-utf8"])
def test_cli_unreadable_config_exit_2(tmp_path, capsys, make):
    path = tmp_path / "doc.cfg"
    make(path)
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "o")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "config" and str(path) in error["message"]


@pytest.mark.parametrize("doc,where", [
    ("[exponents]\nm = 2\nm = 3\n", {"key": "m", "line": 3}),
    ("[grid]\nnodes 51\n", {"line": 2, "column": 1}),
    ("[exponents]\nm = 2\n", {"key": "p"}),
])
def test_cli_config_error_carries_location(tmp_path, capsys, doc, where):
    bad = tmp_path / "bad.cfg"
    bad.write_text(doc)
    assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert {k: error[k] for k in ("key", "line", "column") if k in error} == where


def test_cli_bad_sweep_value_exit_2(tmp_path, capsys):
    code = cli.main(["--preset", "blowup", "--sweep", "scale=6,abc",
                     "--out", str(tmp_path / "o")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "config" and error["key"] == "scale"
    assert "abc" in error["message"]


@pytest.mark.parametrize("key,value", [("t_end", "nan"), ("t_end", "inf"), ("mu1", "nan")])
def test_cli_non_finite_number_exit_2(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", ZERO_DATA, flags=re.M))
    code = cli.main(["--config", str(bad), "--out", str(tmp_path / "o")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "config" and error["key"] == key
    # the document sets the key, so the error names its line too
    line = next(i for i, text in enumerate(ZERO_DATA.splitlines(), 1)
                if text.startswith(f"{key} = "))
    assert error["line"] == line
    assert error["message"] == f"{key} must be a finite number, got {value} (line {line})"


def test_cli_bad_mu2_table_entry_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(ZERO_DATA.replace("mu2 = 0.1", "mu2_table = a,0.1; 1.0,0.2"))
    code = cli.main(["--config", str(bad), "--out", str(tmp_path / "o")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "config"
    assert error["key"] == "mu2_table" and error["line"] == 11
    assert "'a,0.1'" in error["message"]


@pytest.mark.parametrize("axis", ["n_tau=2.2,2.7", "seed=1.5", "n_rho=32,2.5"])
def test_cli_non_integer_sweep_value_exit_2(tmp_path, capsys, axis):
    out = tmp_path / "o"
    code = cli.main(["--preset", "blowup", "--sweep", axis, "--out", str(out)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "config" and error["key"] == axis.partition("=")[0]
    assert "must be an integer" in error["message"]
    assert not out.exists()  # no point ran


@pytest.mark.parametrize("axis,repeated", [("scale=6,6", "6.0"), ("scale=5.5,6,6.0", "6.0"),
                                           ("mu1=0,-0", "-0.0"), ("n_tau=16,8,16", "16.0"),
                                           ("scale=nan,nan", "nan")])
def test_cli_repeated_sweep_value_exit_2_before_any_step(tmp_path, capsys, monkeypatch,
                                                          axis, repeated):
    # a point given twice would run twice and write its directory twice
    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    out = tmp_path / "o"
    code = cli.main(["--preset", "blowup", "--sweep", axis, "--out", str(out)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    key = axis.partition("=")[0]
    assert error == {"type": "config", "key": key,
                     "message": f"sweep value {repeated} of {key} is repeated"}
    assert not out.exists()


@pytest.mark.parametrize("args, out", [
    (["--preset", "conservation"], "file"),
    (["--preset", "conservation"], "file/sub"),
    (["--preset", "blowup", "--sweep", "scale=6,7"], "file"),
], ids=["run-file", "run-under-file", "sweep-file"])
def test_cli_out_that_cannot_be_a_directory_exit_2_before_any_step(tmp_path, capsys,
                                                                   monkeypatch, args, out):
    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    code = cli.main(args + ["--out", out])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error == {"type": "config", "message": f"--out {out}: file is not a directory"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("args", [["--preset", "conservation"],
                                  ["--preset", "blowup", "--sweep", "scale=6,7"]],
                         ids=["run", "sweep"])
def test_cli_out_that_is_a_dangling_symlink_exit_2_before_any_step(tmp_path, capsys,
                                                                    monkeypatch, args):
    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    monkeypatch.chdir(tmp_path)
    os.symlink("missing", "link")
    code = cli.main(args + ["--out", "link"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error == {"type": "config", "message": "--out link: link is not a directory"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]
    assert os.readlink(tmp_path / "link") == "missing"


def test_cli_condition_failure_exit_4_and_override(tmp_path, capsys):
    doc = """
[exponents]
m = 2
p = 3

[delay]
mu1 = 0.2
mu2 = 0.6
tau1 = 0.5
tau2 = 1.0

[initial]
u0 = 0.01*sin(pi*x)
u1 = 0

[run]
t_end = 0.05
"""
    path = tmp_path / "unstable.cfg"
    path.write_text(doc)
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "a")])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["error"]["type"] == "conditions"

    code = cli.main(["--config", str(path), "--out", str(tmp_path / "b"),
                     "--override-conditions"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("p", ["2", "1.5"])
def test_cli_gate_fails_when_p_is_at_most_2(tmp_path, capsys, p):
    # conservation sets override_conditions, so the run goes on past the
    # failed exponent chain; the gate must then fail, not crash
    doc = re.sub(r"(?m)^p = .*$", f"p = {p}", load_preset("conservation"))
    path = tmp_path / "p.cfg"
    path.write_text(doc)
    out = tmp_path / "out"
    code = cli.main(["--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gate"]["passed"] is False
    assert (out / "trajectory.csv").exists()


def test_cli_numerical_error_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "run_scenario", boom)
    code = cli.main(["--preset", "blowup", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"]["type"] == "numerical"


def test_cli_overflow_exit_3(tmp_path, capsys):
    # with the threshold out of reach the blow-up preset overflows to inf
    from dataclasses import replace
    cfg = replace(parse_config(load_preset("blowup")), threshold=1e300)
    path = tmp_path / "overflow.cfg"
    path.write_text(serialize_config(cfg))
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    error = json.loads(captured.out)["error"]
    assert error["type"] == "numerical"
    assert "numerical overflow" in error["message"]
    context = error["context"]
    assert set(context) == {"t", "step", "sup_u", "sup_v"}
    assert isinstance(context["step"], int) and context["t"] > 0.0
    # a non-finite sup is written as a string, as summary.json does
    assert "inf" in (context["sup_u"], context["sup_v"]) or \
        "nan" in (context["sup_u"], context["sup_v"])
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_blowup_run_loads_no_scipy(tmp_path):
    # a whole blow-up run, T_low included, needs numpy only: importing scipy
    # would be most of a run's start-up time and memory
    out = tmp_path / "out"
    code = ("import sys; from delaywave import cli; "
            f"code = cli.main(['--preset', 'blowup', '--out', {str(out)!r}]); "
            "sys.exit(code or sorted(m for m in sys.modules if m.startswith('scipy')) or 0)")
    done = run_python(code, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "summary.json").read_text())["T_low"] > 0.0


def test_2d_simulation_loads_no_openssl():
    # hashlib loads OpenSSL's libcrypto, 3.4 MB of resident memory; only
    # config_hash needs it, and analyse takes the hash after the run has
    # freed its memory field, so neither the CLI's import nor a 2-D run loads it
    code = ("import sys; import delaywave.cli; "
            "loaded = ['_hashlib' in sys.modules]; "
            "from delaywave.config import RunConfig, config_hash; "
            "from delaywave.scenario import simulate; "
            "cfg = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(17, 17), n_tau=4, n_rho=9, "
            "m='2.2 + 0.3*x*y', p='3.2 + 0.3*x', u0='20*sin(pi*x)*sin(pi*y)', t_end=0.05); "
            "problem, trajectory = simulate(cfg); "
            "loaded.append('_hashlib' in sys.modules); "
            "config_hash(cfg); "
            "loaded.append('_hashlib' in sys.modules); "
            "print(loaded)")
    done = run_python(code, timeout=300)
    assert done.returncode == 0, done.stderr
    # the hash itself loads it: the check sees the module it looks for
    assert done.stdout.strip() == "[False, False, True]"


def _python(code, *args):
    """``code`` run by a new interpreter importing delaywave from where this
    process does, with ``args`` as its argv; its stdout's last line, read as
    JSON."""
    done = run_python(code, *args, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_cli_runs_map_no_libcrypto(tmp_path):
    # OpenSSL's libcrypto is about 3.3 MB resident, and no run needs it: the
    # process entry makes hashlib and hmac use CPython's own hashes, so
    # neither config_hash in the run's process nor numpy.random's import of
    # secrets in a forked child maps it. _hashlib is then a None entry of
    # sys.modules, so the maps are checked, not the key; a child that imports
    # _hashlib afresh shows that the check sees the library it looks for
    code = """
import contextlib, json, sys
import delaywave.__main__ as entry
from delaywave import parallel

def libcrypto():
    with open("/proc/self/maps") as maps:
        return "libcrypto" in maps.read()

def child():
    import numpy.random
    numpy.random.default_rng(1).uniform()
    seen = [libcrypto()]
    del sys.modules["_hashlib"]
    import _hashlib
    return seen + [libcrypto()]

out = sys.argv[1]
assert entry.main(["--preset", "decay_exponential", "--out", out + "/run"]) == 0
seen = [libcrypto()]
assert entry.main(["--preset", "blowup", "--sweep", "scale=5.5,6", "--out", out + "/sweep"]) == 0
seen.append(libcrypto())
with contextlib.closing(parallel.Child(lambda: [child()], "a child")) as forked:
    seen.append(forked.receive())
print(json.dumps(seen))
"""
    assert _python(code, tmp_path) == [False, False, [False, True]]


_HASHES = """
import json, sys
import delaywave.__main__ as entry
assert entry.main(["--preset", "conservation", "--out", sys.argv[1]]) == 0
import hashlib
print(json.dumps(type(hashlib.sha256()).__module__))
"""


@pytest.mark.parametrize("builtin_sha256", [True, False])
def test_cli_config_hash_is_the_openssl_digest(tmp_path, builtin_sha256):
    # where CPython's own sha256 can be found, the process entry takes the
    # hash with it; where it cannot, the entry leaves _hashlib alone. The
    # digest is that of a library run in this process, with OpenSSL, either way
    blocked = "" if builtin_sha256 else \
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    used = _python(blocked + _HASHES, tmp_path / "run")
    if importlib.util.find_spec("_hashlib") is None:
        pytest.skip("this Python has no OpenSSL")
    assert type(hashlib.sha256()).__module__ == "_hashlib"
    assert used in (("_sha2", "_sha256") if builtin_sha256 else ("_hashlib",))
    written = (tmp_path / "run" / "summary.json").read_text()
    result = preset_result("conservation")
    assert json.loads(written)["config_hash"] == result.summary["config_hash"]
    assert written == result.json_text


def test_in_process_cli_main_leaves_hashlib_to_its_caller(tmp_path):
    # the rule that keeps OpenSSL out of a CLI run is the process entry's:
    # after cli.main in a caller's process, that caller's hashlib is
    # OpenSSL's, scrypt included, where it has OpenSSL
    code = """
import importlib.util, json, sys
from delaywave import cli
openssl = importlib.util.find_spec("_hashlib") is not None
assert cli.main(["--preset", "conservation", "--out", sys.argv[1]]) == 0
import hashlib
print(json.dumps([openssl, type(hashlib.sha256()).__module__, hasattr(hashlib, "scrypt")]))
"""
    openssl, used, scrypt = _python(code, tmp_path / "run")
    if not openssl:
        pytest.skip("this Python has no OpenSSL")
    assert used == "_hashlib"
    assert scrypt


def test_cli_lifespan_quadrature_cap_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "_MAX_PANELS", 1)
    code = cli.main(["--preset", "blowup", "--out", str(tmp_path)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 3
    assert error["type"] == "numerical"
    assert "life-span quadrature did not converge" in error["message"]
    assert set(error["context"]) == {"lower", "upper", "panels"}


def _fresh_import(blas_threads):
    """Import delaywave.cli in a new interpreter with OPENBLAS_NUM_THREADS set
    to blas_threads (None: unset); report its threads and that variable."""
    code = ("import json, os, threading, delaywave.cli; "
            "tasks = '/proc/self/task'; "
            "print(json.dumps([threading.active_count(), "
            "len(os.listdir(tasks)) if os.path.isdir(tasks) else None, "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = run_python(code, env=env, timeout=60, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_starts_no_thread_and_single_threads_blas():
    python_threads, os_threads, blas = _fresh_import(None)
    assert python_threads == 1
    assert os_threads in (None, 1)  # None: no /proc to count OS threads
    assert blas == "1"


def test_cli_import_keeps_the_users_blas_threads():
    assert _fresh_import("2")[2] == "2"


def test_sweep_records_overflow_as_failed_point(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(["--preset", "blowup", "--sweep", "threshold=1e300",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    header, row = csv.reader((out / "sweep.csv").read_text().splitlines())
    cells = dict(zip(header, row, strict=True))
    assert cells["classification"] == "failed"
    assert cells["error"].startswith("NumericalError: numerical overflow")


def test_cli_seed_flag_changes_certified_constants(tmp_path, capsys):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert cli.main(["--preset", "blowup", "--out", str(out1), "--seed", "1"]) == 0
    assert cli.main(["--preset", "blowup", "--out", str(out2), "--seed", "2"]) == 0
    capsys.readouterr()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["constants"]["c_embed_gate"] != s2["constants"]["c_embed_gate"]
    # trajectories are seed-independent: the PDE run itself uses no randomness
    assert s1["energy"] == s2["energy"]


@pytest.mark.parametrize("edit,key,message", [
    # f0 is finite at s = 0 but divides by zero at s = -1 = -tau2
    (("u1 = 0\n", "u1 = 0\nf0 = sin(pi*x)/(1 + 1/s)\n"), "f0", r"at s = -1$"),
    # nan at the wall x = 0, about 10*pi at the nodes the run keeps
    (("u0 = 0\n", "u0 = 10*sin(pi*x)/x\n"), "threshold", r"initial sup-norm 31\.39"),
    # finite samples that overflow once scaled; the history names its first
    # node, rho_1 tau_1 = 0.5/31
    (("u0 = 0\n", "u0 = 1e300*sin(pi*x)\nscale = 1e10\n"), "u0", r"with scale = 1e\+10"),
    (("u1 = 0\n", "u1 = 1e300*sin(pi*x)\nscale = 1e10\n"), "u1", r"with scale = 1e\+10"),
    (("u1 = 0\n", "u1 = 0\nf0 = 1e300*sin(pi*x)\nscale = 1e10\n"), "f0",
     r"is not finite on the grid at s = -0\.016129$"),
], ids=["history", "interior-threshold", "scaled-u0", "scaled-u1", "scaled-f0"])
def test_data_errors_exit_2_before_any_step(tmp_path, capsys, monkeypatch, edit, key,
                                            message):
    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    doc = tmp_path / "data.cfg"
    doc.write_text(ZERO_DATA.replace(*edit) + "threshold = 5\n")
    code = cli.main(["--config", str(doc), "--out", str(tmp_path / "o")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "config" and error["key"] == key
    assert re.search(message, error["message"])


@pytest.mark.parametrize("source,key,value,line", [
    ("decay_exponential", "m", "2 + 1/(x - 0.5)^2", 8),
    ("box-2d", "p", "3.2 + 0.3*x + 1/(x - 0.5)^2", 11),
])
def test_non_finite_exponent_exits_2_before_any_step(tmp_path, capsys, monkeypatch, source,
                                                     key, value, line):
    # both are inf at the node x = 0.5; the run must stop at the validator,
    # without a warning from the delay weight or the log-Hoelder check
    import warnings

    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    if source == "box-2d":
        text = (Path(__file__).resolve().parents[1] / "bench" / "box-2d.cfg").read_text()
    else:
        text = load_preset(source)
    doc = tmp_path / "exponent.cfg"
    doc.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["--config", str(doc), "--out", str(tmp_path / "o")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert (error["type"], error["key"], error["line"]) == ("config", key, line)
    assert error["message"] == f"{key}: {value!r} takes the value inf on the grid (line {line})"


@pytest.mark.parametrize("route", ["document", "flag", "sweep"])
def test_negative_seed_is_a_config_error_before_any_step(tmp_path, capsys, monkeypatch,
                                                          route):
    # the certification generator rejects a negative seed, so the validator
    # must, before the simulation runs
    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    out = tmp_path / "o"
    if route == "document":
        doc = tmp_path / "seed.cfg"
        doc.write_text(ZERO_DATA + "seed = -1\n")
        argv = ["--config", str(doc)]
    else:
        argv = ["--preset", "conservation"]
        argv += ["--seed", "-1"] if route == "flag" else ["--sweep", "seed=-1"]
    code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr().out
    if route == "sweep":
        assert code == 0
        row = (out / "sweep.csv").read_text().splitlines()[1]
        assert row.endswith(',failed,,,,,,,"ConfigError: seed must be nonnegative, got -1"')
        return
    error = json.loads(captured)["error"]
    assert code == 2
    assert error["type"] == "config" and error["key"] == "seed"
    assert error["message"].startswith("seed must be nonnegative, got -1")
    assert error.get("line") == (ZERO_DATA.count("\n") + 1 if route == "document" else None)
    assert not out.exists()

@pytest.mark.filterwarnings("error")  # no ComplexWarning: nothing is cast to float
@pytest.mark.parametrize("key,value", [
    ("m", "10^400"),  # OverflowError
    ("p", "1/0"),  # ZeroDivisionError
    ("p", "(0-1)^0.5"),  # a complex constant
    ("u1", "1/0"),  # a key no other rule samples
    ("f0", "0.1*sin(pi*x)*cos(s)*(0-1)^0.5"),
    ("u0", "0.1*sin(pi*x)+(0-1)^0.5"),  # complex on the grid, real part usable
    # initial data that is nan or inf at an interior node, without a warning
    ("u0", "(x - 2)^0.5"),
    ("u1", "1/(x - 0.5)"),  # x = 0.5 is a node of the 51
    ("f0", "(s - 1)^0.5"),  # nan at s = 0 in the history's arithmetic
])
def test_expression_that_cannot_be_evaluated_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                                 key, value):
    from delaywave import solver

    def no_step(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(solver, "step", no_step)
    doc = ZERO_DATA.replace("u1 = 0\n", "u1 = 0\nf0 = 0\n")
    doc = re.sub(rf"^{key} = .*$", f"{key} = {value}", doc, flags=re.M)
    line = doc.splitlines().index(f"{key} = {value}") + 1
    path = tmp_path / "bad.cfg"
    path.write_text(doc)
    out = tmp_path / "o"
    code = cli.main(["--config", str(path), "--out", str(out)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert (error["type"], error["key"], error["line"]) == ("config", key, line)
    assert error["message"].startswith(f"{key}: ") and repr(value) in error["message"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,value", [
    ("u0", "0.1*sin(pi*x)/x"),  # 0/0 only at x = 0, a boundary node
    # 1/s is inf at s = 0 as in the history fill, where a Python 0.0 raised
    # ZeroDivisionError; tau2 = 0.9 keeps the fill off the pole at s = -1
    ("f0", "sin(pi*x)/(1 + 1/s)"),
])
def test_initial_data_checks_what_the_run_reads(tmp_path, capsys, key, value):
    doc = ZERO_DATA.replace("u1 = 0\n", "u1 = 0\nf0 = 0\n").replace("tau2 = 1.0", "tau2 = 0.9")
    doc = re.sub(rf"^{key} = .*$", f"{key} = {value}", doc, flags=re.M)
    path = tmp_path / "ok.cfg"
    path.write_text(doc)
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]
    energies = [float(row.split(",")[1]) for row in rows]
    assert len(energies) > 2 and all(map(math.isfinite, energies))


def test_sweep_single_point_matches_run_scenario(tmp_path):
    cfg = parse_config(load_preset("blowup"))
    solo = run_scenario(cfg)
    rows, _ = sweep(cfg, "scale", [cfg.scale])
    assert rows[0]["summary"]["config_hash"] == solo.summary["config_hash"]
    assert rows[0]["summary"] == solo.summary


def test_sweep_permutation_invariant(tmp_path):
    cfg = parse_config(load_preset("blowup"))
    _, table_a = sweep(cfg, "scale", [7.0, 6.0, 8.0])
    _, table_b = sweep(cfg, "scale", [8.0, 7.0, 6.0])
    assert table_a == table_b


def test_sweep_permutation_invariant_with_nan():
    # NaN compares false with everything; its row must still sort last
    cfg = parse_config(load_preset("blowup"))
    _, table_a = sweep(cfg, "mu1", [float("nan"), -1.0, -2.0])
    _, table_b = sweep(cfg, "mu1", [-2.0, -1.0, float("nan")])
    assert table_a == table_b
    assert [line.split(",")[0] for line in table_a.splitlines()[1:]] == \
        ["-2.0", "-1.0", "nan"]


def test_sweep_invalid_key_is_config_error():
    from delaywave.errors import ConfigError
    import pytest

    cfg = parse_config(load_preset("blowup"))
    with pytest.raises(ConfigError, match="scalar config key"):
        sweep(cfg, "wavelength", [1.0])


def test_sweep_takes_every_scalar_key():
    # the sweep's keys come from the document's key table: the log-Hoelder
    # keys are scalar keys like any other, a boolean is not
    cfg = parse_config(load_preset("blowup"))
    rows, table = sweep(cfg, "log_holder_delta", [0.3, 0.5])
    assert [row["error"] for row in rows] == [None, None]
    assert [row["summary"]["config"]["log_holder_delta"] for row in rows] == [0.3, 0.5]
    assert table.splitlines()[0].startswith("log_holder_delta,")
    with pytest.raises(ConfigError, match="scalar config key"):
        sweep(cfg, "disable_source", [1.0])


def test_sweep_records_failures_and_continues():
    cfg = parse_config(load_preset("blowup"))
    # scale far beyond the threshold: init-sup check fails per point
    rows, table = sweep(cfg, "scale", [6.0, 1e9])
    assert rows[0]["error"] is None
    assert rows[1]["error"] is not None
    assert "failed" in table.splitlines()[2]


@pytest.mark.parametrize("key,value", [
    ("t_end", -1.0), ("n_rho", 2.0), ("decay_factor", -1.0), ("m", 1.5),
    ("p", 0.5), ("n_tau", 1.0), ("tau1", 2.0), ("mu1", -1.0),
    ("t_end", float("inf")),
])
def test_sweep_point_meets_the_document_rules(key, value):
    # a sweep point fails as a document with the same value fails to parse,
    # with the same message; only the document's error has a line to name
    cfg = parse_config(load_preset("blowup"))
    with pytest.raises(ConfigError) as doc_error:
        parse_config(serialize_config(_apply_axis(cfg, key, value)))
    assert doc_error.value.key == key and doc_error.value.line is not None
    rows, table = sweep(cfg, key, [value])
    assert rows[0]["summary"] is None
    assert rows[0]["error"] == f"ConfigError: {doc_error.value.message}"
    assert table.splitlines()[1].split(",")[1] == "failed"


def test_sweep_constant_exponent_axis():
    from dataclasses import replace
    cfg = replace(parse_config(load_preset("blowup")), t_end=0.05, sample_dt=0.01)
    rows, _ = sweep(cfg, "m", [2.0, 2.5])
    assert all(r["error"] is None for r in rows)
    assert rows[0]["summary"]["config"]["m"] == "2.0"
    assert rows[1]["summary"]["config"]["m"] == "2.5"


def test_sweep_scale_spans_decay_to_blowup():
    # small gate-passing data decays, large negative-energy data blows up;
    # the transition point itself is data, not asserted
    from dataclasses import replace
    cfg = replace(parse_config(load_preset("blowup")),
                  dt=None, t_end=8.0, threshold=1e3, sample_dt=0.1,
                  decay_factor=0.05)
    rows, _ = sweep(cfg, "scale", [0.05, 40.0])
    small, large = rows[0]["summary"], rows[1]["summary"]
    assert small["gate"]["passed"] and small["classification"] == "global-decay"
    assert large["flags"]["negative_initial_energy"]
    assert large["classification"] == "blow-up"


def test_instability_preset_runs_under_override():
    from dataclasses import replace
    cfg = replace(parse_config(load_preset("instability_explore")), t_end=1.0)
    assert cfg.override_conditions
    result = run_scenario(cfg)
    assert not result.summary["flags"]["mass_condition"]
    assert result.summary["classification"] in ("blow-up", "global-decay",
                                                "inconclusive")


def test_csv_round_trip_values(decay_result):
    lines = trajectory_csv(decay_result.trajectory).strip().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    rep0 = decay_result.trajectory.reports[0]
    assert float(first["E"]) == rep0.total_energy
    assert float(first["phi"]) == rep0.source_potential
    assert float(first["H"]) == rep0.energy_deficit
