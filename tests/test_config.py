import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from delaywave.config import (
    PRESET_NAMES,
    config_hash,
    load_preset,
    parse_config,
    resolve_config,
    serialize_config,
)
from delaywave.errors import ConfigError
from delaywave.solver import build_problem

MINIMAL = """
[exponents]
m = 2
p = 3

[delay]
mu1 = 0.5
mu2 = 0.1
tau1 = 0.5
tau2 = 1.0

[initial]
u0 = 0.1*sin(pi*x)
u1 = 0

[run]
t_end = 1.0
"""

DOC_2D = """
[grid]
dimension = 2
length_x = 1.0
length_y = 2.0
nodes_x = 17
nodes_y = 19

[exponents]
m = 2 + 0.1*x*y
p = 3.5

[delay]
mu1 = 0.5
mu2_table = 0.5,0.1; 0.75,0.2; 1.0,0.1
tau1 = 0.5
tau2 = 1.0

[initial]
u0 = 0.1*sin(pi*x)*sin(pi*y/2)
u1 = 0

[run]
t_end = 0.5
"""


def test_minimal_document_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.dimension == 1
    assert cfg.nodes == (201,)
    assert cfg.n_rho == 32
    assert cfg.n_tau == 16
    assert cfg.threshold == 1e6
    assert cfg.dt is None and cfg.sample_dt is None  # resolved at run time
    assert cfg.f0 == "0"
    assert cfg.scale == 1.0
    assert not cfg.override_conditions


def test_damping_exponent_lower_bound():
    bad = MINIMAL.replace("m = 2", "m = 1.5")
    with pytest.raises(ConfigError, match=r"m\(x\) >= 2"):
        parse_config(bad)


def test_unknown_key_rejected_with_line():
    bad = MINIMAL + "\n[output]\nmystery = 1\n"
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[wavelets]\nfoo = 1\n")


def test_duplicate_key_rejected():
    bad = MINIMAL.replace("mu1 = 0.5", "mu1 = 0.5\nmu1 = 0.6")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(bad)


def test_missing_required_key():
    bad = MINIMAL.replace("t_end = 1.0", "")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(bad)


def test_expression_errors_carry_text():
    bad = MINIMAL.replace("u0 = 0.1*sin(pi*x)", "u0 = 0.1*sin(pi*q)")
    with pytest.raises(ConfigError, match="pi\\*q"):
        parse_config(bad)


def test_mu2_table_exclusive_and_interpolated():
    doc = MINIMAL.replace("mu2 = 0.1", "mu2_table = 0.5,0.1; 1.0,0.3")
    cfg = parse_config(doc)
    assert cfg.mu2 is None
    assert cfg.mu2_table == ((0.5, 0.1), (1.0, 0.3))
    prob = build_problem(cfg)
    # trapezoid mass of the linear interpolant: mean 0.2 over width 0.5
    assert prob.kernel.mass == pytest.approx(0.1, abs=1e-12)

    both = MINIMAL.replace("mu2 = 0.1", "mu2 = 0.1\nmu2_table = 0.5,0.1; 1.0,0.3")
    with pytest.raises(ConfigError, match="not both"):
        parse_config(both)


def test_negative_density_rejected():
    bad = MINIMAL.replace("mu2 = 0.1", "mu2 = -0.1")
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(bad)


def test_cfl_violation_rejected():
    bad = MINIMAL + "dt = 0.1\n"
    with pytest.raises(ConfigError, match="CFL"):
        parse_config(bad)


def test_threshold_below_initial_sup_rejected():
    bad = MINIMAL + "threshold = 0.05\n"
    with pytest.raises(ConfigError, match="threshold"):
        parse_config(bad)


def test_threshold_reads_interior_nodes_only():
    # u0 = 0.1/x is inf at the wall x = 0, which the run zeroes; its sup-norm
    # over the nodes the run keeps is 0.1/h, far below the threshold
    resolved = resolve_config(parse_config(MINIMAL.replace("u0 = 0.1*sin(pi*x)", "u0 = 0.1/x")))
    assert resolved.config.threshold == 1e6
    # 10*sin(pi*x)/x is nan at x = 0 and about 10*pi inside
    bad = MINIMAL.replace("u0 = 0.1*sin(pi*x)", "u0 = 10*sin(pi*x)/x") + "threshold = 5\n"
    with pytest.raises(ConfigError, match="initial sup-norm 31.") as err:
        parse_config(bad)
    assert err.value.key == "threshold"


def test_config_imports_no_solver():
    # the config and its rules stand without the integrator
    code = "import sys, delaywave.config; sys.exit('delaywave.solver' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_tau_ordering_rejected():
    bad = MINIMAL.replace("tau2 = 1.0", "tau2 = 0.25")
    with pytest.raises(ConfigError, match="tau1"):
        parse_config(bad)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_parse_and_round_trip(name):
    cfg = parse_config(load_preset(name))
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_hash(again) == config_hash(cfg)


def test_round_trip_2d_and_tables():
    cfg = parse_config(DOC_2D)
    assert cfg.dimension == 2 and cfg.nodes == (17, 19)
    assert parse_config(serialize_config(cfg)) == cfg


# The expression and table keys; every other key holds a number, an integer,
# a boolean or ``auto``.
_NON_SCALAR_KEYS = {"m", "p", "mu2", "mu2_table", "u0", "u1", "f0"}


@pytest.mark.parametrize("doc,n_keys", [(MINIMAL, 22), (DOC_2D, 24)], ids=["1d", "2d"])
def test_every_scalar_key_error_names_key_and_line(doc, n_keys):
    lines = serialize_config(parse_config(doc)).splitlines()
    keys = []
    for index, line in enumerate(lines):
        key, sep, _ = line.partition(" = ")
        if not sep or key in _NON_SCALAR_KEYS:
            continue
        keys.append(key)
        bad = "\n".join(lines[:index] + [f"{key} = abc"] + lines[index + 1:])
        with pytest.raises(ConfigError) as caught:
            parse_config(bad)
        assert (caught.value.key, caught.value.line) == (key, index + 1)
    assert len(keys) == n_keys


@pytest.mark.parametrize("key,value", [
    ("length", "-1"), ("nodes", "2"),
    ("length_x", "0"), ("length_y", "0"), ("nodes_x", "2"), ("nodes_y", "1"),
])
def test_grid_errors_name_their_key(key, value):
    doc = MINIMAL if key in ("length", "nodes") else DOC_2D
    lines = serialize_config(parse_config(doc)).splitlines()
    bad = "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                    for line in lines)
    message = "domain length must be positive" if key.startswith("length") \
        else "need at least 3 nodes per axis"
    with pytest.raises(ConfigError, match=message) as caught:
        parse_config(bad)
    assert caught.value.key == key



@pytest.mark.parametrize("key,value,message", [
    ("t_end", "-1", "t_end must be positive"),
    ("threshold", "0", "threshold must be positive"),
    ("mu1", "-0.5", "mu1 must be nonnegative"),
    ("tau1", "2.0", "need 0 < tau1 < tau2"),
    ("n_tau", "1", "n_tau must be at least 2"),
    ("n_rho", "2", "n_rho must be at least 3"),
    ("log_holder_delta", "1.5", r"log_holder_delta must lie in \(0, 1\)"),
    ("decay_factor", "0", "decay_factor must be positive"),
    ("dt", "0.1", "CFL"),
    ("sample_dt", "0", "sample_dt must be positive"),
    ("sample_dt", "-1", "sample_dt must be positive"),
    ("m", "1.5", r"m\(x\) >= 2"),
    ("seed", "-1", "seed must be nonnegative"),
    ("length_y", "0", "domain length must be positive"),
    ("nodes_x", "2", "need at least 3 nodes per axis"),
])
def test_range_error_names_key_and_line(key, value, message):
    # a rule broken by a key the document sets names that key's line
    doc = DOC_2D if key in ("length_y", "nodes_x") else MINIMAL
    lines = serialize_config(parse_config(doc)).splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    bad = "\n".join(lines[:index] + [f"{key} = {value}"] + lines[index + 1:])
    with pytest.raises(ConfigError, match=message) as caught:
        parse_config(bad)
    assert (caught.value.key, caught.value.line) == (key, index + 1)
    assert str(caught.value) == f"{caught.value.message} (line {index + 1})"


@pytest.mark.parametrize("key,value,bad", [
    ("m", "2 + 1/(x - 0.5)^2", "inf"),
    ("m", "2 + (x - 0.5)/(x - 0.5)", "nan"),
    ("p", "3 + 1/(x - 0.5)^2", "inf"),
    ("p", "3 - 1/x", "-inf"),  # at the wall: exponents are checked at every node
])
def test_non_finite_exponent_names_key_and_line(key, value, bad):
    # "m >= 2" holds for inf, so finiteness is a rule of its own
    lines = MINIMAL.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    doc = "\n".join(lines[:index] + [f"{key} = {value}"] + lines[index + 1:])
    with pytest.raises(ConfigError) as caught:
        parse_config(doc)
    assert (caught.value.key, caught.value.line) == (key, index + 1)
    assert caught.value.message == f"{key}: {value!r} takes the value {bad} on the grid"


def test_non_finite_exponent_is_refused_in_code_built_configs():
    # resolve_config holds the rule, so build_problem refuses such a config
    cfg = parse_config(DOC_2D)
    for key, value in (("m", "2 + 0.1*x*y + 1/(y - 1)"), ("p", "3.5 + 1/(x - 0.5)")):
        with pytest.raises(ConfigError, match="takes the value inf on the grid") as caught:
            build_problem(replace(cfg, **{key: value}))
        assert caught.value.key == key


def test_range_error_of_a_default_key_has_no_line():
    # the default threshold 1e6 is below this u0's sup-norm; the document
    # does not set threshold, so the error names the key and no line
    bad = MINIMAL.replace("u0 = 0.1*sin(pi*x)", "u0 = 2e6*sin(pi*x)")
    with pytest.raises(ConfigError, match="must exceed the initial sup-norm") as caught:
        parse_config(bad)
    assert (caught.value.key, caught.value.line) == ("threshold", None)


# config_hash of each document as parsed; summary.json carries it, so a
# change to the canonical form shows here first
_PINNED_HASHES = {
    "conservation": "a72f254e5c88ddfcb8a8453ec2620b2b02c3ac4187ee949018d101105f088bcc",
    "decay_exponential": "f6dd60fe1edba8e631421de4c987b338d068ec0d3a98abd9f459d3baa833e901",
    "decay_polynomial": "e61b42a51c85aa92bc063dd3cd5aa295449b07eea4a1e34dcdcaa1084ea62259",
    "blowup": "994de9bccef8f3a2eda7fe5485d11242acf1c0ab847eea98aadff142c5fd81c0",
    "instability_explore": "cd7a3d3230782758eeab4a8678321e306c499cd97b006f9730eaac5bc88e15fc",
    "2d_table": "b5335ab333833787dcbbcc576f6986d300fe32bd7389b89e376db448344fa13b",
}


@pytest.mark.parametrize("name", _PINNED_HASHES)
def test_config_hash_is_pinned(name):
    doc = DOC_2D if name == "2d_table" else load_preset(name)
    assert config_hash(parse_config(doc)) == _PINNED_HASHES[name]


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("nonexistent")


def test_generated_configs_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from delaywave.config import RunConfig, auto_dt

    def floats(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    def optional(strategy):
        return st.none() | strategy

    @st.composite
    def configs(draw):
        dimension = draw(st.sampled_from([1, 2]))
        lengths = tuple(draw(st.lists(floats(0.5, 3.0), min_size=dimension,
                                      max_size=dimension)))
        nodes = tuple(draw(st.lists(st.integers(5, 41), min_size=dimension,
                                    max_size=dimension)))
        tau1 = draw(floats(0.1, 1.0))
        tau2 = tau1 + draw(floats(0.1, 2.0))
        n_rho = draw(st.integers(3, 64))
        table = draw(optional(st.lists(st.tuples(floats(0.0, 3.0), floats(0.0, 2.0)),
                                       min_size=2, max_size=4)))
        if table is not None:
            table = tuple(sorted(table))
        limit = auto_dt(lengths, nodes, tau1, n_rho)
        return RunConfig(
            dimension=dimension, lengths=lengths, nodes=nodes,
            m=draw(st.sampled_from(["2", "2.5", "2 + 0.1*x"])),
            p=draw(st.sampled_from(["3", "4", "3 + 0.2*x"])),
            log_holder_bound=draw(floats(0.1, 100.0)),
            log_holder_delta=draw(floats(0.05, 0.95)),
            mu1=draw(floats(0.0, 5.0)),
            mu2=None if table else draw(st.sampled_from(["0", "0.1", "0.1*tau"])),
            mu2_table=table,
            tau1=tau1, tau2=tau2, n_tau=draw(st.integers(2, 20)),
            u0=draw(st.sampled_from(["0", "sin(pi*x)", "0.1*x*(1-x)"])),
            u1=draw(st.sampled_from(["0", "0.7*sin(pi*x)"])),
            f0=draw(st.sampled_from(["0", "0.2*sin(pi*x)*cos(s)"])),
            scale=draw(floats(-10.0, 10.0)),
            t_end=draw(floats(0.01, 100.0)),
            dt=draw(optional(floats(0.1, 1.0).map(lambda share: share * limit))),
            n_rho=n_rho,
            threshold=draw(floats(100.0, 1e9)),
            override_conditions=draw(st.booleans()),
            disable_source=draw(st.booleans()),
            freeze_velocity=draw(st.booleans()),
            seed=draw(st.integers(0, 2**31 - 1)),
            alpha=draw(optional(floats(0.001, 0.1))),
            eps=draw(optional(floats(0.0, 2.0))),
            sample_dt=draw(optional(floats(0.001, 1.0))),
            decay_factor=draw(floats(0.001, 1.0)),
        )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(configs())
    def check(cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    check()
