import contextlib
import logging
import os
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from _density import density_kernel
from _history import VelocityHistory, advance, per_node_history
from _reference_run import delay_force, memory_tail

from delaywave import parallel, solver
from delaywave.config import PRESET_NAMES, RunConfig, auto_dt, load_preset, parse_config, \
    resolve_config
from delaywave.errors import ConditionError, ConfigError, NumericalError
from delaywave.scenario import run_scenario, simulate
from delaywave.solver import (
    SimState,
    build_problem,
    damping_force,
    init_state,
    laplacian,
    run,
    source_force,
    step,
)
from delaywave.spaces import ExponentField, GridFunction, _abs_power, l2_norm, make_grid

def _config(**over):
    base = dict(nodes=(101,), m="2", p="3", mu1=0.5, mu2="0.1",
                tau1=0.5, tau2=1.0, u0="0", u1="0", f0="0", t_end=1.0)
    base.update(over)
    return RunConfig(**base)


# --- initialization -------------------------------------------------------------

def test_init_zero_history_gives_zero_memory():
    prob = build_problem(_config())
    state = init_state(prob)
    assert not np.any(state.z)
    assert not np.any(state.u.values)
    assert VelocityHistory(prob, state).velocity_at(-prob.kernel.tau2).max() == 0.0


def test_init_memory_samples_history_exactly():
    # z(x, rho, tau) = f0(x, -rho tau); probe rho = 0.5, tau = 1
    prob = build_problem(_config(
        u1="sin(pi*x)", f0="sin(pi*x)*cos(s)", n_rho=33, n_tau=11, tau1=0.5, tau2=1.0))
    state = init_state(prob)
    x = prob.grid.coords[0]
    j = 16
    assert prob.rho_nodes[j] == pytest.approx(0.5)
    k = 10
    assert prob.kernel.nodes[k] == pytest.approx(1.0)
    expected = np.sin(np.pi * x) * np.cos(0.5)
    expected[prob.grid.boundary] = 0.0
    assert np.allclose(state.z[k, j], expected, atol=1e-14)


def test_init_boundary_rows_zero():
    prob = build_problem(_config(u0="1", u1="1", f0="1", threshold=1e6))
    state = init_state(prob)
    assert state.u.values[0] == 0.0 and state.u.values[-1] == 0.0
    assert not np.any(state.z[..., prob.grid.boundary])


def test_init_warns_on_inconsistent_history(caplog):
    prob = build_problem(_config(u1="sin(pi*x)", f0="0"))
    with caplog.at_level(logging.WARNING):
        init_state(prob)
    assert any("f0(x, 0)" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("dimension", [1, 2])
def test_history_prefill_matches_per_node_oracle(dimension):
    # f0 raises s to a power: numpy's array power and its scalar power differ
    # in the last bit, so only a per-node scalar s reproduces these bytes
    f0 = "(1 - s)^1.5*sin(pi*x) + exp(2*s)*x*(1-x)"
    over = dict(f0=f0, u1="sin(pi*x)", scale=1.7, n_rho=9, n_tau=7, tau1=0.3, tau2=1.1)
    if dimension == 2:
        over.update(dimension=2, lengths=(1.0, 0.8), nodes=(17, 13),
                    f0=f0.replace("x*(1-x)", "x*(1-x)*y^1.5"))
    prob = build_problem(_config(**over))
    assert np.array_equal(init_state(prob).z, per_node_history(prob))


@pytest.mark.parametrize("f0,s", [
    # nan for s in (-0.3, -0.2): lane tau_1 = 0.5 first meets it at
    # rho = 13/31, before lane tau = 0.9 at rho = 7/31 (s = -0.203226)
    ("((s + 0.2)*(s + 0.3))^0.5*sin(pi*x)", "-0.209677"),
    # f0 does not read s, and overflows at every node once scaled
    ("1e300*sin(pi*x)", "-0.016129"),
], ids=["reads-s", "no-s"])
@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
def test_history_error_names_the_first_bad_node_in_lane_major_order(f0, s, shared):
    prob = build_problem(_config(f0=f0, scale=1e10))
    with pytest.raises(ConfigError) as err:
        init_state(prob, shared=shared)
    assert err.value.key == "f0"
    assert err.value.message == f"f0: {f0!r} is not finite on the grid at s = {s}"
    bad = np.argwhere(~np.isfinite(per_node_history(prob)[:, 1:]))[0]
    assert f"{-prob.rho_nodes[bad[1] + 1] * prob.kernel.nodes[bad[0]]:.6g}" == s


_BOX_2D = Path(__file__).resolve().parents[1] / "bench" / "box-2d.cfg"


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
@pytest.mark.parametrize("source", list(PRESET_NAMES) + ["box-2d", "f0-reads-s"])
def test_history_fill_is_bytewise_the_per_node_fill(source, shared):
    # an f0 that does not read s fills every node from one sample; the bytes
    # must be those of evaluating f0 at each node, in either kind of memory
    if source == "box-2d":
        cfg = parse_config(_BOX_2D.read_text())
    elif source == "f0-reads-s":
        cfg = replace(parse_config(load_preset("blowup")), f0="0.7*sin(pi*x)*exp(s)")
    else:
        cfg = parse_config(load_preset(source))
    prob = build_problem(cfg)
    assert ("s" in prob.f0_fn.names) == (source == "f0-reads-s")
    z = init_state(prob, shared=shared).z
    oracle = per_node_history(prob)
    assert z.shape == oracle.shape and z.tobytes() == oracle.tobytes()


# C0 and the two dissipation margins of every preset and of box-2d, equal by
# ==, with the mass and weight conditions: C0 enters the decay bound, and CI
# compares summary.json with the benchmark's reference for its three
# workloads only
_C0 = {
    "blowup": (0.22499999999999998, (0.22499999999999998, 0.45), (True, True)),
    "conservation": (0.0, (0.0, 0.0), (False, False)),
    "decay_exponential": (0.22499999999999998, (0.22499999999999998, 0.45), (True, True)),
    "decay_polynomial": (0.9749999999999999, (0.9749999999999999, 1.9499999999999997),
                         (True, True)),
    "instability_explore": (0.0, (-0.15000000000000002, 0.1), (False, False)),
    "box-2d": (0.44999999999999996, (0.44999999999999996, 0.8999999999999999),
               (True, True)),
}


@pytest.mark.parametrize("source", list(PRESET_NAMES) + ["box-2d"])
def test_dissipation_constant_is_pinned(source):
    cfg = parse_config(_BOX_2D.read_text() if source == "box-2d" else load_preset(source))
    prob = build_problem(cfg)
    assert (prob.c0, prob.margins, (prob.mass_ok, prob.xi_ok)) == _C0[source]


def test_a_zero_margin_fails_the_xi_condition(monkeypatch):
    # the weight condition is both margins positive: a zero margin fails it,
    # and C0 is then 0, never a nonpositive constant under a passed check
    monkeypatch.setattr(solver, "dissipation_margins", lambda kernel, xi, m: (0.0, 0.5))
    prob = build_problem(_config())
    assert (prob.xi_ok, prob.c0) == (False, 0.0)
    with pytest.raises(ConditionError, match="xi_condition"):
        simulate(_config())


def test_density_of_tau_samples_the_kernel_nodes():
    # resolve_config samples mu2 on the kernel's own tau nodes
    kernel = build_problem(_config(mu2="tau", n_tau=7)).kernel
    assert kernel.mu2.tobytes() == kernel.nodes.tobytes()


# --- spatial operators ----------------------------------------------------------

def test_laplacian_zero():
    g = make_grid(1.0, 21)
    out = laplacian(np.zeros(g.shape), g)
    assert not np.any(out)


def test_laplacian_sine_taylor_bound():
    for n in (51, 101, 201):
        g = make_grid(1.0, n)
        h = g.spacing[0]
        x = g.coords[0]
        got = laplacian(np.sin(np.pi * x), g)
        exact = -np.pi**2 * np.sin(np.pi * x)
        exact[g.boundary] = 0.0
        assert np.max(np.abs(got - exact)) <= (np.pi**4 / 12.0) * h**2 * 1.01


def test_laplacian_annihilates_affine_interior():
    g = make_grid(1.0, 21)
    out = laplacian(0.25 + 0.5 * g.coords[0], g)
    assert np.allclose(out[2:-2], 0.0, atol=1e-10)


def test_laplacian_2d_separable():
    g = make_grid((1.0, 1.0), (41, 41))
    xx, yy = g.meshes()
    u = np.sin(np.pi * xx) * np.sin(np.pi * yy)
    got = laplacian(u, g)
    exact = -2.0 * np.pi**2 * u
    exact[g.boundary] = 0.0
    h = g.spacing[0]
    assert np.max(np.abs(got - exact)) <= 2.0 * (np.pi**4 / 12.0) * h**2 * 1.01


# --- force terms ----------------------------------------------------------------

def test_damping_force_linear_case():
    g = make_grid(1.0, 21)
    v = np.linspace(-1, 1, 21)
    m = ExponentField.constant(g, 2.0)
    out = damping_force(v, m, mu1=0.7)
    assert np.allclose(out, 0.7 * v)


@pytest.mark.parametrize("mu1", [0.7, 1.0])
def test_forces_with_exponent_one_share_no_memory(mu1):
    # m = 2 and p = 2 make the odd power the identity, which returns its input
    g = make_grid(1.0, 21)
    vals = np.linspace(-1, 1, 21)
    two = ExponentField.constant(g, 2.0)
    damp = damping_force(vals, two, mu1=mu1)
    src = source_force(vals, two)
    for out in (damp, src):
        assert not np.shares_memory(out, vals)
    assert np.array_equal(src, vals)
    assert np.array_equal(damp, mu1 * vals)


def test_damping_force_odd_power_node():
    g = make_grid(1.0, 21)
    vals = np.zeros(21)
    vals[10] = -2.0
    out = damping_force(vals, ExponentField.constant(g, 3.0), mu1=1.0)
    assert out[10] == pytest.approx(-4.0)
    assert out[0] == 0.0


def test_damping_force_alternative_form():
    g = make_grid(1.0, 33)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.shape)
    m = ExponentField(g, rng.uniform(2.0, 4.0, g.shape))
    out = damping_force(v, m, mu1=1.3)
    oracle = 1.3 * np.sign(v) * np.abs(v) ** (m.values - 1.0)
    assert np.allclose(out, oracle, rtol=1e-13)


def test_delay_force_zero_and_mass_factor():
    g = make_grid(1.0, 21)
    m = ExponentField.constant(g, 2.0)
    k = density_kernel(lambda t: np.full_like(t, 0.4), 1.0, 2.0, 11, mu1=1.0)
    zero = delay_force(np.zeros(g.shape + (11,)), k, m)
    assert not np.any(zero)
    # tau-independent tail with m = 2 integrates to mass * z
    z_tail = np.broadcast_to(np.linspace(-1, 1, 21)[:, None], (21, 11)).copy()
    out = delay_force(z_tail, k, m)
    assert np.allclose(out, 0.4 * z_tail[:, 0], atol=1e-14)


def test_delay_force_closed_form():
    # density e^{-tau}, tail z = tau, m = 2: integral tau e^{-tau} over [1, 2]
    g = make_grid(1.0, 5)
    m = ExponentField.constant(g, 2.0)
    k = density_kernel(lambda t: np.exp(-t), 1.0, 2.0, 101, mu1=1.0)
    z_tail = np.broadcast_to(k.nodes, (5, 101)).copy()
    exact = 2.0 * np.exp(-1.0) - 3.0 * np.exp(-2.0)
    assert np.allclose(delay_force(z_tail, k, m), exact, atol=1e-5)


def test_source_force_examples():
    g = make_grid(1.0, 21)
    p = ExponentField.constant(g, 4.0)
    assert not np.any(source_force(np.zeros(g.shape), p))
    vals = np.zeros(21)
    vals[7] = 3.0
    assert source_force(vals, p)[7] == pytest.approx(27.0)
    rng = np.random.default_rng(19)
    u = rng.standard_normal(g.shape)
    pp = ExponentField(g, rng.uniform(2.5, 5.0, g.shape))
    oracle = np.sign(u) * np.abs(u) ** (pp.values - 1.0)
    assert np.allclose(source_force(u, pp), oracle, rtol=1e-13)


def _old_exponent(values):
    """The per-call resolution of an odd-power exponent that the force
    routines used to repeat: None when exactly 1, a float when constant."""
    if np.ptp(values) != 0.0:
        return values
    q = float(values.flat[0])
    return None if q == 1.0 else q


def _old_power_path(values):
    """The per-sample resolution of a modular's exponent that the energy
    functionals used to repeat: None when exactly 2, a float when constant."""
    lo = float(values.min())
    hi = float(values.max())
    if lo != hi:
        return values
    return None if lo == 2.0 else lo


def _old_odd_power(w, exponent):
    return w if exponent is None else np.sign(w) * np.abs(w) ** exponent


def _same_resolution(got, want):
    if want is None or isinstance(want, float):
        return type(got) is type(want) and got == want
    return isinstance(got, np.ndarray) and got.dtype == want.dtype \
        and np.array_equal(got, want)


@pytest.mark.parametrize("q", ["two", "one", "constant", "variable"])
@pytest.mark.parametrize("grid_shape", [(33,), (9, 7)], ids=["1d", "2d"])
def test_exponent_resolution_matches_the_old_rederivation(grid_shape, q):
    grid = make_grid((1.0,) * len(grid_shape), grid_shape)
    values = {"two": np.full(grid_shape, 2.0), "one": np.full(grid_shape, 1.0),
              "constant": np.full(grid_shape, 2.5),
              "variable": 2.2 + 0.3 * grid.meshes()[0] ** 2}[q]
    field = ExponentField(grid, values)
    odd = _old_exponent(field.values - 1.0)
    power = _old_power_path(field.values)
    assert _same_resolution(field.odd, odd)
    assert _same_resolution(field.power, power)

    rng = np.random.default_rng(29)
    w = rng.standard_normal(grid_shape) * rng.uniform(0.1, 10.0, grid_shape)
    w.flat[::5] = 0.0
    modular = w * w if power is None else np.abs(w) ** power
    assert np.array_equal(_abs_power(w, field), modular)
    assert np.array_equal(source_force(w, field), np.array(_old_odd_power(w, odd)))
    if q == "one":  # only the source exponent p may be 1
        return
    assert np.array_equal(damping_force(w, field, 0.7), 0.7 * _old_odd_power(w, odd))
    kernel = density_kernel(lambda t: 0.5 + 0.2 * t, 1.0, 2.0, 5, mu1=1.0)
    tail = memory_tail(rng.standard_normal((5, 3) + grid_shape))
    tail_odd = odd[..., None] if isinstance(odd, np.ndarray) else odd
    terms = _old_odd_power(tail, tail_odd) * (kernel.weights * kernel.mu2)
    assert np.array_equal(delay_force(tail, kernel, field), terms.sum(axis=-1))


# --- stepping -------------------------------------------------------------------

def test_step_zero_state_is_equilibrium():
    prob = build_problem(_config(t_end=0.5))
    state = init_state(prob)
    for _ in range(50):
        step(state, prob)
    assert not np.any(state.u.values)
    assert not np.any(state.v.values)
    assert not np.any(state.z)


def test_step_standing_wave_second_order():
    # linear test mode: no damping, no source; u = sin(pi x) cos(pi t)
    def error(n, dt):
        cfg = _config(nodes=(n,), mu1=0.0, mu2="0", u0="sin(pi*x)",
                      disable_source=True, override_conditions=True,
                      t_end=0.9, dt=dt)
        prob = build_problem(cfg)
        state = init_state(prob)
        for _ in range(round(cfg.t_end / dt)):
            step(state, prob)
        x = prob.grid.coords[0]
        exact = np.sin(np.pi * x) * np.cos(np.pi * state.t)
        return l2_norm(GridFunction(prob.grid, state.u.values - exact))

    e_coarse = error(101, 0.002)
    e_fine = error(201, 0.001)
    assert 3.0 <= e_coarse / e_fine <= 5.0


def test_step_frozen_velocity_transport_steady_state(caplog):
    # start from empty memory (f0 = 0) so the constant inflow has to flush
    # through the whole rho interval; after t >= tau2 the field has relaxed
    # to the inflow value, far inside the O(d_rho + dt) bound
    cfg = _config(u1="sin(pi*x)", f0="0", freeze_velocity=True, t_end=2.0)
    prob = build_problem(cfg)
    with caplog.at_level(logging.ERROR):
        state = init_state(prob)
    history = VelocityHistory(prob, state)
    advance(state, prob, round(2.0 / prob.config.dt), history)
    err = np.max(np.abs(state.z[:, -1] - state.v.values))
    assert err <= 1e-4
    # for t >= tau*rho the oracle interpolates constant post-start snapshots
    oracle = history.oracle(state, prob.kernel.tau2, 1.0)
    assert np.allclose(oracle.values, state.v.values, atol=1e-14)


def test_step_inflow_consistency_and_boundary():
    prob = build_problem(_config(u0="0.2*sin(pi*x)", u1="0.1*sin(2*pi*x)",
                                 f0="0.1*sin(2*pi*x)", t_end=0.2))
    state = init_state(prob)
    for _ in range(40):
        step(state, prob)
        assert np.array_equal(state.z[:, 0], np.broadcast_to(
            state.v.values, state.z[:, 0].shape))
        assert state.u.values[0] == 0.0 and state.u.values[-1] == 0.0
        assert state.v.values[0] == 0.0 and state.v.values[-1] == 0.0


def _public_accel(state, prob):
    """The conservative acceleration from the public force routines."""
    return (laplacian(state.u.values, prob.grid)
            - delay_force(memory_tail(state.z), prob.kernel, prob.m)
            + source_force(state.u.values, prob.p))


@pytest.mark.parametrize("dimension,m,p", [
    (1, "2", "3"),
    (1, "2.2 + 0.3*x", "3.2 + 0.3*x"),
    (2, "2.5", "4"),
    (2, "2.2 + 0.3*x*y", "3.2 + 0.3*x"),
])
def test_step_runs_the_public_forces(dimension, m, p):
    # step must compute, bit for bit, the kick-drift-kick that the public
    # laplacian/damping_force/delay_force/source_force describe
    if dimension == 1:
        cfg = _config(m=m, p=p, u0="0.3*sin(pi*x)", u1="0.2*sin(2*pi*x)",
                      f0="0.2*sin(2*pi*x)*cos(s)", n_rho=9, n_tau=5)
    else:
        cfg = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(17, 17), m=m, p=p,
                        u0="0.3*sin(pi*x)*sin(pi*y)", u1="0.2*sin(2*pi*x)*sin(pi*y)",
                        f0="0.2*sin(2*pi*x)*sin(pi*y)*cos(s)", n_rho=9, n_tau=5)
    prob = build_problem(cfg)
    state = init_state(prob)
    dt = prob.config.dt

    def damping(vals):
        return damping_force(vals, prob.m, prob.kernel.mu1)

    for _ in range(3):
        u0 = state.u.values.copy()
        v0 = state.v.values.copy()
        g0 = _public_accel(state, prob)
        v_half = v0 + 0.5 * dt * (g0 - damping(v0))
        v_half = v0 + 0.5 * dt * (g0 - damping(v_half))
        step(state, prob)
        assert np.array_equal(state.u.values, u0 + dt * v_half)
        g1 = _public_accel(state, prob)
        assert np.array_equal(state.accel, g1)
        assert np.array_equal(state.v.values, v_half + 0.5 * dt * (g1 - damping(v_half)))
    assert np.any(state.z[:, -1])  # the delay force was exercised



def test_step_calls_the_public_force_routines(monkeypatch):
    calls = {"damping_force": 0, "laplacian": 0, "source_force": 0}

    def counting(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    prob = build_problem(_config(m="2.5", u0="0.3*sin(pi*x)", u1="0.2*sin(2*pi*x)",
                                 f0="0.2*sin(2*pi*x)*cos(s)", n_rho=9, n_tau=5))
    state = init_state(prob)
    n = 4
    for _ in range(n):
        step(state, prob)
    # two half-step damping passes and the final kick's; one conservative
    # acceleration per step, plus the first step's, which has none cached
    assert calls == {"damping_force": 3 * n, "laplacian": n + 1, "source_force": n + 1}

@pytest.mark.parametrize("dimension", [1, 2])
def test_memory_field_is_tau_major_and_contiguous(dimension):
    if dimension == 1:
        cfg = _config(u1="0.2*sin(pi*x)", f0="0.2*sin(pi*x)", n_rho=9, n_tau=5)
    else:
        cfg = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(17, 13), n_rho=9,
                        n_tau=5, u1="0.2*sin(pi*x)*sin(pi*y)",
                        f0="0.2*sin(pi*x)*sin(pi*y)")
    prob = build_problem(cfg)
    state = init_state(prob)
    z = state.z
    assert z.shape == (5, 9) + prob.grid.shape
    assert z.flags.c_contiguous
    step(state, prob)
    assert state.z is z and z.flags.c_contiguous


@contextlib.contextmanager
def _helper(state, prob):
    """A forked shift helper on half the lanes of state, as run sets it up;
    state.z must be shared memory (init_state's ``shared``)."""
    state.plan = solver._Plan(prob, state.z)
    helper = solver._Helper(state.plan)
    try:
        yield helper
    finally:
        helper.close()


def test_upwind_scratch_is_one_lane_per_worker():
    # a lane of this field is one block: each process shifts through one
    # lane of scratch, the helper through its own copy
    cfg = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(65, 65), n_tau=16,
                    n_rho=32, t_end=0.01)
    prob = build_problem(cfg)
    state = init_state(prob)
    step(state, prob)
    assert state.z.nbytes > 16 * 2 ** 20
    assert state.plan.scratch.shape == (1,) + state.z[0, 1:].shape
    assert len(state.plan.own) == 16
    assert state.plan.terms.shape == (65, 65, 16) and state.plan.terms.flags.c_contiguous


@pytest.mark.parametrize("with_helper", [False, True], ids=["inline", "helper"])
def test_frozen_velocity_allocates_no_delay_terms(with_helper):
    if with_helper and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    prob = build_problem(_config(u1="sin(pi*x)", f0="sin(pi*x)", freeze_velocity=True))
    state = init_state(prob, shared=with_helper)
    with _helper(state, prob) if with_helper else contextlib.nullcontext():
        step(state, prob)
        step(state, prob)
    assert state.plan.terms is None
    assert np.array_equal(state.z[:, 0], np.broadcast_to(state.v.values, state.z[:, 0].shape))


@pytest.mark.parametrize("edit", ["z-replaced", "z-in-place"])
@pytest.mark.parametrize("with_helper", [False, True], ids=["inline", "helper"])
def test_step_after_a_hand_edit_matches_a_fresh_state(edit, with_helper):
    # a state's plan holds views of its z; after u and z are edited by hand
    # and accel is reset, step must give the bits of a state never stepped
    # (a helper shifts the edited z in place; a replaced z gets a plan of
    # its own)
    if with_helper and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    prob = build_problem(RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(9, 7),
                                   m="2.2 + 0.3*x*y", n_rho=17, n_tau=5,
                                   u0="0.3*sin(pi*x)*sin(pi*y)", u1="0.2*sin(2*pi*x)*sin(pi*y)",
                                   f0="0.2*sin(2*pi*x)*sin(pi*y)"))
    state = init_state(prob, shared=with_helper)
    with _helper(state, prob) if with_helper else contextlib.nullcontext():
        for _ in range(3):
            step(state, prob)
        # the 5 lanes are one block; a helper takes lanes 0..1, this process 2..4
        assert state.plan.scratch.shape == (5,) + state.z[0, 1:].shape
        assert [rows[0].shape[0] for rows, _ in state.plan.own] == [3 if with_helper else 5]
        rng = np.random.default_rng(3)
        u = 0.1 * rng.standard_normal(prob.grid.shape)
        u[prob.grid.boundary] = 0.0
        z = 0.1 * rng.standard_normal(state.z.shape)
        z[..., prob.grid.boundary] = 0.0
        state.u = GridFunction(prob.grid, u.copy())
        if edit == "z-replaced":
            state.z = z.copy()
        else:
            state.z[...] = z
        state.accel = None
        fresh = SimState(t=state.t, u=GridFunction(prob.grid, u.copy()),
                         v=GridFunction(prob.grid, state.v.values.copy()), z=z.copy())
        for _ in range(2):
            step(state, prob)
            step(fresh, prob)
            for name in ("u", "v"):
                assert np.array_equal(getattr(state, name).values, getattr(fresh, name).values)
            assert np.array_equal(state.z, fresh.z)
            assert np.array_equal(state.accel, fresh.accel)
    # a closed helper hands every lane back to this process
    assert state.plan.helper is None and len(state.plan.own) == 1


def test_zero_state_stays_exactly_zero_property(monkeypatch):
    # scalar and array exponents, the identity kernels m = 2 and p = 2, the
    # source switch, and whole-side or one-lane shift blocks
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    block_values = parallel.BLOCK_VALUES

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(dimension=st.sampled_from([1, 2]),
                      m=st.sampled_from(["2", "2.5", "2.2 + 0.3*x"]),
                      p=st.sampled_from(["2", "3", "3.2 + 0.3*x"]),
                      disable_source=st.booleans(), one_lane=st.booleans())
    def check(dimension, m, p, disable_source, one_lane):
        monkeypatch.setattr(parallel, "BLOCK_VALUES", 0 if one_lane else block_values)
        over = dict(m=m, p=p, disable_source=disable_source, n_rho=5, n_tau=3,
                    u0="0", u1="0", f0="0")
        if dimension == 1:
            prob = build_problem(_config(nodes=(21,), **over))
        else:
            prob = build_problem(RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(9, 9),
                                           **over))
        state = init_state(prob)
        for _ in range(20):
            step(state, prob)
        assert not np.any(state.u.values)
        assert not np.any(state.v.values)
        assert not np.any(state.z)
        assert not np.any(state.accel)

    check()


# --- history oracle -------------------------------------------------------------

def test_history_oracle_at_start_equals_history():
    prob = build_problem(_config(f0="sin(pi*x)*cos(s)", u1="sin(pi*x)"))
    state = init_state(prob)
    history = VelocityHistory(prob, state)
    x = prob.grid.coords[0]
    for tau, rho in ((0.5, 1.0), (1.0, 0.5), (0.75, 0.25)):
        got = history.oracle(state, tau, rho).values
        expected = np.sin(np.pi * x) * np.cos(tau * rho)
        expected[prob.grid.boundary] = 0.0
        # ring buffer stores f0 at the stepping cadence; linear interp error O(dt^2)
        assert np.max(np.abs(got - expected)) <= 10.0 * prob.config.dt**2


def test_history_oracle_rejects_times_before_window():
    prob = build_problem(_config())
    state = init_state(prob)
    with pytest.raises(ConditionError):
        VelocityHistory(prob, state).oracle(state, prob.kernel.tau2, 1.5)


def test_memory_field_converges_to_oracle():
    def worst_error(dt, n_rho):
        cfg = _config(u0="0.3*sin(pi*x)", t_end=2.0, dt=dt, n_rho=n_rho)
        prob = build_problem(cfg)
        state = init_state(prob)
        history = VelocityHistory(prob, state)
        advance(state, prob, round(2.0 / dt), history)
        worst = 0.0
        for j, rho in enumerate(prob.rho_nodes):
            for k, tau in enumerate(prob.kernel.nodes):
                diff = state.z[k, j] - history.oracle(state, tau, rho).values
                worst = max(worst, l2_norm(GridFunction(prob.grid, diff)))
        return worst

    coarse = worst_error(0.005, 17)
    fine = worst_error(0.0025, 33)
    assert 1.7 <= coarse / fine <= 2.3


# --- run ------------------------------------------------------------------------

def test_run_zero_data_reaches_end():
    traj = run(build_problem(_config(t_end=0.5)))
    assert traj.termination == "reached-t-end"
    assert np.all(traj.energies == 0.0)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(0.5)
    assert np.all(np.diff(traj.times) > 0.0)


def test_run_is_deterministic():
    cfg = _config(u0="0.2*sin(pi*x)", t_end=0.5)
    a = run(build_problem(cfg))
    b = run(build_problem(cfg))
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.sup_u, b.sup_u)


def test_per_step_energy_monotonicity():
    # the sampled acceptance check works at the output cadence; this one
    # inspects every single step of a short damped run
    from delaywave.energetics import energy_report

    cfg = _config(u0="0.3*sin(pi*x)", t_end=1.0)
    prob = build_problem(cfg)
    state = init_state(prob)
    dt = prob.config.dt

    def energy():
        return energy_report(state, prob.m, prob.p, prob.kernel, prob.xi).total_energy

    prev = energy()
    for _ in range(round(1.0 / dt)):
        step(state, prob)
        cur = energy()
        assert cur <= prev + 10.0 * dt**3
        prev = cur


def test_run_2d_dissipative():
    cfg = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(33, 33),
                    m="2", p="3", mu1=0.5, mu2="0.1", tau1=0.5, tau2=1.0,
                    n_tau=8, u0="0.2*sin(pi*x)*sin(pi*y)", u1="0", f0="0",
                    t_end=1.5, n_rho=16, sample_dt=0.1)
    traj = run(build_problem(cfg))
    assert traj.termination == "reached-t-end"
    assert np.all(np.diff(traj.energies) <= 1e-9)
    assert traj.energies[0] > 0.0


def test_run_allocates_no_velocity_history():
    # a ring buffer spanning tau2 at this dt would hold 10^4 snapshots (8 MB);
    # the memory field itself is 0.1 MB
    cfg = _config(u0="0.2*sin(pi*x)", dt=1e-4, n_tau=4, t_end=0.01, sample_dt=0.005)
    prob = build_problem(cfg)
    assert "history" not in {f.name for f in fields(SimState)}
    history_bytes = round(prob.kernel.tau2 / prob.config.dt) * prob.grid.shape[0] * 8
    tracemalloc.start()
    try:
        run(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < history_bytes / 4


def test_run_overflow_raises_numerical_error():
    # with the threshold out of reach the blow-up preset overflows to inf
    from dataclasses import replace

    cfg = replace(parse_config(load_preset("blowup")), threshold=1e300)
    with pytest.raises(NumericalError, match="numerical overflow") as err:
        run(build_problem(cfg))
    ctx = err.value.context
    assert set(ctx) == {"t", "step", "sup_u", "sup_v"}
    assert ctx["t"] == pytest.approx(ctx["step"] * cfg.dt)
    assert 0.0 < ctx["t"] < 1.0
    assert not (np.isfinite(ctx["sup_u"]) and np.isfinite(ctx["sup_v"]))


def test_cfl_contract_enforced():
    limit = auto_dt((1.0,), (101,), 0.5, 32)
    with pytest.raises(ConfigError):
        build_problem(_config(dt=2.0 * limit))


def test_threshold_must_exceed_initial_sup():
    with pytest.raises(ConfigError):
        run(build_problem(_config(u0="2*sin(pi*x)", threshold=1.0)))


def test_alpha_rule_applies_under_the_exponent_chain():
    # window min((p-2)/2p, (p-m)/(p(m-1))) = 1/6 for m = 2, p = 3
    with pytest.raises(ConfigError, match="admissible window") as err:
        resolve_config(_config(alpha=0.9))
    assert err.value.key == "alpha"
    # without the chain m < p, build_problem leaves alpha unused
    assert build_problem(_config(alpha=0.9, p="2")).alpha is None


def test_build_problem_compiles_each_expression_once(monkeypatch):
    import delaywave.config as config

    compiled = []
    evaluated = {}  # text -> the s of each evaluation (None without s)
    real = config.compile_expression

    def counting(text, variables=()):
        compiled.append(text)
        expr = real(text, variables)

        def evaluate(**env):
            evaluated.setdefault(text, []).append(env.get("s"))
            return expr(**env)
        evaluate.names = expr.names  # init_state reads whether f0 reads s
        return evaluate

    monkeypatch.setattr(config, "compile_expression", counting)
    base = _config(m="2 + 0.1*x", p="3 + 0.1*x", mu2="0.1*tau", u0="0.1*sin(pi*x)",
                   u1="0.2*sin(pi*x)")
    # set-up samples u0 and u1 once, and f0 once at s = 0; an f0 that reads
    # s is evaluated again once per history node, one that does not never
    for f0, history in (("0.2*sin(pi*x)*cos(s)", (base.n_rho - 1) * base.n_tau),
                        ("0.3*sin(pi*x)", 0)):
        compiled.clear()
        evaluated.clear()
        cfg = replace(base, f0=f0)
        init_state(build_problem(cfg))
        assert sorted(compiled) == sorted([cfg.m, cfg.p, cfg.mu2, cfg.u0, cfg.u1, cfg.f0])
        assert evaluated[cfg.u0] == evaluated[cfg.u1] == [None]
        assert len(evaluated[cfg.f0]) == 1 + history and evaluated[cfg.f0].count(0.0) == 1


@pytest.mark.parametrize("key,value,message", [
    ("mu2", "0.1*tau +", "malformed expression"),
    ("f0", "sin(pi*x)*cos(q)", "unknown name 'q'"),
    ("mu2", "tau^(0-1)^0.5", "complex values"),
    ("f0", "x + s*10^400", "OverflowError"),
])
def test_closed_forms_are_compiled_and_evaluated_by_the_validator(key, value, message):
    # configs built in code meet the rules documents meet: every closed form
    # is compiled and sampled once, and a failure names its key
    with pytest.raises(ConfigError, match=message) as caught:
        build_problem(_config(**{key: value}))
    assert caught.value.key == key and caught.value.message.startswith(f"{key}: ")


def test_dimension_must_match_lengths_and_nodes():
    with pytest.raises(ConfigError, match="needs 2 lengths") as err:
        build_problem(RunConfig(dimension=2, lengths=(1.0,), nodes=(51,)))
    assert err.value.key == "dimension"
    with pytest.raises(ConfigError) as err:
        build_problem(RunConfig(dimension=1, lengths=(1.0, 1.0), nodes=(51, 51)))
    assert err.value.key == "dimension"
    with pytest.raises(ConfigError, match="1 or 2") as err:
        build_problem(RunConfig(dimension=3, lengths=(1.0,) * 3, nodes=(5,) * 3))
    assert err.value.key == "dimension"


def test_blowup_time_is_stable_under_halving_dt(blowup_result):
    # the measured blow-up time is a property of the PDE, not of the step:
    # halving the preset's dt must move it by less than 1%
    cfg = blowup_result.config
    assert cfg.dt == 0.00025
    half = run_scenario(replace(cfg, dt=cfg.dt / 2))
    coarse, fine = blowup_result.summary, half.summary
    assert coarse["classification"] == fine["classification"] == "blow-up"
    assert fine["T_measured"] == pytest.approx(coarse["T_measured"], rel=0.01)
