import logging
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from _history import VelocityHistory, advance

from delaywave import parallel, solver
from delaywave.delay import build_kernel
from delaywave.energetics import memory_tail
from delaywave.errors import ConditionError, ConfigError, NumericalError
from delaywave.solver import (
    RunConfig,
    SimState,
    auto_dt,
    build_problem,
    damping_force,
    delay_force,
    init_state,
    laplacian,
    resolve_config,
    run,
    source_force,
    step,
)
from delaywave.spaces import ExponentField, GridFunction, l2_norm, make_grid


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


# --- spatial operators ----------------------------------------------------------

def test_laplacian_zero():
    g = make_grid(1.0, 21)
    out = laplacian(GridFunction.zeros(g))
    assert not np.any(out.values)


def test_laplacian_sine_taylor_bound():
    for n in (51, 101, 201):
        g = make_grid(1.0, n)
        h = g.spacing[0]
        x = g.coords[0]
        u = GridFunction(g, np.sin(np.pi * x))
        got = laplacian(u).values
        exact = -np.pi**2 * np.sin(np.pi * x)
        exact[g.boundary] = 0.0
        assert np.max(np.abs(got - exact)) <= (np.pi**4 / 12.0) * h**2 * 1.01


def test_laplacian_annihilates_affine_interior():
    g = make_grid(1.0, 21)
    u = GridFunction(g, 0.25 + 0.5 * g.coords[0])
    out = laplacian(u).values
    assert np.allclose(out[2:-2], 0.0, atol=1e-10)


def test_laplacian_2d_separable():
    g = make_grid((1.0, 1.0), (41, 41))
    xx, yy = g.meshes()
    u = GridFunction(g, np.sin(np.pi * xx) * np.sin(np.pi * yy))
    got = laplacian(u).values
    exact = -2.0 * np.pi**2 * u.values
    exact[g.boundary] = 0.0
    h = g.spacing[0]
    assert np.max(np.abs(got - exact)) <= 2.0 * (np.pi**4 / 12.0) * h**2 * 1.01


# --- force terms ----------------------------------------------------------------

def test_damping_force_linear_case():
    g = make_grid(1.0, 21)
    v = GridFunction(g, np.linspace(-1, 1, 21))
    m = ExponentField.constant(g, 2.0)
    out = damping_force(v, m, mu1=0.7)
    assert np.allclose(out.values, 0.7 * v.values)


def test_damping_force_odd_power_node():
    g = make_grid(1.0, 21)
    vals = np.zeros(21)
    vals[10] = -2.0
    out = damping_force(GridFunction(g, vals), ExponentField.constant(g, 3.0), mu1=1.0)
    assert out.values[10] == pytest.approx(-4.0)
    assert out.values[0] == 0.0


def test_damping_force_alternative_form():
    g = make_grid(1.0, 33)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.shape)
    m = ExponentField(g, rng.uniform(2.0, 4.0, g.shape))
    out = damping_force(GridFunction(g, v), m, mu1=1.3)
    oracle = 1.3 * np.sign(v) * np.abs(v) ** (m.values - 1.0)
    assert np.allclose(out.values, oracle, rtol=1e-13)


def test_delay_force_zero_and_mass_factor():
    g = make_grid(1.0, 21)
    m = ExponentField.constant(g, 2.0)
    k = build_kernel(lambda t: np.full_like(t, 0.4), 1.0, 2.0, 11, mu1=1.0)
    zero = delay_force(np.zeros(g.shape + (11,)), k, m)
    assert not np.any(zero.values)
    # tau-independent tail with m = 2 integrates to mass * z
    z_tail = np.broadcast_to(np.linspace(-1, 1, 21)[:, None], (21, 11)).copy()
    out = delay_force(z_tail, k, m)
    assert np.allclose(out.values, 0.4 * z_tail[:, 0], atol=1e-14)


def test_delay_force_closed_form():
    # density e^{-tau}, tail z = tau, m = 2: integral tau e^{-tau} over [1, 2]
    g = make_grid(1.0, 5)
    m = ExponentField.constant(g, 2.0)
    k = build_kernel(lambda t: np.exp(-t), 1.0, 2.0, 101, mu1=1.0)
    z_tail = np.broadcast_to(k.nodes, (5, 101)).copy()
    exact = 2.0 * np.exp(-1.0) - 3.0 * np.exp(-2.0)
    assert np.allclose(delay_force(z_tail, k, m).values, exact, atol=1e-5)


def test_source_force_examples():
    g = make_grid(1.0, 21)
    p = ExponentField.constant(g, 4.0)
    assert not np.any(source_force(GridFunction.zeros(g), p).values)
    vals = np.zeros(21)
    vals[7] = 3.0
    assert source_force(GridFunction(g, vals), p).values[7] == pytest.approx(27.0)
    rng = np.random.default_rng(19)
    u = rng.standard_normal(g.shape)
    pp = ExponentField(g, rng.uniform(2.5, 5.0, g.shape))
    oracle = np.sign(u) * np.abs(u) ** (pp.values - 1.0)
    assert np.allclose(source_force(GridFunction(g, u), pp).values, oracle, rtol=1e-13)


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
    return (laplacian(state.u).values
            - delay_force(memory_tail(state.z), prob.kernel, prob.m).values
            + source_force(state.u, prob.p).values)


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
        return damping_force(GridFunction(prob.grid, vals), prob.m, prob.kernel.mu1).values

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


def _upwind_oracle(z, cfl):
    """One whole-field upwind pass: three ufunc calls over z[:, 1:]."""
    scratch = np.empty_like(z[:, 1:])
    np.subtract(z[:, 1:], z[:, :-1], out=scratch)
    np.multiply(scratch, cfl, out=scratch)
    np.subtract(z[:, 1:], scratch, out=z[:, 1:])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "pool"])
@pytest.mark.parametrize("grid_shape", [(41,), (9, 7)], ids=["1d", "2d"])
def test_upwind_shift_equals_one_pass(monkeypatch, grid_shape, inline, workers):
    # 5 lanes split unevenly among 2 or 3 workers
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 17) + grid_shape)
    cfl = rng.uniform(0.05, 1.0, 5).reshape((-1, 1) + (1,) * len(grid_shape))
    if not inline:
        monkeypatch.setattr(solver, "_INLINE_BYTES", 0)
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    monkeypatch.setattr(parallel, "_pool", None)  # this test's pool is its own
    state = SimpleNamespace(z=z.copy(), scratch=None)
    for _ in range(3):
        solver._upwind_shift(state, cfl)
        _upwind_oracle(z, cfl)
    assert np.array_equal(state.z, z)
    if inline:
        assert [s.shape for s in state.scratch] == [z[:, 1:].shape]
    else:
        assert [s.shape for s in state.scratch] == [z[0, 1:].shape] * min(workers, 5)


def test_upwind_scratch_is_one_lane_per_worker():
    cfg = RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(65, 65), n_tau=16,
                    n_rho=32, t_end=0.01)
    prob = build_problem(cfg)
    state = init_state(prob)
    step(state, prob)
    assert state.z.nbytes > 16 * 2 ** 20
    assert [s.shape for s in state.scratch] == \
        [state.z[0, 1:].shape] * min(parallel.workers(), 16)


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
    from delaywave.config import load_preset, parse_config

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
    import delaywave.solver as solver

    compiled = []
    real = solver.compile_expression

    def counting(text, variables=()):
        compiled.append(text)
        return real(text, variables)

    monkeypatch.setattr(solver, "compile_expression", counting)
    cfg = _config(m="2 + 0.1*x", p="3 + 0.1*x", mu2="0.1*tau", u0="0.1*sin(pi*x)",
                  u1="0.2*sin(pi*x)", f0="0.2*sin(pi*x)*cos(s)")
    build_problem(cfg)
    assert sorted(compiled) == sorted([cfg.m, cfg.p, cfg.mu2, cfg.u0, cfg.u1, cfg.f0])


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
