import numpy as np
import pytest
from types import SimpleNamespace

from delaywave import energetics, parallel
from delaywave.delay import xi_default
from delaywave.energetics import (
    alpha_window,
    decay_inequality_constants,
    dissipation_check,
    energy_report,
)
from delaywave.errors import ConditionError
from delaywave.spaces import ExponentField, GridFunction, make_grid

from _density import density_kernel


def _setup(n=101, m_const=2.0, p_const=3.0, mu1=1.0, level=0.5):
    g = make_grid(1.0, n)
    m = ExponentField.constant(g, m_const)
    p = ExponentField.constant(g, p_const)
    k = density_kernel(lambda t: np.full_like(t, level), 1.0, 2.0, 11, mu1=mu1)
    xi = xi_default(k, m)
    return g, m, p, k, xi


def _tau_major(z):
    """(*grid, n_rho, n_tau) draws in the solver's (n_tau, n_rho, *grid) layout."""
    return np.ascontiguousarray(np.moveaxis(z, (-1, -2), (0, 1)))


def _state(g, u=None, v=None, z=None, n_rho=9, n_tau=11, t=0.0):
    u = GridFunction.zeros(g) if u is None else u
    v = GridFunction.zeros(g) if v is None else v
    z = np.zeros((n_tau, n_rho) + g.shape) if z is None else z
    return SimpleNamespace(t=t, u=u, v=v, z=z)


def test_report_zero_state():
    g, m, p, k, xi = _setup()
    rep = energy_report(_state(g), m, p, k, xi)
    for field in ("kinetic", "elastic", "delay_energy", "source_potential",
                  "total_energy", "nehari", "potential_energy",
                  "weighted_delay", "damping_modular", "delay_modular",
                  "delay_bulk_modular"):
        assert getattr(rep, field) == 0.0
    assert rep.blowup_indicator is None


def test_report_kinetic_only():
    g, m, p, k, xi = _setup()
    interior = np.ones(g.shape)
    interior[g.boundary] = 0.0
    rep = energy_report(_state(g, v=GridFunction(g, interior)), m, p, k, xi)
    h = g.spacing[0]
    # boundary nodes hold zero, so the quadrature sees measure 1 - h
    assert rep.kinetic == pytest.approx(0.5 * (1.0 - h), abs=1e-14)
    assert rep.nehari == 0.0
    assert rep.total_energy == pytest.approx(rep.kinetic + rep.potential_energy)


def test_report_closed_form_sine():
    g, m, p, k, xi = _setup(n=401, p_const=4.0)
    x = g.coords[0]
    u = GridFunction(g, np.sin(np.pi * x))
    rep = energy_report(_state(g, u=u), m, p, k, xi)
    h = g.spacing[0]
    assert rep.elastic == pytest.approx(np.pi**2 / 4.0, abs=5.0 * h**2)
    assert rep.source_potential == pytest.approx(3.0 / 32.0, abs=5.0 * h**2)
    assert rep.total_energy == pytest.approx(np.pi**2 / 4.0 - 3.0 / 32.0, abs=20.0 * h**2)
    assert rep.energy_deficit == -rep.total_energy
    assert rep.source_potential == rep.source_potential  # phi aliases this field


def test_report_energy_split_identity_random():
    g, m, p, k, xi = _setup()
    rng = np.random.default_rng(7)
    for _ in range(25):
        u_vals = rng.standard_normal(g.shape)
        v_vals = rng.standard_normal(g.shape)
        u_vals[g.boundary] = v_vals[g.boundary] = 0.0
        z = _tau_major(rng.standard_normal(g.shape + (9, 11)))
        rep = energy_report(_state(g, GridFunction(g, u_vals),
                                   GridFunction(g, v_vals), z), m, p, k, xi)
        assert rep.total_energy == pytest.approx(
            rep.kinetic + rep.potential_energy, rel=1e-12, abs=1e-15)
        assert rep.energy_deficit == -rep.total_energy
        recomposed = (rep.kinetic + rep.elastic + rep.delay_energy
                      - rep.source_potential)
        assert rep.total_energy == pytest.approx(recomposed, rel=1e-12, abs=1e-13)


def weighted_delay_functional(state, kernel, xi, m):
    """The exp(-rho tau)-weighted delay energy content."""
    return energetics._delay_integrals(state.z, kernel, xi, m, state.u.grid.weights)[1]


def test_weighted_delay_sandwich():
    g, m, p, k, xi = _setup()
    rng = np.random.default_rng(29)
    for _ in range(25):
        z = _tau_major(rng.standard_normal(g.shape + (9, 11))) * 10.0 ** rng.uniform(-1, 1)
        state = _state(g, z=z)
        rep = energy_report(state, m, p, k, xi)
        f_val = weighted_delay_functional(state, k, xi, m)
        assert f_val == pytest.approx(rep.weighted_delay, rel=1e-13)
        assert np.exp(-k.tau2) * rep.delay_energy <= f_val * (1.0 + 1e-12)
        assert f_val <= rep.delay_energy * (1.0 + 1e-12)


# --- dissipation check ----------------------------------------------------------

def _rep(t, e, damping=0.0, tail=0.0):
    return SimpleNamespace(t=t, total_energy=e, damping_modular=damping,
                           delay_modular=tail)


def test_dissipation_check_zero_state():
    v = dissipation_check(_rep(0.0, 0.0), _rep(0.1, 0.0), c0=0.3, dt=0.01)
    assert v.applicable and v.ok and v.rate == 0.0 and v.bound == 0.0


def test_dissipation_check_bound_violation_detected():
    v = dissipation_check(_rep(0.0, 0.0, damping=1.0), _rep(0.1, 0.2, damping=1.0),
                          c0=0.5, dt=0.001)
    assert not v.ok  # rate 2.0 against bound -0.5 + slack 0.05


def test_dissipation_check_not_applicable_when_undamped():
    v = dissipation_check(_rep(0.0, 1.0), _rep(0.1, 1.0 + 1e-5), c0=0.0, dt=0.01)
    assert not v.applicable and v.ok
    v2 = dissipation_check(_rep(0.0, 1.0), _rep(0.1, 2.0), c0=0.0, dt=0.01)
    assert not v2.ok


def test_dissipation_check_requires_ordering():
    with pytest.raises(ConditionError):
        dissipation_check(_rep(0.2, 0.0), _rep(0.1, 0.0), c0=0.1, dt=0.01)


# --- admissible window and blow-up indicator -------------------------------------

def test_alpha_window_values():
    g = make_grid(1.0, 11)
    assert alpha_window(ExponentField.constant(g, 3.0),
                        ExponentField.constant(g, 4.0)) == pytest.approx(0.125)
    assert alpha_window(ExponentField.constant(g, 2.0),
                        ExponentField.constant(g, 3.0)) == pytest.approx(1.0 / 6.0)
    with pytest.raises(ConditionError):
        alpha_window(ExponentField.constant(g, 3.0), ExponentField.constant(g, 3.0))


def test_blowup_functional_cases():
    # the indicator energy_report writes: None for a non-positive deficit,
    # deficit^(1 - alpha) + eps * integral(u v) otherwise
    g, m, p, k, xi = _setup(m_const=2.0, p_const=3.0)
    (x,) = g.meshes()
    shape = np.sin(np.pi * x)
    v = GridFunction(g, shape)

    def indicator(amplitude, eps):
        state = _state(g, u=GridFunction(g, amplitude * shape), v=v)
        return energy_report(state, m, p, k, xi, alpha=0.1, eps=eps)

    small = indicator(1.0, eps=0.5)
    assert small.energy_deficit <= 0.0 and small.blowup_indicator is None
    cross = float(np.sum(g.weights * 40.0 * shape * shape))
    assert cross > 0.0
    for eps in (0.0, 0.5):
        rep = indicator(40.0, eps)
        assert rep.energy_deficit > 0.0
        assert rep.blowup_indicator == pytest.approx(
            rep.energy_deficit ** 0.9 + eps * cross, rel=1e-12)


def test_decay_inequality_constants_formula():
    g, m, p, k, xi = _setup(m_const=2.0, mu1=1.0, level=0.5)
    a1, a2 = decay_inequality_constants(k, xi, m)
    width = k.tau2 - k.tau1
    assert a1 == pytest.approx((k.mass + width * xi.values.max()) / 2.0)
    assert a2 == pytest.approx(np.exp(-k.tau2) / 2.0)


# --- fixture-backed runs ----------------------------------------------------------

def test_dissipation_not_applicable_on_conservation_run(conservation_result):
    prob = conservation_result.problem
    traj = conservation_result.trajectory
    assert prob.c0 == 0.0
    verdicts = [dissipation_check(a, b, prob.c0, prob.config.dt)
                for a, b in zip(traj.reports[:-1], traj.reports[1:])]
    assert all(not v.applicable for v in verdicts)
    assert all(v.ok for v in verdicts)  # |dE/dt| within the scheme slack


def test_dissipation_holds_on_polynomial_run(polynomial_result):
    prob = polynomial_result.problem
    traj = polynomial_result.trajectory
    assert prob.c0 > 0.0
    for a, b in zip(traj.reports[:-1], traj.reports[1:]):
        assert dissipation_check(a, b, prob.c0, prob.config.dt).ok


def test_aligned_gemv_chunks_equal_the_whole_product(monkeypatch):
    # The fused pass rests on this property of the BLAS: a row-major gemv
    # whose row chunks start at multiples of 4 and hold at least 4 rows
    # rounds every row as the whole product does. If this fails, the BLAS
    # changed, and _GEMV_ROWS with it.
    rng = np.random.default_rng(5)
    for rows, n_rho, n_tau in ((201, 32, 16), (258, 32, 16), (259, 7, 5), (693, 32, 16),
                               (4225, 32, 16)):
        a = np.abs(rng.standard_normal((rows, n_rho, n_tau))) ** 2.3
        w = rng.random((n_rho, n_tau))
        whole = np.tensordot(a, w, axes=([-2, -1], [0, 1]))
        for points in (4, 8, 12, 256):
            monkeypatch.setattr(parallel, "BLOCK_VALUES", points * w.size)
            cut = parallel.chunks(rows, w.size, multiple=energetics._GEMV_ROWS)
            got = np.concatenate([np.dot(a[c].reshape(-1, w.size), w.ravel()) for c in cut])
            assert np.array_equal(got, whole), (rows, n_rho, n_tau, points)
