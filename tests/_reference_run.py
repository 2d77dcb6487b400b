"""The scheme of ``solver``'s module docstring, integrated plainly, and the
whole-array oracles that the tests check the run's kernels against.

``reference_run`` takes the steps, samples, threshold stop and eps of
``solver.run`` with a whole-field upwind shift, a whole-tail delay force and
``_delay_integrals_oracle``: no plan, lane blocks, chunks or helper. However
``solver.run`` cuts its work, it must give these bits.
"""

import math
from unittest import mock

import numpy as np

from delaywave import energetics, solver
from delaywave.delay import rho_quadrature
from delaywave.solver import damping_force, init_state, laplacian, source_force
from delaywave.spaces import trapezoid_weights


def memory_tail(z):
    """The rho = 1 tail of a tau-major memory field z (n_tau, n_rho, *grid),
    as a C-contiguous (*grid, n_tau) copy: a sum over its last axis keeps
    numpy's pairwise order, which a sum over tau in place would not."""
    return np.ascontiguousarray(np.moveaxis(z[:, -1], 0, -1))


def delay_force(z_tail, kernel, m):
    """The delay force of a C-ordered (*grid, n_tau) tail: the odd power
    z|z|^{m-2} of the whole tail times the tau weights and mu2, summed over
    tau in numpy's pairwise order."""
    exponent = m.odd[..., None] if isinstance(m.odd, np.ndarray) else m.odd
    return (solver._odd_power(z_tail, exponent) * (kernel.weights * kernel.mu2)).sum(axis=-1)


def _upwind_oracle(z, cfl):
    """One whole-field upwind pass: three ufunc calls over z[:, 1:]."""
    scratch = np.empty_like(z[:, 1:])
    np.subtract(z[:, 1:], z[:, :-1], out=scratch)
    np.multiply(scratch, cfl, out=scratch)
    np.subtract(z[:, 1:], scratch, out=z[:, 1:])


def _abs_power_oracle(w, m_values):
    """|w|^m over the grid axes leading w, by the path of the whole m field."""
    lo, hi = m_values.min(), m_values.max()
    if lo == hi == 2.0:
        return w * w
    a = np.abs(w)
    a **= lo if lo == hi else m_values.reshape(m_values.shape + (1,) * (w.ndim - m_values.ndim))
    return a


def _delay_integrals_oracle(z, kernel, xi, m, grid_weights, plan=None):
    """The whole-array delay integrals: two transposed arrays reduced by six
    tensordots, and the delay modular from memory_tail's copy. ``plan`` is
    ignored: the oracle cuts nothing."""
    rho_w = trapezoid_weights(z.shape[1], 1.0 / (z.shape[1] - 1))
    rho_nodes = np.linspace(0.0, 1.0, z.shape[1])
    tau_w = kernel.weights
    tw = kernel.nodes * tau_w
    decay_jk = np.exp(-np.outer(rho_nodes, kernel.nodes))
    a = _abs_power_oracle(np.moveaxis(z, (0, 1), (-1, -2)), m.values)
    b = a / m.values[..., None, None]

    def triple(field, jk_weight):
        return np.tensordot(field, jk_weight, axes=([-2, -1], [0, 1]))

    def grid_sum(field, mu_weight, one_weight):
        return float(np.sum(grid_weights * (triple(field, mu_weight)
                                            + xi.values * triple(field, one_weight))))

    w_mu = np.outer(rho_w, tw * kernel.mu2)
    w_one = np.outer(rho_w, tw)
    energy = grid_sum(b, w_mu, w_one)
    weighted = grid_sum(b, w_mu * decay_jk, w_one * decay_jk)
    bulk = grid_sum(a, np.outer(rho_w, tau_w * kernel.mu2), np.outer(rho_w, tau_w))
    tail_pow = _abs_power_oracle(memory_tail(z), m.values)
    modular = float(np.sum(grid_weights * np.sum(tail_pow * tau_w, axis=-1)))
    return energy, weighted, bulk, modular


def reference_run(problem):
    """The ``solver.Trajectory`` of ``problem``, integrated plainly."""
    cfg, grid, m, kernel = problem.config, problem.grid, problem.m, problem.kernel
    dt, half, mu1 = cfg.dt, 0.5 * cfg.dt, kernel.mu1
    state = init_state(problem)
    z = state.z
    cfl = (dt / (kernel.nodes * rho_quadrature(cfg.n_rho)[1])).reshape(
        (-1, 1) + (1,) * grid.dimension)

    def accel(u):
        g = laplacian(u, grid) - delay_force(memory_tail(z), kernel, m)
        return g if cfg.disable_source else g + source_force(u, problem.p)

    def report(eps):
        with mock.patch.object(energetics, "_delay_integrals", _delay_integrals_oracle):
            return energetics.energy_report(state, m, problem.p, kernel, problem.xi,
                                            alpha=problem.alpha, eps=eps)

    eps = cfg.eps if cfg.eps is not None else solver._auto_eps(report(0.0), state, problem)
    times, reports, sups = [0.0], [report(eps)], [float(np.abs(state.u.values).max())]
    n_steps = math.ceil(cfg.t_end / dt - 1e-9)
    sample_every = max(1, round(cfg.sample_dt / dt))
    termination, blowup_time = solver.TERMINATED_END, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            u0, v0 = state.u.values, state.v.values
            if cfg.freeze_velocity:
                _upwind_oracle(z, cfl)
                z[:, 0] = v0
            else:
                g0 = accel(u0)
                v_half = v0 + half * (g0 - damping_force(v0, m, mu1))
                v_half = v0 + half * (g0 - damping_force(v_half, m, mu1))
                u1 = u0 + dt * v_half
                _upwind_oracle(z, cfl)
                v1 = v_half + half * (accel(u1) - damping_force(v_half, m, mu1))
                z[:, 0] = v1
                state.u.values, state.v.values = u1, v1
            state.t += dt
            sup_u = float(np.abs(state.u.values).max())
            crossed = sup_u >= cfg.threshold
            if crossed or (i + 1) % sample_every == 0 or i == n_steps - 1:
                times.append(state.t)
                reports.append(report(eps))
                sups.append(sup_u)
            if crossed:
                termination, blowup_time = solver.TERMINATED_BLOWUP, state.t
                break
    return solver.Trajectory(np.array(times), reports, np.array(sups), termination,
                             blowup_time, eps)
